"""fuzzkit benchmark: per-call latency and throughput end to end, and stage
timings for each layer from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports fuzzkit from ``src/``.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_build" / "perfbench"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
# Functions the traced run times one call at a time, by span name.
HOT_STAGES = ("engine.fire_rules", "engine.defuzzify", "engine.fire_rules_interval",
              "mf.call", "engine.km_reduce")
COLD_STAGES = ("dsl.parse_system", "interop.parse_fcl", "interop.parse_fis",
               "model.FuzzySystem", "engine.first_infer", "codegen.generate",
               "codegen.load")
PER_LAYER = {
    **{f"{s}.p50_us": "us" for s in HOT_STAGES},
    "engine.infer.rest_p50_us": "us",
    "engine.denoise_detector.rest_p50_us": "us",
    "engine.rules_active.mean": "count",
    "runtime.gc_collections": "per_1k_ops",
    "trace.overhead_us": "us",
    **{f"{s}.cycle_us": "us" for s in COLD_STAGES},
    "codegen.source_bytes": "bytes",
}


def use_checkout_sources() -> bool:
    """Put this checkout's ``src`` first on the import path; False when the
    checkout holds no fuzzkit sources."""
    if not (SRC / "fuzzkit" / "__init__.py").is_file():
        return False
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def environment() -> str:
    import numpy as np
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"avx512f={features.get('AVX512F')} nproc={len(os.sched_getaffinity(0))}")


def run(name: str, seed: int, seconds: float, trace: bool, log=print) -> dict:
    """One benchmark run; returns the result object printed last."""
    # harness and workloads import fuzzkit, found through use_checkout_sources
    import workloads

    wl = workloads.make(name, seed)
    log(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    log(f"env {environment()}")
    if trace:
        phases, metrics = traced_run(wl, seconds, log)
    else:
        phases, metrics = untraced_run(wl, seconds, log)
    problems = [p for ph in phases for p in ph.problems]
    for p in problems[:5]:
        log(f"CHECK FAILED: {p}")
    units = PER_LAYER if trace else END_TO_END
    for key, unit in units.items():
        log(f"  {key:<40} {metrics[key]:>14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    log(f"attempted {result['attempted']} failed {result['failed']} "
        f"correct {str(result['correct']).lower()}")
    return result


def untraced_run(wl, seconds, log):
    from harness import Phase, clock, median, peak_rss_mib, run_phase

    # Set-ups alternate with equal slices of the timed loop, so that a burst
    # of load from elsewhere on the host cannot fall on all of them.
    times, phase, chunks = [], Phase(), wl.chunks()
    for k in range(wl.setups):
        prep = wl.prepare_setup(k)  # inputs and renamed text, not timed
        t0 = clock()
        wl.setup(prep)
        times.append(clock() - t0)
        gc.collect()
        run_phase(chunks, wl.run, wl.check, seconds * (k + 1) / wl.setups, phase)
    metrics = {
        "setup_s": median(times) / 1e9,
        "ops_per_s": phase.attempted / (phase.wall_ns / 1e9),
        "peak_rss_mib": peak_rss_mib(),
    }
    lat = phase.latency
    log(f"{wl.setups} set-ups; {phase.attempted} timed calls in "
        f"{phase.wall_ns / 1e9:.3f} s; {phase.gc_runs} gc collections")
    # Printed, not reported: on a shared host they repeat too poorly from run
    # to run (see README.md).
    log("  latency us: " + "  ".join(f"p{q} {lat.percentile_us(q):.6g}"
                                     for q in (10, 50, 99))
        + f"  mean {lat.mean_us():.6g}  ({lat.n} calls)")
    return [phase], metrics


def traced_run(wl, seconds, log):
    from harness import Tracer, median, run_phase, traced_call

    tr = Tracer()
    setup_ids = [-1 - k for k in range(wl.setups)]
    for k, op_id in enumerate(setup_ids):
        prep = wl.prepare_setup(k)
        root = tr.open("setup", -1, op_id)
        wl.setup(prep, traced_call(tr, root, op_id))
        tr.close(root)
    chunks = wl.chunks()
    gc.collect()
    plain = run_phase(chunks, wl.run, wl.check, seconds / 2)
    op_ids = itertools.count()
    traced = run_phase(chunks, lambda a: wl.traced(tr, next(op_ids), a), wl.check,
                       seconds / 2)
    ops = range(traced.attempted)

    def per_op_us(name, ids=ops):
        totals = tr.time_per_op(name)
        return [totals.get(i, 0) / 1e3 for i in ids]

    def rest(name, stages):
        if not tr.time_per_op(name):
            return 0.0
        parts = [per_op_us(s) for s in stages]
        return median([t - sum(p[i] for p in parts)
                       for i, t in enumerate(per_op_us(name))])

    # Cold-path stages are per operation on cold-load, per set-up elsewhere.
    cold_ids = ops if wl.name == "cold-load" else setup_ids
    metrics = {f"{s}.p50_us": median(per_op_us(s)) for s in HOT_STAGES}
    metrics.update({f"{s}.cycle_us": median(per_op_us(s, cold_ids)) for s in COLD_STAGES})
    metrics["engine.infer.rest_p50_us"] = rest(
        "engine.infer", ("engine.fire_rules", "engine.defuzzify",
                         "engine.fire_rules_interval", "engine.km_reduce"))
    metrics["engine.denoise_detector.rest_p50_us"] = rest(
        "engine.denoise_detector", ("engine.fire_rules",))
    metrics["engine.rules_active.mean"] = wl.rules_active()
    metrics["runtime.gc_collections"] = 1000.0 * plain.gc_runs / plain.attempted
    metrics["trace.overhead_us"] = (traced.latency.percentile_us(50)
                                    - plain.latency.percentile_us(50))
    metrics["codegen.source_bytes"] = wl.source_bytes()
    path = TRACE_DIR / f"trace-{wl.name}-seed{wl.seed}.csv"
    tr.write_csv(path)
    log(f"{plain.attempted} untraced and {traced.attempted} traced calls; "
        f"{len(tr.start)} spans written to {path.relative_to(ROOT)}")
    return [plain, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout_sources():
        print(f"perfbench: no fuzzkit sources in {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; have {', '.join(workloads.NAMES)}")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
