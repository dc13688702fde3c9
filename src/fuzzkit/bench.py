"""Latency benchmarks for the bundled example systems.

Methodology: monotonic clock, seeded pseudo-random inputs, batch size
auto-tuned so every timed batch takes at least one millisecond; median and
99th-percentile are computed over per-batch means.  Interpreter and
generated-code variants run on identical input sequences.  Results are
machine-dependent by nature.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from dataclasses import dataclass

from . import codegen
from .corpus import CASES, load_system
from .engine import _readout, denoise_detector, infer
from .model import FuzzySystem, SystemKind

DEFAULT_SEED = 24601
DEFAULT_ITERATIONS = 10_000

_MIN_BATCH_NS = 1_000_000  # every timed batch spans >= 1 ms
_INPUT_POOL = 64


@dataclass(frozen=True)
class BenchResult:
    case: str
    impl: str  # "interp" | "codegen"
    median_ns: float
    p99_ns: float
    iterations: int


def bench_seed(seed: int | None = None) -> int:
    """Explicit seed, else FUZZKIT_SEED from the environment, else default."""
    if seed is not None:
        return seed
    return int(os.environ.get("FUZZKIT_SEED", DEFAULT_SEED))


def make_inputs(fis: FuzzySystem, count: int, seed: int) -> list[dict]:
    """Deterministic uniform samples over every input domain."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append({name: rng.uniform(var.domain.low, var.domain.high)
                    for name, var in fis.inputs.items()})
    return out


def _measure(fn, args: list, iterations: int) -> tuple[list[float], int]:
    """Per-inference latencies (ns, one sample per batch), total calls run."""
    n_args = len(args)
    for a in args[:8]:
        fn(a)
    batch = 1
    while True:
        t0 = time.perf_counter_ns()
        for k in range(batch):
            fn(args[k % n_args])
        dt = time.perf_counter_ns() - t0
        if dt >= _MIN_BATCH_NS or batch >= 1 << 20:
            break
        batch *= 2
    samples = []
    done = 0
    idx = 0
    while done < iterations:
        t0 = time.perf_counter_ns()
        for k in range(batch):
            fn(args[(idx + k) % n_args])
        dt = time.perf_counter_ns() - t0
        idx = (idx + batch) % n_args
        samples.append(dt / batch)
        done += batch
    return samples, done


def _p99(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[98]


def _interp_fn(case: str, fis: FuzzySystem):
    if case == "denoise":
        return lambda d: denoise_detector(fis, d)
    return lambda d: infer(fis, d)


def _codegen_fn(case: str, fis: FuzzySystem):
    order = list(fis.inputs)
    if case == "denoise":
        # Generated antecedents + the detector's own compiled readout (256
        # levels, its default).
        acts_fn = codegen.load(codegen.generate(fis, antecedents_only=True))
        return lambda d, _fn=acts_fn, _order=order, _read=_readout(13, 13): _read(
            _fn(*[d[k] for k in _order]), 256)
    fn = codegen.load(codegen.generate(fis))
    return lambda d, _fn=fn, _order=order: _fn(*[d[k] for k in _order])


def run_case(case: str, iterations: int = DEFAULT_ITERATIONS,
             seed: int | None = None, with_codegen: bool = True) -> list[BenchResult]:
    """Benchmark one corpus case; returns interp and codegen rows (interp
    only for interval type-2, which ``codegen.generate`` does not support)."""
    fis = load_system(case)
    args = make_inputs(fis, _INPUT_POOL, bench_seed(seed))
    results = []
    variants = [("interp", _interp_fn(case, fis))]
    if with_codegen and fis.kind is not SystemKind.MAMDANI_IT2:
        variants.append(("codegen", _codegen_fn(case, fis)))
    for impl, fn in variants:
        if iterations <= 0:
            continue
        samples, done = _measure(fn, args, iterations)
        results.append(BenchResult(case=case, impl=impl,
                                   median_ns=statistics.median(samples),
                                   p99_ns=_p99(samples), iterations=done))
    return results


def run(which: str = "all", iterations: int = DEFAULT_ITERATIONS,
        seed: int | None = None, with_codegen: bool = True) -> list[BenchResult]:
    cases = sorted(CASES) if which == "all" else [which]
    for case in cases:
        if case not in CASES:
            raise KeyError(f"unknown bench case {case!r}; have {sorted(CASES)}")
    results = []
    for case in cases:
        results.extend(run_case(case, iterations, seed, with_codegen))
    return results


CSV_HEADER = "case,impl,median_ns,p99_ns,iterations"


def to_csv(results: list[BenchResult]) -> str:
    lines = [CSV_HEADER]
    lines += [f"{r.case},{r.impl},{r.median_ns:.0f},{r.p99_ns:.0f},{r.iterations}"
              for r in results]
    return "\n".join(lines) + "\n"


def format_table(results: list[BenchResult]) -> str:
    header = f"{'case':<10} {'impl':<8} {'median':>12} {'p99':>12} {'iters':>8}"
    lines = [header, "-" * len(header)]
    for r in results:
        lines.append(f"{r.case:<10} {r.impl:<8} {r.median_ns / 1000:>10.2f}us "
                     f"{r.p99_ns / 1000:>10.2f}us {r.iterations:>8}")
    return "\n".join(lines)
