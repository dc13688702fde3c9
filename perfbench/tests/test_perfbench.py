"""The benchmark's own tests: every workload runs briefly with its checks
passing, and every reference check rejects a deliberately wrong output.

    python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

assert run.use_checkout_sources()

import oracles  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _quiet(*_):
    pass


def test_spec_matches_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_runs_with_checks_passing(name, trace):
    result = run.run(name, seed=5, seconds=0.05, trace=trace, log=_quiet)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    want = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(want)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == want[key]
        assert np.isfinite(metric["value"])


def test_same_seed_same_inputs():
    for name in workloads.NAMES[:-1]:
        a, b = workloads.make(name, 7), workloads.make(name, 7)
        assert a.first_rows(50) == b.first_rows(50)
        assert a.first_rows(50) != workloads.make(name, 8).first_rows(50)


def test_denoise_rows_never_repeat_within_a_run():
    wl = workloads.make("denoise-image", 3)
    chunks = wl.chunks()
    rows = [tuple(d.values()) for _ in range(5) for d in next(chunks)]
    assert len(rows) == len(set(rows)) > 15000


def test_empty_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "mamdani-robot", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


# ---------------------------------------------------------------------------
# Each reference check must be able to fail.

def _chunk(name, seed=11):
    wl = workloads.make(name, seed)
    wl.setup(wl.prepare_setup(0))
    args = next(wl.chunks())
    return wl, args, [wl.run(a) for a in args]


def test_robot_check_rejects_perturbed_output():
    rows = [(1.3, 2.2, -40.0, 6.5), (0.2, 3.9, 170.0, 1.0)]
    want = oracles.robot_crisp(rows)
    assert oracles.check_robot(rows, want) == []
    for name in want:
        bad = {k: v.copy() for k, v in want.items()}
        bad[name][1] += 1e-8
        assert oracles.check_robot(rows, bad)
    bad = {k: v.copy() for k, v in want.items()}
    bad["vel"][0] = 1.5  # outside the output domain
    assert oracles.check_robot(rows, bad)


def test_robot_generated_check_rejects_mismatch():
    wl, args, outs = _chunk("mamdani-robot-gen")
    assert wl.check(args, outs) == []
    bad = list(outs)
    bad[0] = (bad[0][0] + 1e-11, bad[0][1])  # below the reference tolerance
    assert wl.check(args, bad)


def test_denoise_check_rejects_perturbed_output():
    for name in ("denoise-image", "denoise-image-gen"):
        wl, args, outs = _chunk(name)
        assert wl.check(args, outs) == []
        bad = list(outs)
        bad[17] += 1e-11
        assert wl.check(args, bad)
    diffs = [(0.0,) * 8]
    assert oracles.check_denoise(diffs, [0.0]) == []
    assert oracles.check_denoise(diffs, [256.0])


def test_it2_check_rejects_perturbed_output():
    wl, args, outs = _chunk("it2-tipper")
    rows = [(d["service"], d["food"]) for d in args]
    parts = dict(firing=[r.firing_intervals for r in outs],
                 lower=[r.aggregated["tip"].lower.mus for r in outs],
                 upper=[r.aggregated["tip"].upper.mus for r in outs],
                 intervals=[r.intervals["tip"] for r in outs],
                 crisp=[r.crisp["tip"] for r in outs])
    assert oracles.check_it2(rows, **parts) == []
    for key in parts:
        bad = {k: np.array(v, dtype=float) for k, v in parts.items()}
        bad[key][4] += 1e-9  # row 4 is among the rows scanned exhaustively
        assert oracles.check_it2(rows, **bad), key


def test_switch_point_scan_matches_brute_force():
    rng = np.random.default_rng(3)
    xs = np.linspace(0.0, 5.0, 6)
    upper = rng.random((4, 6))
    lower = upper * rng.random((4, 6))
    got = oracles.switch_point_scan(xs, lower, upper)
    for row, lo, hi in zip(got, lower, upper):
        means = []
        for mask in range(1 << 6):
            theta = np.where([(mask >> i) & 1 for i in range(6)], hi, lo)
            means.append((theta * xs).sum() / theta.sum())
        assert row[0] == pytest.approx(min(means), abs=1e-12)
        assert row[1] == pytest.approx(max(means), abs=1e-12)


def test_cold_load_check_rejects_perturbed_output(monkeypatch):
    wl, args, outs = _chunk("cold-load")
    assert wl.check(args, outs) == []
    loaded = {f: ld for (f, _, _), ld in zip(args[0], outs[0])}

    def rejected(word):
        wl.checked = 0  # the next cycle checked also round-trips
        return any(word in p for p in wl.check(args, outs))

    for f, output, word in (("tipper.fis", "tip", "tipper"),
                            ("robot.fcl", "steer", "robot steer"),
                            ("tipper_it2.fzl", "tip", "it2")):
        loaded[f].first.crisp[output] += 1e-5
        assert rejected(word), f
        loaded[f].first.crisp[output] -= 1e-5

    fn = loaded["denoise.fzl"].fn
    loaded["denoise.fzl"].fn = lambda *a: fn(*a) + 1e-11
    assert rejected("generated")
    loaded["denoise.fzl"].fn = fn

    tipper = loaded["tipper.fzl"].fis
    real = workloads.format_system
    monkeypatch.setattr(workloads, "format_system", lambda fis: real(tipper))
    assert rejected("format_system")
    monkeypatch.setattr(workloads, "format_system", real)
    assert not rejected("")
