"""Benchmark harness plumbing (timing numbers themselves are not asserted)."""

import pathlib
import sys

import pytest

from fuzzkit import SystemKind, bench, corpus, denoise_detector
from fuzzkit.bench import (CSV_HEADER, BenchResult, bench_seed, format_table,
                           make_inputs, run_case, to_csv)

PERFBENCH_MODEL = (pathlib.Path(__file__).resolve().parents[1]
                   / "perfbench" / "models" / "tipper_it2.fzl")


def test_make_inputs_is_seed_deterministic():
    fis = corpus.load_system("tipper")
    a = make_inputs(fis, 50, seed=7)
    b = make_inputs(fis, 50, seed=7)
    c = make_inputs(fis, 50, seed=8)
    assert a == b
    assert a != c
    assert len(a) == 50
    for row in a:
        assert set(row) == {"service", "food"}
        for name, v in row.items():
            dom = fis.inputs[name].domain
            assert dom.low <= v <= dom.high


def test_bench_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("FUZZKIT_SEED", "1234")
    assert bench_seed(None) == 1234
    assert bench_seed(9) == 9
    monkeypatch.delenv("FUZZKIT_SEED")
    assert isinstance(bench_seed(None), int)


def test_csv_shape():
    assert CSV_HEADER == "case,impl,median_ns,p99_ns,iterations"
    rows = [BenchResult("tipper", "interp", 1500, 2000, 64)]
    csv = to_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "tipper,interp,1500,2000,64"


def test_format_table_alignment():
    rows = [BenchResult("tipper", "interp", 1500, 2000, 64),
            BenchResult("tipper", "codegen", 900, 1100, 128)]
    table = format_table(rows)
    lines = table.strip().splitlines()
    assert lines[0].split() == ["case", "impl", "median", "p99", "iters"]
    assert set(lines[1]) == {"-"}
    assert len(lines) == 4


def test_run_case_smoke():
    results = run_case("tipper", iterations=30)
    assert [r.impl for r in results] == ["interp", "codegen"]
    for r in results:
        assert r.case == "tipper"
        assert r.median_ns > 0
        assert r.p99_ns >= r.median_ns
        assert r.iterations >= 30


def test_run_case_without_codegen():
    results = run_case("denoise", iterations=10, with_codegen=False)
    assert [r.impl for r in results] == ["interp"]


def _readout_codes(call):
    """Code objects of the compiled readouts that ``call`` runs."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == "<readout>":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return codes


def test_denoise_codegen_row_runs_the_detectors_readout():
    # A8 compares generated antecedents plus the detector's own readout
    # against the detector: same values, same compiled readout.
    fis = corpus.load_system("denoise")
    generated = bench._codegen_fn("denoise", fis)
    rows = make_inputs(fis, 200, seed=24)
    for row in rows:
        got, want = generated(row), denoise_detector(fis, row)
        assert (repr(got), type(got)) == (repr(want), type(want))
    codes = _readout_codes(lambda: generated(rows[0]))
    assert len(codes) == 1
    assert _readout_codes(lambda: denoise_detector(fis, rows[0])) == codes


def test_run_case_it2_has_interpreter_row_only():
    results = run_case("tipper_it2", iterations=10)
    assert [(r.case, r.impl) for r in results] == [("tipper_it2", "interp")]
    assert results[0].median_ns > 0


def test_corpus_it2_tipper_matches_benchmark_model():
    text = corpus.load_text("tipper_it2.fzl")
    with open(PERFBENCH_MODEL, encoding="utf-8") as fh:
        assert fh.read() == text
    fis = corpus.load_system("tipper_it2")
    assert fis.kind is SystemKind.MAMDANI_IT2
    assert (len(fis.inputs), len(fis.outputs), len(fis.rules)) == (2, 1, 3)


def test_run_case_rejects_unknown():
    with pytest.raises(KeyError):
        run_case("nope", iterations=1)

