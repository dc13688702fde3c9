"""Command-line interface: subcommands, formats, and exit codes."""

import json
import random
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import helpers
from fuzzkit import corpus
from fuzzkit.cli import main
from fuzzkit.engine import infer
from fuzzkit.interop import parse_fcl


@pytest.fixture()
def tipper_path(tmp_path):
    p = tmp_path / "tipper.fzl"
    p.write_text(corpus.load_text("tipper.fzl"))
    return str(p)


@pytest.fixture()
def denoise_path(tmp_path):
    p = tmp_path / "denoise.fzl"
    p.write_text(corpus.load_text("denoise.fzl"))
    return str(p)


# ---------------------------------------------------------------------------
# eval

def test_eval_plain(tipper_path, capsys):
    assert main(["eval", tipper_path, "service=5", "food=5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tip = ")
    assert abs(float(out.split("=")[1]) - 15.0) < 0.2


def test_eval_json(tipper_path, capsys):
    assert main(["eval", tipper_path, "service=5", "food=5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    want = infer(corpus.load_system("tipper"), {"service": 5.0, "food": 5.0})
    assert payload["crisp"]["tip"] == want.crisp["tip"]
    assert payload["degenerate"] == []
    assert payload["firing"] == list(want.firing)


def test_eval_firing_lines(tipper_path, capsys):
    assert main(["eval", tipper_path, "service=5", "food=5", "--firing"]) == 0
    out = capsys.readouterr().out
    assert "# rule 1:" in out and "# rule 3:" in out


def test_eval_type1_output_is_unchanged(tipper_path, capsys):
    # Type-1 output, byte for byte: no interval keys, one value a rule.
    assert main(["eval", tipper_path, "service=5", "food=5", "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"crisp": {"tip": 15.000000000000039}, "degenerate": [], '
        '"firing": [0.0038659201394728076, 1.0, 0.0038659201394728076]}\n')
    assert main(["eval", tipper_path, "service=5", "food=5", "--firing"]) == 0
    assert capsys.readouterr().out == ("tip = 15.0\n# rule 1: 0.00386592\n"
                                       "# rule 2: 1.0\n# rule 3: 0.00386592\n")


@pytest.fixture()
def tipper_it2_path(tmp_path):
    p = tmp_path / "tipper_it2.fzl"
    p.write_text(corpus.load_text("tipper_it2.fzl"))
    return str(p)


def test_eval_it2_firing_prints_intervals(tipper_it2_path, capsys):
    assert main(["eval", tipper_it2_path, "service=8", "food=7", "--firing"]) == 0
    lines = capsys.readouterr().out.splitlines()
    want = infer(corpus.load_system("tipper_it2"), {"service": 8.0, "food": 7.0})
    assert lines[0] == f"tip = {want.crisp['tip']:.6g}" == "tip = 22.0318"
    assert lines[1:] == [f"# rule {i}: [{lo:.6g}, {hi:.6g}]"
                         for i, (lo, hi) in enumerate(want.firing_intervals, 1)]
    assert lines[3] == "# rule 3: [0.249352, 0.539408]"


def test_eval_it2_json_has_intervals(tipper_it2_path, capsys):
    assert main(["eval", tipper_it2_path, "service=8", "food=7", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    want = infer(corpus.load_system("tipper_it2"), {"service": 8.0, "food": 7.0})
    assert payload["crisp"] == want.crisp
    assert payload["firing"] is None
    assert payload["degenerate"] == []
    assert payload["intervals"] == {"tip": list(want.intervals["tip"])}
    assert payload["firing_intervals"] == [list(p) for p in want.firing_intervals]


def test_eval_missing_input_exits_2(tipper_path, capsys):
    assert main(["eval", tipper_path, "service=5"]) == 2
    assert "missing input: food" in capsys.readouterr().err


def test_eval_bad_assignment_exits_2(tipper_path, capsys):
    assert main(["eval", tipper_path, "service=5", "food"]) == 2
    assert "name=value" in capsys.readouterr().err


@pytest.fixture()
def robot_path(tmp_path):
    p = tmp_path / "robot.fcl"
    p.write_text(corpus.load_text("robot.fcl"))
    return str(p)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_eval_non_finite_input_exits_2(robot_path, raw, capsys):
    args = ["eval", robot_path, "front=1", "left=1", f"heading={raw}", "goal=3", "--json"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'heading'" in captured.err and "non-finite" in captured.err


def test_eval_json_is_strict_json(robot_path, capsys):
    def refuse(token):
        raise ValueError(f"not a JSON value: {token}")

    args = ["eval", robot_path, "front=1", "left=1", "heading=-40", "goal=3", "--json"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert len(payload["firing"]) == len(corpus.load_system("robot").rules)


def test_eval_unknown_file_exits_1(capsys):
    assert main(["eval", "/nonexistent/x.fzl", "a=1"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_eval_unknown_extension_exits_1(tmp_path, capsys):
    p = tmp_path / "model.xyz"
    p.write_text("whatever")
    assert main(["eval", str(p), "a=1"]) == 1
    assert "format" in capsys.readouterr().err


def test_eval_parse_error_exits_1(tmp_path, capsys):
    p = tmp_path / "broken.fzl"
    p.write_text("fis = @mamfis function f(x)::y\n    x == t --> y == u\nend")
    assert main(["eval", str(p), "x=1"]) == 1
    assert "no definition" in capsys.readouterr().err


def test_eval_eq1_pipeline(denoise_path, capsys):
    args = [f"x{i}=0" for i in range(1, 9)]
    assert main(["eval", denoise_path, *args, "--pipeline", "eq1"]) == 0
    assert float(capsys.readouterr().out.split("=")[1]) == 0.0
    args = [f"x{i}=255" for i in range(1, 9)]
    assert main(["eval", denoise_path, *args, "--pipeline", "eq1",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["crisp"]["y"] == 255.0


def test_eval_eq1_gray_levels(denoise_path, capsys):
    args = [f"x{i}=255" for i in range(1, 9)]
    assert main(["eval", denoise_path, *args, "--pipeline", "eq1",
                 "--gray-levels", "16"]) == 0
    assert float(capsys.readouterr().out.split("=")[1]) == 15.0


# ---------------------------------------------------------------------------
# convert

def test_convert_fcl_to_dsl(tmp_path, capsys):
    src = tmp_path / "tipper.fcl"
    src.write_text(corpus.load_text("tipper.fcl"))
    out = tmp_path / "tipper.fzl"
    assert main(["convert", str(src), str(out)]) == 0
    from fuzzkit.dsl import parse_system
    converted = parse_system(out.read_text())
    original = corpus.load_system("tipper")
    for s in (0.0, 2.5, 5.0, 7.5, 10.0):
        for f in (0.0, 5.0, 10.0):
            inputs = {"service": s, "food": f}
            assert infer(converted, inputs).crisp["tip"] == \
                pytest.approx(infer(original, inputs).crisp["tip"], abs=1e-6)


def test_convert_is_idempotent(tipper_path, tmp_path):
    once = tmp_path / "once.fzl"
    twice = tmp_path / "twice.fzl"
    assert main(["convert", tipper_path, str(once)]) == 0
    assert main(["convert", str(once), str(twice)]) == 0
    assert once.read_text() == twice.read_text()


def test_convert_reports_interop_warnings(tmp_path, capsys):
    fis = tmp_path / "m.fis"
    fis.write_text(corpus.load_text("tipper.fis").replace(
        "AggMethod='max'", "AggMethod='sum'"))
    out = tmp_path / "m.fzl"
    assert main(["convert", str(fis), str(out)]) == 0
    assert "bounded sum" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# plot

def test_plot_ascii(tipper_path, capsys):
    assert main(["plot", tipper_path, "--ascii", "--width", "60",
                 "--height", "12"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    chart = lines[:12]
    assert chart[0].startswith("service")
    assert all(len(l) == 60 for l in chart)
    starts = [l.split()[0] for l in lines if l.strip() and not l.startswith(("|", "+"))]
    assert "food" in starts and "tip" in starts
    assert "service == good --> tip == average" in out  # rules echoed below


def test_plot_svg_file(tipper_path, tmp_path, capsys):
    out = tmp_path / "tipper.svg"
    assert main(["plot", tipper_path, str(out)]) == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")


def test_plot_requires_destination(tipper_path, capsys):
    assert main(["plot", tipper_path]) == 1
    assert "output file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# codegen

def test_codegen_stdout(tipper_path, capsys):
    assert main(["codegen", tipper_path, "--stdout"]) == 0
    src = capsys.readouterr().out
    assert "def tipper(service, food):" in src
    ns: dict = {}
    exec(src, ns)
    assert abs(ns["tipper"](5.0, 5.0) - 15.0) < 0.2


def test_codegen_file_and_name(tipper_path, tmp_path):
    out = tmp_path / "gen.py"
    assert main(["codegen", tipper_path, str(out), "--name", "decide"]) == 0
    assert "def decide(service, food):" in out.read_text()


def test_codegen_helpers_flag(tipper_path, capsys):
    assert main(["codegen", tipper_path, "--stdout", "--helpers"]) == 0
    assert "def _mf0(" in capsys.readouterr().out


def test_codegen_it2_exits_3(tmp_path, capsys):
    import random

    import helpers
    from fuzzkit.dsl import format_system
    p = tmp_path / "band.fzl"
    p.write_text(format_system(helpers.random_it2_system(random.Random(9))))
    assert main(["codegen", str(p), "--stdout"]) == 3
    assert "interval type-2" in capsys.readouterr().err


def test_codegen_files_run_standalone_side_by_side(robot_path, tmp_path):
    # Two generated files concatenated into one module run in an isolated
    # interpreter (`python -I`: no fuzzkit on the path) and equal infer with
    # ==: the text needs nothing but math and bisect, and the module-level
    # tables of the two functions do not collide.
    fcl = tmp_path / "tipper.fcl"
    fcl.write_text(corpus.load_text("tipper.fcl"))
    tipper_py, steer_py = tmp_path / "tipper_gen.py", tmp_path / "steer_gen.py"
    assert main(["codegen", str(fcl), str(tipper_py)]) == 0
    assert main(["codegen", robot_path, str(steer_py), "--name", "steer"]) == 0
    (tmp_path / "both.py").write_text(tipper_py.read_text() + "\n\n" + steer_py.read_text())
    rng = random.Random(31)
    cases = {}
    for fn, path in (("tipper", fcl), ("steer", robot_path)):
        fis = parse_fcl(open(path).read())[0]
        rows = [helpers.random_inputs(rng, fis, pad=0.1) for _ in range(200)]
        want = [tuple(infer(fis, row).crisp.values()) for row in rows]
        cases[fn] = ([[row[n].hex() for n in fis.inputs] for row in rows], want)
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import both\n"
        "assert 'fuzzkit' not in sys.modules\n"
        "out = {}\n"
        "for fn, rows in json.load(sys.stdin).items():\n"
        "    got = [getattr(both, fn)(*map(float.fromhex, row)) for row in rows]\n"
        "    out[fn] = [[v.hex() for v in (g if isinstance(g, tuple) else (g,))]"
        " for g in got]\n"
        "print(json.dumps(out))\n")
    done = subprocess.run([sys.executable, "-I", "-c", script, str(tmp_path)],
                          input=json.dumps({fn: rows for fn, (rows, _) in cases.items()}),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    for fn, (_, want) in cases.items():
        assert [tuple(map(float.fromhex, g)) for g in got[fn]] == want, fn


def test_codegen_requires_destination(tipper_path, capsys):
    assert main(["codegen", tipper_path]) == 1
    assert "output file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench

def test_bench_zero_iterations_prints_header_only(capsys):
    assert main(["bench", "tipper", "--iterations", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].split() == ["case", "impl", "median", "p99", "iters"]
    assert len(out) == 2  # header + rule


def test_bench_csv(capsys):
    assert main(["bench", "tipper", "--iterations", "20", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "case,impl,median_ns,p99_ns,iterations"
    rows = [l.split(",") for l in lines[1:]]
    assert {r[0] for r in rows} == {"tipper"}
    assert {r[1] for r in rows} == {"interp", "codegen"}
    assert all(int(r[2]) > 0 for r in rows)


def test_bench_no_codegen(capsys):
    assert main(["bench", "tipper", "--iterations", "20", "--csv",
                 "--no-codegen"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert {l.split(",")[1] for l in lines[1:]} == {"interp"}
