"""What the library holds in memory: the modules ``import fuzzkit`` loads,
and no reference cycles left behind by any entry point, so everything a
call creates is freed by reference counting when its owner is dropped."""

import gc
import math
import subprocess
import sys
import weakref

import numpy as np
import pytest

from fuzzkit import (EvaluationError, Gaussian, MissingInputError, ParseError,
                     Relation, codegen, corpus, denoise_detector, eval_proposition,
                     fire_rules, fire_rules_interval, format_system,
                     grouped_max_output, infer, km_reduce, parse_fcl, parse_fis,
                     parse_system)
from fuzzkit.engine import defuzzify
from fuzzkit.norms import Defuzzifier
from fuzzkit.viz import (plot_firing, plot_output, plot_system, plot_variable,
                         render_ascii, render_svg, render_system_svg)

_HEAVY = ("ssl", "socket", "http", "email", "urllib.request", "xml")


def test_import_loads_no_network_mail_or_xml_modules():
    probe = ("import sys, numpy; before = set(sys.modules); import fuzzkit; "
             "print('\\n'.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True).stdout.split()
    assert "fuzzkit" in out
    heavy = [m for m in out
             if any(m == h or m.startswith(h + ".") for h in _HEAVY)]
    assert heavy == []


_SUGENO = """fis = @sugfis function s(x)::y
    x := begin
        domain = 0:10
        lo = TriangularMF(0.0, 0.0, 10.0)
        hi = TriangularMF(0.0, 10.0, 10.0)
    end
    y := begin
        domain = 0:30
        a = 5.0
        b = 2.0 * x + 1.0
    end
    x == lo --> y == a
    x == hi --> y == b
end
"""

_TIPPER = {"service": 3.0, "food": 7.0}


def _fresh(case: str):
    """A newly parsed corpus system, sharing nothing compiled with others."""
    filename = corpus.CASES[case]
    text = corpus.load_text(filename)
    return parse_fcl(text)[0] if filename.endswith(".fcl") else parse_system(text)


def _denoise_inputs():
    return {name: 10.0 * i for i, name in enumerate(_fresh("denoise").inputs)}


def _raises(error, call, *args):
    # Not pytest.raises: its ExceptionInfo keeps the traceback, which holds
    # the frame that holds the ExceptionInfo, a cycle of the test's own.
    try:
        call(*args)
    except error:
        return
    raise AssertionError(f"{call.__name__} did not raise {error.__name__}")


def _infer_reading_aggregated(case, inputs):
    result = infer(_fresh(case), inputs)
    return result.crisp, dict(result.aggregated)


def _generate_and_load(**options):
    fis = _fresh("tipper")
    fn = codegen.load(codegen.generate(fis, **options))
    return fn(3.0, 7.0)


def _render(case):
    fis = _fresh(case)
    render_system_svg(plot_system(fis))
    chart = plot_variable(next(iter(fis.inputs.values())))
    render_svg(chart)
    render_ascii(chart, 40, 12)
    if case == "tipper":
        render_svg(plot_firing(fis, _TIPPER))
        render_svg(plot_output(infer(fis, _TIPPER), "tip"))


def _warm_then_missing():
    # The compiled firing's own KeyError path, after a successful call.
    fis = _fresh("robot")
    fire_rules(fis, {"front": 1.0, "left": 2.0, "heading": 30.0, "goal": 5.0})
    _raises(MissingInputError, fire_rules, fis, {"front": 1.0})


_XS = np.linspace(0.0, 10.0, 101)

ENTRY_POINTS = {
    "parse_system": lambda: parse_system(corpus.load_text("tipper.fzl")),
    "parse_fcl": lambda: parse_fcl(corpus.load_text("robot.fcl")),
    "parse_fis": lambda: parse_fis(corpus.load_text("tipper.fis")),
    "infer-mamdani": lambda: _infer_reading_aggregated("tipper", _TIPPER),
    "infer-mamdani-robot": lambda: _infer_reading_aggregated(
        "robot", {"front": 1.0, "left": 2.0, "heading": 30.0, "goal": 5.0}),
    "infer-sugeno": lambda: infer(parse_system(_SUGENO), {"x": 4.0}).crisp,
    "infer-it2": lambda: _infer_reading_aggregated("tipper_it2", _TIPPER),
    "fire_rules": lambda: fire_rules(_fresh("tipper"), _TIPPER),
    "fire_rules_interval": lambda: fire_rules_interval(_fresh("tipper_it2"), _TIPPER),
    "denoise_detector": lambda: denoise_detector(_fresh("denoise"), _denoise_inputs()),
    "grouped_max_output": lambda: grouped_max_output(
        _fresh("denoise"), _denoise_inputs(), 256, list(range(13)), list(range(13, 26))),
    "eval_proposition": lambda: eval_proposition(
        Relation("service", "good"), _fresh("tipper"), _TIPPER),
    "mf-first-call": lambda: Gaussian(5.0, 1.5)(4.0),
    "generate+load": _generate_and_load,
    "generate+load-helpers": lambda: _generate_and_load(inline_mfs=False),
    "generate+load-antecedents": lambda: _generate_and_load(antecedents_only=True),
    "km_reduce": lambda: km_reduce(_XS, np.exp(-(_XS - 5.0) ** 2),
                                   np.exp(-(_XS - 5.0) ** 2 / 4.0)),
    "defuzzify": lambda: [defuzzify(kind, _XS, np.exp(-(_XS - 5.0) ** 2))
                          for kind in Defuzzifier],
    "format_system": lambda: format_system(_fresh("tipper_it2")),
    "viz": lambda: _render("tipper"),
    "viz-it2": lambda: _render("tipper_it2"),
    "missing-input": lambda: _raises(MissingInputError, infer, _fresh("tipper"),
                                     {"service": 3.0}),
    "missing-input-it2": lambda: _raises(MissingInputError, fire_rules_interval,
                                         _fresh("tipper_it2"), {"food": 3.0}),
    "missing-input-compiled": _warm_then_missing,
    "evaluation-error": lambda: _raises(EvaluationError, fire_rules,
                                        _fresh("tipper_it2"), _TIPPER),
    "evaluation-error-proposition": lambda: _raises(
        EvaluationError, eval_proposition, Relation("service", "nope"),
        _fresh("tipper"), _TIPPER),
    "parse-error": lambda: _raises(ParseError, parse_system,
                                   corpus.load_text("tipper.fzl").replace("end", "ende", 1)),
    "parse-error-fcl": lambda: _raises(ParseError, parse_fcl, "FUNCTION_BLOCK f\nVAR_INPUT"),
    "parse-error-fis": lambda: _raises(ParseError, parse_fis, "[System]\nType='x'\n"),
}


def _cyclic_garbage(call) -> list:
    """Objects that ``call`` left for the cycle collector: unreachable once it
    returned, yet not freed by reference counting."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
        return [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_leaves_no_cyclic_garbage(name):
    call = ENTRY_POINTS[name]
    call()  # first use in the process: imports, enum and process-wide caches
    assert _cyclic_garbage(call) == []


def test_a_dropped_system_frees_its_compiled_functions():
    fis = _fresh("robot")
    infer(fis, {"front": 1.0, "left": 2.0, "heading": 30.0, "goal": 5.0})
    gc.disable()
    try:
        fire = weakref.ref(fis._curve_cache["lowering"].fire)
        outputs = weakref.ref(fis._curve_cache["lowering"].outputs)
        del fis
        assert fire() is None and outputs() is None
    finally:
        gc.enable()


def test_a_dropped_generated_function_is_freed():
    gc.disable()
    try:
        fn = codegen.load(codegen.generate(_fresh("tipper")))
        assert math.isfinite(fn(3.0, 7.0))
        ref = weakref.ref(fn)
        del fn
        assert ref() is None
    finally:
        gc.enable()
