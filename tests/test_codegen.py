"""Standalone source generation: equivalence with the interpreter and hygiene
of the emitted text."""

import keyword
import math
import random
import re

import pytest

import helpers
from fuzzkit import (And, Domain, FuzzySystem, Relation, Rule, SystemKind,
                     Triangular, Variable, corpus)
from fuzzkit.codegen import CodegenError, generate, load
from fuzzkit.engine import fire_rules, infer


@pytest.fixture(scope="module")
def tipper():
    return corpus.load_system("tipper")


# ---------------------------------------------------------------------------
# Numeric equivalence

def test_tipper_matches_interpreter(tipper):
    fn = load(generate(tipper))
    rng = random.Random(111)
    worst = 0.0
    for _ in range(1000):
        s, f = rng.uniform(0, 10), rng.uniform(0, 10)
        got = fn(s, f)
        want = infer(tipper, {"service": s, "food": f}).crisp["tip"]
        worst = max(worst, abs(got - want))
    assert worst <= 1e-12


def test_corpus_cases_match_interpreter():
    rng = random.Random(112)
    for case in ("denoise", "robot"):
        fis = corpus.load_system(case)
        fn = load(generate(fis))
        names = list(fis.inputs)
        for _ in range(200):
            inputs = helpers.random_inputs(rng, fis)
            got = fn(*(inputs[n] for n in names))
            res = infer(fis, inputs)
            want = tuple(res.crisp[o] for o in fis.outputs)
            if len(fis.outputs) == 1:
                want = want[0]
            if isinstance(got, tuple):
                assert all(abs(g - w) <= 1e-12 for g, w in zip(got, want))
            else:
                assert abs(got - want) <= 1e-12


def test_random_systems_match_interpreter():
    rng = random.Random(113)
    for i in range(20):
        fis = helpers.random_t1_system(rng, i)
        fn = load(generate(fis))
        names = list(fis.inputs)
        for _ in range(25):
            inputs = helpers.random_inputs(rng, fis)
            got = fn(*(inputs[n] for n in names))
            res = infer(fis, inputs)
            if len(fis.outputs) == 1:
                got = (got,)
            for g, name in zip(got, fis.outputs):
                assert abs(g - res.crisp[name]) <= 1e-12, (fis.name, inputs)


def test_antecedents_only_matches_fire_rules(tipper):
    fn = load(generate(tipper, antecedents_only=True))
    rng = random.Random(114)
    for _ in range(100):
        s, f = rng.uniform(0, 10), rng.uniform(0, 10)
        got = fn(s, f)
        want = tuple(fire_rules(tipper, {"service": s, "food": f}))
        assert got == want


def test_helper_variant_matches_inline(tipper):
    inline = load(generate(tipper))
    helper = load(generate(tipper, inline_mfs=False))
    rng = random.Random(115)
    for _ in range(200):
        s, f = rng.uniform(0, 10), rng.uniform(0, 10)
        assert inline(s, f) == helper(s, f)


# ---------------------------------------------------------------------------
# Emitted text

def _one_rule_system():
    a = Variable("a", Domain(0, 1), {"on": Triangular(0, 0.5, 1)})
    y = Variable("y", Domain(0, 10), {"mid": Triangular(0, 5, 10)})
    return FuzzySystem("one", SystemKind.MAMDANI, {"a": a}, {"y": y},
                       (Rule(Relation("a", "on"), (Relation("y", "mid"),)),))


def test_single_rule_source_is_short_and_standalone():
    src = generate(_one_rule_system())
    lines = src.splitlines()
    assert len(lines) < 120
    # no library references: the only import allowed is math
    for token in ("fuzzkit", "numpy", "np.", "import sys", "engine"):
        assert token not in src
    imports = [l for l in lines if l.startswith(("import", "from"))]
    assert all(re.match(r"from math import |import math", l) for l in imports)


def test_math_import_names_exactly_what_the_body_calls():
    rng = random.Random(118)
    seen = set()
    for i in range(40):
        fis = helpers.random_t1_system(rng, i)
        for inline in (True, False):
            lines = generate(fis, inline_mfs=inline).splitlines()
            imports = [l for l in lines if l.startswith("from math import ")]
            body = "\n".join(l for l in lines if l not in imports)
            called = sorted(n for n in ("exp", "log")
                            if re.search(rf"(?<![\w.]){n}\(", body))
            want = [f"from math import {', '.join(called)}"] if called else []
            assert imports == want, (fis.name, inline)
            if called:
                assert lines[0] == want[0]
            seen.add(tuple(called))
    assert seen == {(), ("exp",), ("exp", "log")}


def test_generated_source_compiles_cleanly(tipper):
    src = generate(tipper)
    compile(src, "<check>", "exec")  # no syntax error
    ns: dict = {}
    exec(compile(src, "<check>", "exec"), ns)
    assert math.isfinite(ns["tipper"](3.3, 7.7))


def test_generation_is_deterministic(tipper):
    assert generate(tipper) == generate(tipper)
    rng = random.Random(116)
    fis = helpers.random_t1_system(rng, 4)
    assert generate(fis) == generate(fis)


def test_docstring_names_signature(tipper):
    src = generate(tipper)
    assert '"""Map (service, food) to (tip)' in src


def test_helper_functions_dedupe_identical_shapes():
    a = Variable("a", Domain(0, 10), {"t": Triangular(0, 5, 10)})
    b = Variable("b", Domain(0, 10), {"t": Triangular(0, 5, 10)})
    y = Variable("y", Domain(0, 10), {"u": Triangular(0, 5, 10)})
    fis = FuzzySystem("dup", SystemKind.MAMDANI, {"a": a, "b": b}, {"y": y},
                      (Rule(And(Relation("a", "t"), Relation("b", "t")),
                            (Relation("y", "u"),)),))
    src = generate(fis, inline_mfs=False)
    assert src.count("def _mf") == 1


# ---------------------------------------------------------------------------
# Naming

def test_function_name_override(tipper):
    src = generate(tipper, function_name="my_fn")
    assert "def my_fn(service, food):" in src
    assert load(src)(5.0, 5.0) == load(generate(tipper))(5.0, 5.0)


def test_system_named_after_math_import_is_renamed(tipper):
    shadow = FuzzySystem("exp", tipper.kind, tipper.inputs, tipper.outputs,
                         tipper.rules, tipper.settings)
    src = generate(shadow)
    assert "def exp2(service, food):" in src
    assert load(src)(5.0, 5.0) == load(generate(tipper))(5.0, 5.0)


def test_hostile_names_are_sanitized(tipper):
    odd = FuzzySystem("2bad name-x", tipper.kind, tipper.inputs, tipper.outputs,
                      tipper.rules, tipper.settings)
    src = generate(odd)
    def_line = [l for l in src.splitlines() if l.startswith("def ")][0]
    name = def_line[4:def_line.index("(")]
    assert name.isidentifier() and not keyword.iskeyword(name)
    load(src)


def test_keyword_variable_names():
    v_in = Variable("lambda", Domain(0, 1), {"t": Triangular(0, 0.5, 1)})
    v_out = Variable("class", Domain(0, 1), {"u": Triangular(0, 0.5, 1)})
    fis = FuzzySystem("kw", SystemKind.MAMDANI,
                      {"lambda": v_in}, {"class": v_out},
                      (Rule(Relation("lambda", "t"), (Relation("class", "u"),)),))
    src = generate(fis)
    assert "def kw(lambda_):" in src
    got = load(src)(0.5)
    want = infer(fis, {"lambda": 0.5}).crisp["class"]
    assert abs(got - want) <= 1e-12


# ---------------------------------------------------------------------------
# Refusals

def test_it2_systems_are_refused():
    rng = random.Random(117)
    fis = helpers.random_it2_system(rng)
    with pytest.raises(CodegenError, match="interval type-2"):
        generate(fis)


def test_load_requires_exactly_one_function():
    with pytest.raises(CodegenError, match="found 0"):
        load("x = 1")
    with pytest.raises(CodegenError, match="found 2"):
        load("def a():\n    pass\n\n\ndef b():\n    pass")
