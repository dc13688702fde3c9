"""Fuzzy Control Language reader: corpus files, method tables, diagnostics."""

import random

import pytest

from fuzzkit import (And, Defuzzifier, Implication, Not, Or, ParseError,
                     PiecewiseLinear, Relation, SNorm, Singleton,
                     SugenoConstant, SystemKind, TNorm, corpus)
from fuzzkit.engine import infer
from fuzzkit.interop import parse_fcl


TIPPER_FCL = corpus.load_text("tipper.fcl")


def _block(rule_lines, *, method="COG", default=None, operators=None,
           extra_term=""):
    ops = operators or "AND : MIN; OR : MAX; ACT : MIN; ACCU : MAX;"
    default_line = f"DEFAULT := {default};" if default is not None else ""
    rules = "\n".join(f"RULE {i} : {r};" for i, r in enumerate(rule_lines, 1))
    return f"""
FUNCTION_BLOCK demo
VAR_INPUT
    x : REAL;
END_VAR
VAR_OUTPUT
    y : REAL;
END_VAR
FUZZIFY x
    TERM lo := (0.0, 1.0) (10.0, 0.0);
    TERM hi := (0.0, 0.0) (10.0, 1.0);
    {extra_term}
    RANGE := (0.0 .. 10.0);
END_FUZZIFY
DEFUZZIFY y
    TERM small := (0.0, 0.0) (5.0, 1.0) (10.0, 0.0);
    TERM large := (10.0, 0.0) (15.0, 1.0) (20.0, 0.0);
    METHOD : {method};
    {default_line}
    RANGE := (0.0 .. 20.0);
END_DEFUZZIFY
RULEBLOCK rules
    {ops}
    {rules}
END_RULEBLOCK
END_FUNCTION_BLOCK
"""


# ---------------------------------------------------------------------------
# Corpus files

def test_tipper_fcl_shape():
    fis, diag = parse_fcl(TIPPER_FCL, origin="tipper.fcl")
    assert fis.name == "tipper"
    assert fis.kind is SystemKind.MAMDANI
    assert list(fis.inputs) == ["service", "food"]
    assert list(fis.outputs) == ["tip"]
    assert len(fis.rules) == 3
    assert diag.source_format == "fcl"
    assert diag.warnings == []
    assert isinstance(fis.inputs["service"].terms["poor"], PiecewiseLinear)


def test_tipper_fcl_tracks_dsl_variant():
    fcl, _ = parse_fcl(TIPPER_FCL)
    dsl = corpus.load_system("tipper")
    for s in range(0, 11, 2):
        for f in range(0, 11, 2):
            inputs = {"service": float(s), "food": float(f)}
            a = infer(fcl, inputs).crisp["tip"]
            b = infer(dsl, inputs).crisp["tip"]
            assert a == pytest.approx(b, abs=1e-6), (s, f)


def test_robot_fcl_shape():
    fis = corpus.load_system("robot")
    assert list(fis.inputs) == ["front", "left", "heading", "goal"]
    assert list(fis.outputs) == ["steer", "vel"]
    assert len(fis.outputs["steer"].terms) == 9
    assert len(fis.outputs["vel"].terms) == 9
    assert len(fis.rules) == 41
    # first 16 rules drive both outputs at once
    assert [rel.variable for rel in fis.rules[0].consequents] == ["steer", "vel"]
    assert fis.rules[16].consequents[0].variable == "steer"
    res = infer(fis, {"front": 0.2, "left": 1.0, "heading": -90.0, "goal": 5.0})
    assert -90.0 <= res.crisp["steer"] <= 90.0
    assert 0.0 <= res.crisp["vel"] <= 1.0


def test_robot_steers_away_from_near_wall():
    fis = corpus.load_system("robot")
    near = infer(fis, {"front": 0.1, "left": 0.5, "heading": 0.0, "goal": 5.0})
    far = infer(fis, {"front": 3.8, "left": 3.5, "heading": 0.0, "goal": 5.0})
    assert near.crisp["vel"] < far.crisp["vel"]
    assert near.crisp["steer"] > 10.0  # wall on the left: swing right


# ---------------------------------------------------------------------------
# Operator and method mappings

def test_operator_tables():
    ops = "AND : BDIF; OR : ASUM; ACT : PROD; ACCU : BSUM;"
    fis, diag = parse_fcl(_block(["IF x IS lo THEN y IS small"], operators=ops))
    s = fis.settings
    assert s.conjunction is TNorm.LUKASIEWICZ
    assert s.disjunction is SNorm.PROB_SUM
    assert s.implication is Implication.PROD
    assert s.aggregation is SNorm.BOUNDED_SUM
    assert diag.warnings == []


def test_accu_nsum_degrades_with_warning():
    ops = "AND : MIN; OR : MAX; ACT : MIN; ACCU : NSUM;"
    fis, diag = parse_fcl(_block(["IF x IS lo THEN y IS small"], operators=ops))
    assert fis.settings.aggregation is SNorm.PROB_SUM
    assert any("NSUM" in msg for _, msg in diag.warnings)


@pytest.mark.parametrize("method,expected", [
    ("COG", Defuzzifier.CENTROID),
    ("COA", Defuzzifier.BISECTOR),
    ("MOM", Defuzzifier.MEAN_OF_MAXIMA),
    ("LM", Defuzzifier.FIRST_OF_MAXIMA),
    ("RM", Defuzzifier.LAST_OF_MAXIMA),
])
def test_defuzzifier_methods(method, expected):
    fis, _ = parse_fcl(_block(["IF x IS lo THEN y IS small"], method=method))
    assert fis.settings.defuzzifier is expected


def test_missing_method_warns_and_defaults_to_cog():
    text = _block(["IF x IS lo THEN y IS small"]).replace("METHOD : COG;", "")
    fis, diag = parse_fcl(text)
    assert fis.settings.defuzzifier is Defuzzifier.CENTROID
    assert any("no METHOD" in msg for _, msg in diag.warnings)


def test_cogs_switches_to_sugeno():
    text = """
FUNCTION_BLOCK s
VAR_INPUT
    x : REAL;
END_VAR
VAR_OUTPUT
    y : REAL;
END_VAR
FUZZIFY x
    TERM lo := (0.0, 1.0) (10.0, 0.0);
    TERM hi := (0.0, 0.0) (10.0, 1.0);
    RANGE := (0.0 .. 10.0);
END_FUZZIFY
DEFUZZIFY y
    TERM small := 2.0;
    TERM large := 18.0;
    METHOD : COGS;
    RANGE := (0.0 .. 20.0);
END_DEFUZZIFY
RULEBLOCK rules
    RULE 1 : IF x IS lo THEN y IS small;
    RULE 2 : IF x IS hi THEN y IS large;
END_RULEBLOCK
END_FUNCTION_BLOCK
"""
    fis, _ = parse_fcl(text)
    assert fis.kind is SystemKind.SUGENO
    assert fis.outputs["y"].terms["small"] == SugenoConstant(2.0)
    res = infer(fis, {"x": 5.0})
    assert res.crisp["y"] == pytest.approx(10.0, abs=1e-12)


def test_cogs_rejects_point_list_terms():
    text = _block(["IF x IS lo THEN y IS small"], method="COGS")
    with pytest.raises(ParseError, match="single value"):
        parse_fcl(text)


# ---------------------------------------------------------------------------
# Rule syntax

def test_rule_weight_and_multiple_conclusions():
    text = """
FUNCTION_BLOCK m
VAR_INPUT
    x : REAL;
END_VAR
VAR_OUTPUT
    y : REAL;
    z : REAL;
END_VAR
FUZZIFY x
    TERM lo := (0.0, 1.0) (10.0, 0.0);
    RANGE := (0.0 .. 10.0);
END_FUZZIFY
DEFUZZIFY y
    TERM small := (0.0, 0.0) (5.0, 1.0) (10.0, 0.0);
    METHOD : COG;
    RANGE := (0.0 .. 10.0);
END_DEFUZZIFY
DEFUZZIFY z
    TERM low := (0.0, 0.0) (5.0, 1.0) (10.0, 0.0);
    METHOD : COG;
    RANGE := (0.0 .. 10.0);
END_DEFUZZIFY
RULEBLOCK rules
    RULE 1 : IF x IS lo THEN y IS small, z IS low WITH 0.5;
END_RULEBLOCK
END_FUNCTION_BLOCK
"""
    fis, _ = parse_fcl(text)
    rule = fis.rules[0]
    assert rule.weight == 0.5
    assert [(rel.variable, rel.term) for rel in rule.consequents] == \
        [("y", "small"), ("z", "low")]


def test_not_and_is_not_forms():
    rules = ["IF NOT (x IS lo) THEN y IS small",
             "IF x IS NOT hi THEN y IS large",
             "IF x IS lo AND x IS NOT hi OR x IS hi THEN y IS small"]
    fis, _ = parse_fcl(_block(rules))
    assert fis.rules[0].antecedent == Not(Relation("x", "lo"))
    assert fis.rules[1].antecedent == Not(Relation("x", "hi"))
    assert fis.rules[2].antecedent == Or(
        And(Relation("x", "lo"), Not(Relation("x", "hi"))),
        Relation("x", "hi"))


def test_singleton_input_term():
    fis, _ = parse_fcl(_block(
        ["IF x IS spike THEN y IS small", "IF x IS lo THEN y IS large"],
        extra_term="TERM spike := 4.0;"))
    assert fis.inputs["x"].terms["spike"] == Singleton(4.0)


def test_default_becomes_zero_fire_fallback():
    fis, _ = parse_fcl(_block(["IF x IS lo THEN y IS small"], default=17.5))
    assert fis.zero_fire_defaults == {"y": 17.5}
    # x=10 gives lo=0 -> nothing fires -> the declared default, not midpoint
    res = infer(fis, {"x": 10.0})
    assert res.crisp["y"] == 17.5
    assert res.degenerate == ("y",)


def test_range_inferred_from_points_with_warning():
    text = _block(["IF x IS lo THEN y IS small"]).replace(
        "    RANGE := (0.0 .. 10.0);\nEND_FUZZIFY", "END_FUZZIFY")
    fis, diag = parse_fcl(text)
    assert fis.inputs["x"].domain.low == 0.0
    assert fis.inputs["x"].domain.high == 10.0
    assert any("RANGE missing" in msg for _, msg in diag.warnings)


# ---------------------------------------------------------------------------
# Errors

def test_empty_ruleblock_is_rejected():
    with pytest.raises(ParseError, match="rule"):
        parse_fcl(_block([]))


def test_unknown_term_in_rule():
    with pytest.raises(ParseError, match="no term"):
        parse_fcl(_block(["IF x IS wat THEN y IS small"]))


def test_unsupported_operator_method():
    ops = "AND : FANCY; OR : MAX; ACT : MIN; ACCU : MAX;"
    with pytest.raises(ParseError, match="unsupported AND method"):
        parse_fcl(_block(["IF x IS lo THEN y IS small"], operators=ops))


def test_unterminated_block():
    with pytest.raises(ParseError):
        parse_fcl("FUNCTION_BLOCK f\nVAR_INPUT\n    x : REAL;\n")


def test_non_text_input_rejected():
    with pytest.raises(ParseError, match="text"):
        parse_fcl(b"FUNCTION_BLOCK f")


def test_missing_fuzzify_block():
    text = """
FUNCTION_BLOCK f
VAR_INPUT
    w : REAL;
    x : REAL;
END_VAR
VAR_OUTPUT
    y : REAL;
END_VAR
FUZZIFY w
    TERM lo := (0.0, 1.0) (10.0, 0.0);
    RANGE := (0.0 .. 10.0);
END_FUZZIFY
DEFUZZIFY y
    TERM small := (0.0, 0.0) (5.0, 1.0) (10.0, 0.0);
    METHOD : COG;
    RANGE := (0.0 .. 10.0);
END_DEFUZZIFY
RULEBLOCK r
    RULE 1 : IF w IS lo THEN y IS small;
END_RULEBLOCK
END_FUNCTION_BLOCK
"""
    with pytest.raises(ParseError, match="no FUZZIFY block"):
        parse_fcl(text)


def test_expect_failures_name_the_token_found():
    # One wording for both readers: what was found, then what was expected.
    with pytest.raises(ParseError) as kind:
        parse_fcl("FUNCTION_BLOCK x VAR_INPUT a REAL; END_VAR")
    assert str(kind.value) == "<fcl>:1:30: unexpected 'REAL' (expected ':')"
    assert kind.value.expected == "':'"
    with pytest.raises(ParseError) as keyword:
        parse_fcl(_block(["x IS lo THEN y IS small"]))
    assert str(keyword.value) == "<fcl>:24:14: unexpected 'x' (expected 'IF')"
    assert keyword.value.expected == "'IF'"


def test_end_of_input_follows_the_last_character():
    # The end of input sits right after the last character, also when that
    # character is a one-character symbol.
    with pytest.raises(ParseError) as exc:
        parse_fcl("FUNCTION_BLOCK f VAR_INPUT x :")
    assert str(exc.value) == "<fcl>:1:31: unexpected end of input (expected a type name)"
