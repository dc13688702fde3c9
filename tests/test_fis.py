"""Matlab .fis reader: parameter order, rule encoding, method tables."""

import pytest

from fuzzkit import (And, Defuzzifier, Gaussian, Not, Or, ParseError, Relation,
                     SNorm, SugenoConstant, SugenoLinear, SystemKind,
                     Trapezoidal, Triangular, corpus)
from fuzzkit.engine import infer
from fuzzkit.interop import parse_fis


TIPPER_FIS = corpus.load_text("tipper.fis")


def _doc(*, type_="mamdani", methods="", rules="1 1, 1 (1) : 1",
         out_mfs="MF1='small':'trimf',[0 5 10]\nMF2='large':'trimf',[10 15 20]"):
    return f"""
[System]
Name='demo'
Type='{type_}'
{methods}

[Input1]
Name='a'
Range=[0 10]
MF1='lo':'trimf',[0 0 10]
MF2='hi':'trimf',[0 10 10]

[Input2]
Name='b'
Range=[0 10]
MF1='cold':'trimf',[0 0 10]
MF2='warm':'trimf',[0 10 10]

[Output1]
Name='y'
Range=[0 20]
{out_mfs}

[Rules]
{rules}
"""


# ---------------------------------------------------------------------------
# Corpus file

def test_tipper_fis_shape():
    fis, diag = parse_fis(TIPPER_FIS, origin="tipper.fis")
    assert fis.name == "tipper"
    assert fis.kind is SystemKind.MAMDANI
    assert list(fis.inputs) == ["service", "food"]
    assert len(fis.rules) == 3
    assert diag.source_format == "fis"
    assert diag.warnings == []


def test_gaussian_params_are_sigma_first():
    fis, _ = parse_fis(TIPPER_FIS)
    assert fis.inputs["service"].terms["poor"] == Gaussian(0.0, 1.5)
    assert fis.inputs["service"].terms["good"] == Gaussian(5.0, 1.5)
    assert fis.inputs["food"].terms["rancid"] == Trapezoidal(-2.0, 0.0, 1.0, 3.0)
    assert fis.outputs["tip"].terms["cheap"] == Triangular(0.0, 5.0, 10.0)


def test_tipper_fis_rule_encoding():
    fis, _ = parse_fis(TIPPER_FIS)
    assert fis.rules[0].antecedent == Or(Relation("service", "poor"),
                                         Relation("food", "rancid"))
    assert fis.rules[1].antecedent == Relation("service", "good")
    assert fis.rules[2].antecedent == Or(Relation("service", "excellent"),
                                         Relation("food", "delicious"))


def test_tipper_fis_agrees_with_dsl_tipper():
    fis, _ = parse_fis(TIPPER_FIS)
    dsl = corpus.load_system("tipper")
    for s in range(0, 11, 2):
        for f in range(0, 11, 2):
            inputs = {"service": float(s), "food": float(f)}
            assert infer(fis, inputs).crisp["tip"] == \
                pytest.approx(infer(dsl, inputs).crisp["tip"], abs=1e-6)


# ---------------------------------------------------------------------------
# Rule encoding details

def test_and_or_connectives():
    fis, _ = parse_fis(_doc(rules="1 1, 1 (1) : 1\n1 1, 1 (1) : 2"))
    assert fis.rules[0].antecedent == And(Relation("a", "lo"),
                                          Relation("b", "cold"))
    assert fis.rules[1].antecedent == Or(Relation("a", "lo"),
                                         Relation("b", "cold"))


def test_zero_index_skips_variable():
    fis, _ = parse_fis(_doc(rules="2 0, 2 (1) : 1"))
    assert fis.rules[0].antecedent == Relation("a", "hi")


def test_negative_index_negates():
    fis, _ = parse_fis(_doc(rules="-2 0, 1 (0.5) : 1"))
    rule = fis.rules[0]
    assert rule.antecedent == Not(Relation("a", "hi"))
    assert rule.weight == 0.5


def test_negated_consequent_rejected():
    with pytest.raises(ParseError, match="negated consequents"):
        parse_fis(_doc(rules="1 1, -1 (1) : 1"))


def test_all_zero_antecedent_rejected():
    with pytest.raises(ParseError, match="no antecedent"):
        parse_fis(_doc(rules="0 0, 1 (1) : 1"))


def test_out_of_range_term_index():
    with pytest.raises(ParseError, match="out of range"):
        parse_fis(_doc(rules="3 0, 1 (1) : 1"))


def test_unknown_connective():
    with pytest.raises(ParseError, match="connective"):
        parse_fis(_doc(rules="1 1, 1 (1) : 3"))


# ---------------------------------------------------------------------------
# Method tables

def test_method_lines():
    methods = ("AndMethod='prod'\nOrMethod='probor'\nImpMethod='prod'\n"
               "AggMethod='probor'\nDefuzzMethod='bisector'")
    fis, _ = parse_fis(_doc(methods=methods))
    s = fis.settings
    assert s.disjunction is SNorm.PROB_SUM
    assert s.aggregation is SNorm.PROB_SUM
    assert s.defuzzifier is Defuzzifier.BISECTOR


@pytest.mark.parametrize("name,expected", [
    ("mom", Defuzzifier.MEAN_OF_MAXIMA),
    ("som", Defuzzifier.FIRST_OF_MAXIMA),
    ("lom", Defuzzifier.LAST_OF_MAXIMA),
])
def test_maxima_defuzzifiers(name, expected):
    fis, _ = parse_fis(_doc(methods=f"DefuzzMethod='{name}'"))
    assert fis.settings.defuzzifier is expected


def test_agg_sum_degrades_with_warning():
    fis, diag = parse_fis(_doc(methods="AggMethod='sum'"))
    assert fis.settings.aggregation is SNorm.BOUNDED_SUM
    assert any("bounded sum" in msg for _, msg in diag.warnings)


def test_count_mismatch_warns():
    fis, diag = parse_fis(_doc(methods="NumRules=7"))
    assert len(fis.rules) == 1
    assert any("declares 7" in msg for _, msg in diag.warnings)


# ---------------------------------------------------------------------------
# Sugeno systems

def test_sugeno_constant_and_linear():
    out = "MF1='z':'constant',[4]\nMF2='ramp':'linear',[2 -1 3]"
    fis, _ = parse_fis(_doc(type_="sugeno", methods="DefuzzMethod='wtaver'",
                            rules="1 1, 1 (1) : 1\n2 2, 2 (1) : 1",
                            out_mfs=out))
    assert fis.kind is SystemKind.SUGENO
    assert fis.outputs["y"].terms["z"] == SugenoConstant(4.0)
    assert fis.outputs["y"].terms["ramp"] == \
        SugenoLinear((("a", 2.0), ("b", -1.0)), 3.0)
    res = infer(fis, {"a": 10.0, "b": 10.0})  # only rule 2 fires
    assert res.crisp["y"] == pytest.approx(2 * 10 - 1 * 10 + 3, abs=1e-9)


def test_sugeno_rejects_curve_outputs():
    with pytest.raises(ParseError, match="sugeno"):
        parse_fis(_doc(type_="sugeno"))


def test_constant_rejected_for_mamdani_output():
    with pytest.raises(ParseError, match="only valid for sugeno"):
        parse_fis(_doc(out_mfs="MF1='z':'constant',[4]"))


# ---------------------------------------------------------------------------
# Structural errors

def test_unsupported_type():
    with pytest.raises(ParseError, match="unsupported system Type"):
        parse_fis(_doc(type_="anfis"))


def test_missing_system_section():
    with pytest.raises(ParseError, match="System"):
        parse_fis("[Input1]\nName='a'\nRange=[0 1]\nMF1='t':'trimf',[0 0.5 1]")


def test_malformed_mf_line():
    with pytest.raises(ParseError, match="malformed MF line"):
        parse_fis(_doc(out_mfs="MF1=broken"))


def test_unknown_mf_type():
    with pytest.raises(ParseError, match="unknown MF type"):
        parse_fis(_doc(out_mfs="MF1='z':'sincmf',[1 2 3]"))


@pytest.mark.parametrize("params", ["[1e-320 0]", "[1e-162 5]"])
def test_gaussian_sigma_whose_square_underflows_is_a_parse_error(params):
    with pytest.raises(ParseError, match="gaussian sigma is too small") as info:
        parse_fis(_doc(out_mfs=f"MF1='z':'gaussmf',{params}"))
    assert info.value.line == 22  # the term's line


def test_wrong_arity():
    with pytest.raises(ParseError, match="takes 3 parameters"):
        parse_fis(_doc(out_mfs="MF1='z':'trimf',[1 2]"))


def test_crlf_and_comments_tolerated():
    text = TIPPER_FIS.replace("\n", "\r\n") + "% trailing comment\r\n"
    fis, _ = parse_fis(text)
    assert len(fis.rules) == 3
