"""Model-definition language: parsing, loop expansion, canonical formatting."""

import random

import pytest

import helpers
from fuzzkit import (Defuzzifier, Gaussian, Or, ParseError, Relation, SNorm,
                     SugenoConstant, SugenoLinear, SystemKind, TNorm,
                     Trapezoidal, Triangular, corpus)
from fuzzkit.dsl import (LoopStmt, expand_loops, format_proposition,
                         format_rule, format_system, parse_ast, parse_system)
from fuzzkit.interop.common import Token


@pytest.fixture(scope="module")
def tipper_text():
    return corpus.load_text("tipper.fzl")


# ---------------------------------------------------------------------------
# Tokens

def test_token_is_an_immutable_named_tuple():
    # The DSL and FCL readers share one Token type.
    assert Token._fields == ("kind", "text", "line", "column", "value", "is_int")
    assert Token._field_defaults == {"value": None, "is_int": False}
    a = Token("NUMBER", "2", 3, 4, value=2.0, is_int=True)
    assert a == Token("NUMBER", "2", 3, 4, 2.0, True)
    assert hash(a) == hash(Token("NUMBER", "2", 3, 4, 2.0, True))
    assert a != Token("NUMBER", "2", 3, 5, 2.0, True)
    assert repr(a) == "Token(kind='NUMBER', text='2', line=3, column=4, value=2.0, is_int=True)"
    b = Token("IDENT", "x", 1, 1)
    assert (b.value, b.is_int) == (None, False)
    assert tuple(b) == ("IDENT", "x", 1, 1, None, False)
    assert b._replace(column=7) == Token("IDENT", "x", 1, 7)
    with pytest.raises(AttributeError):
        b.text = "y"


# ---------------------------------------------------------------------------
# Corpus listings

def test_tipper_parses_to_expected_shape(tipper_text):
    fis = parse_system(tipper_text)
    assert fis.name == "tipper"
    assert fis.kind is SystemKind.MAMDANI
    assert list(fis.inputs) == ["service", "food"]
    assert list(fis.outputs) == ["tip"]
    assert len(fis.rules) == 3
    assert fis.inputs["service"].terms["good"] == Gaussian(5.0, 1.5)
    assert fis.inputs["food"].terms["rancid"] == Trapezoidal(-2.0, 0.0, 1.0, 3.0)
    assert fis.outputs["tip"].terms["average"] == Triangular(10.0, 15.0, 20.0)
    assert fis.rules[0].antecedent == Or(Relation("service", "poor"),
                                         Relation("food", "rancid"))
    assert all(r.weight == 1.0 for r in fis.rules)


def test_denoise_parses_with_loops_expanded():
    fis = parse_system(corpus.load_text("denoise.fzl"))
    assert list(fis.inputs) == [f"x{i}" for i in range(1, 9)]
    assert list(fis.outputs) == ["y"]
    assert len(fis.rules) == 26
    assert fis.inputs["x3"].terms["POS"] == Triangular(-255.0, 255.0, 765.0)
    assert fis.inputs["x3"].terms["NEG"] == Triangular(-765.0, -255.0, 255.0)
    flat = expand_loops(parse_ast(corpus.load_text("denoise.fzl")).body)
    assert not any(isinstance(s, LoopStmt) for s in flat)


# ---------------------------------------------------------------------------
# Round trips

def test_corpus_round_trips(tipper_text):
    for name in ("tipper.fzl", "denoise.fzl"):
        fis = parse_system(corpus.load_text(name))
        text = format_system(fis)
        assert parse_system(text) == fis
        # formatting is a fixed point
        assert format_system(parse_system(text)) == text


def test_random_systems_round_trip():
    rng = random.Random(101)
    for i in range(60):
        fis = helpers.random_t1_system(rng, i)
        again = parse_system(format_system(fis))
        assert again == fis, format_system(fis)


def test_random_it2_systems_round_trip():
    rng = random.Random(102)
    for _ in range(30):
        fis = helpers.random_it2_system(rng)
        assert parse_system(format_system(fis)) == fis


def test_formatted_params_are_bit_equal():
    fis = parse_system(corpus.load_text("tipper.fzl"))
    again = parse_system(format_system(fis))
    assert again.inputs["service"].terms["good"].mu == 5.0
    for name, var in fis.inputs.items():
        for term, mf in var.terms.items():
            assert again.inputs[name].terms[term] == mf


# ---------------------------------------------------------------------------
# Syntax details

def _wrap(body, header="fis = @mamfis function f(x)::y"):
    defs = """
    x := begin
        domain = 0:10
        t = TriangularMF(0.0, 5.0, 10.0)
        s = TriangularMF(2.0, 5.0, 8.0)
    end
    y := begin
        domain = 0:10
        u = TriangularMF(0.0, 5.0, 10.0)
    end
"""
    return f"{header}\n{defs}\n{body}\nend\n"


def test_rule_weight_suffix():
    fis = parse_system(_wrap("x == t --> y == u * 0.25"))
    assert fis.rules[0].weight == 0.25


def test_negation_and_grouping():
    fis = parse_system(_wrap("!(x == t) && x == s || x == t --> y == u"))
    text = format_proposition(fis.rules[0].antecedent)
    assert text == "!x == t && x == s || x == t"
    again = parse_system(_wrap(f"{text} --> y == u"))
    assert again.rules[0].antecedent == fis.rules[0].antecedent


def test_comments_and_blank_lines_ignored():
    fis = parse_system(_wrap("# leading comment\n\n    x == t --> y == u  # trailing"))
    assert len(fis.rules) == 1


def test_settings_lines():
    body = """
    x == t --> y == u
    and = ProdAnd
    or = ProbSumOr
    implication = ProdImplication
    aggregator = BoundedSumAggregator
    defuzzifier = BisectorDefuzzifier
    resolution = 501
"""
    fis = parse_system(_wrap(body))
    s = fis.settings
    assert s.conjunction is TNorm.PROD
    assert s.disjunction is SNorm.PROB_SUM
    assert s.aggregation is SNorm.BOUNDED_SUM
    assert s.defuzzifier is Defuzzifier.BISECTOR
    assert s.resolution == 501


def test_single_iteration_loop():
    body = """
    for i in 3:3
        x == t --> y == u
    end
"""
    fis = parse_system(_wrap(body))
    assert len(fis.rules) == 1


def test_empty_loop_range_rejected():
    body = """
    for i in 2:1
        x == t --> y == u
    end
"""
    with pytest.raises(ParseError, match="empty loop range 2:1"):
        parse_system(_wrap(body))


def test_empty_vector_range_rejected():
    with pytest.raises(ParseError, match="empty vector range"):
        parse_system("fis = @mamfis function f(x[1:0])::y\nend")


def test_loop_expansion_cap():
    text = """fis = @mamfis function f(x[1:200])::y
    for i in 1:200
        for j in 1:200
            x[i] == t --> y == u
        end
    end
end
"""
    with pytest.raises(ParseError, match="too many statements"):
        parse_system(text)


def test_loop_expansion_cap_names_origin_and_statement():
    loop = """fis = @mamfis function f(x[1:2])::y
    for i in 1:20000
        x[1] == t --> y == u
    end
end
"""
    with pytest.raises(ParseError) as err:
        parse_system(loop, origin="m.fzl")
    assert str(err.value) == "m.fzl:2:5: loop expansion produces too many statements"
    # Without a loop the statement past the cap is named: rule 10,001 on line 10,002.
    flat = "fis = @mamfis function f(x)::y\n" + "    x == t --> y == u\n" * 10_001 + "end\n"
    with pytest.raises(ParseError) as err:
        parse_system(flat, origin="m.fzl")
    assert (err.value.origin, err.value.line, err.value.column) == ("m.fzl", 10_002, 5)
    assert str(err.value) == "m.fzl:10002:5: loop expansion produces too many statements"


def test_undefined_variable_reported():
    with pytest.raises(ParseError, match="variable x has no definition"):
        parse_system("fis = @mamfis function f(x)::y\n    x == t --> y == u\nend")


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc:
        parse_system("fis = @mamfis function f(x)::y\n    x == t -->\nend",
                     origin="bad.fzl")
    assert "bad.fzl" in str(exc.value)


def test_sugeno_terms_and_formatting():
    text = """fis = @sugfis function s(x)::y
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
    x == lo --> y == a * 0.5
    x == hi --> y == b
end
"""
    fis = parse_system(text)
    assert fis.kind is SystemKind.SUGENO
    assert fis.outputs["y"].terms["a"] == SugenoConstant(5.0)
    assert fis.outputs["y"].terms["b"] == SugenoLinear((("x", 2.0),), 1.0)
    assert fis.rules[0].weight == 0.5
    assert parse_system(format_system(fis)) == fis


def test_multi_consequent_rule():
    text = """fis = @mamfis function m(x)::(y, z)
    x := begin
        domain = 0:10
        t = TriangularMF(0.0, 5.0, 10.0)
    end
    y := begin
        domain = 0:10
        u = TriangularMF(0.0, 5.0, 10.0)
    end
    z := begin
        domain = 0:10
        v = TriangularMF(0.0, 5.0, 10.0)
    end
    x == t --> y == u, z == v
end
"""
    fis = parse_system(text)
    assert [rel.variable for rel in fis.rules[0].consequents] == ["y", "z"]
    assert parse_system(format_system(fis)) == fis
    assert "::(y, z)" in format_system(fis)


def test_format_rule_includes_weight():
    fis = parse_system(_wrap("x == t --> y == u * 0.75"))
    assert format_rule(fis.rules[0]) == "x == t --> y == u * 0.75"
    fis = parse_system(_wrap("x == t --> y == u"))
    assert format_rule(fis.rules[0]) == "x == t --> y == u"


def test_piecewise_linear_round_trip():
    text = """fis = @mamfis function p(x)::y
    x := begin
        domain = 0:10
        t = PiecewiseLinearMF((0.0, 0.0), (2.5, 1.0), (10.0, 0.5))
    end
    y := begin
        domain = 0:10
        u = TriangularMF(0.0, 5.0, 10.0)
    end
    x == t --> y == u
end
"""
    fis = parse_system(text)
    assert parse_system(format_system(fis)) == fis
    mf = fis.inputs["x"].terms["t"]
    assert mf(2.5) == 1.0 and mf(0.0) == 0.0
