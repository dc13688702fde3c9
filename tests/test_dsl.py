"""Model-definition language: parsing, loop expansion, canonical formatting."""

import random

import pytest

import helpers
from fuzzkit import (Defuzzifier, Gaussian, Or, ParseError, Relation, SNorm,
                     SugenoConstant, SugenoLinear, SystemKind, TNorm,
                     Trapezoidal, Triangular, corpus)
from fuzzkit.dsl import (format_proposition, format_rule, format_system,
                         parse_system)
from fuzzkit.interop.common import MAX_NESTING, Token


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


# ---------------------------------------------------------------------------
# Loop semantics

_LOOP_DEFS = """fis = @mamfis function f(x[1:4], z[1:3])::y[1:2]
for i in 1:4
    x[i] := begin
        domain = 0:10
        t = TriangularMF(0.0, 5.0, 10.0)
        s = TriangularMF(2.0, 5.0, 8.0)
    end
end
for k in 1:1
    for i in 1:2
        y[i] := begin
            domain = 0:10
            u = TriangularMF(0.0, 5.0, 10.0)
        end
    end
    for j in 1:3
        z[j] := begin
            domain = 0:10
            t = TriangularMF(0.0, 5.0, 10.0)
        end
    end
end
"""
_LOOP_BODY_LINE = _LOOP_DEFS.count("\n") + 1  # line of the first body line


@pytest.mark.parametrize("body, rules", [
    # nested loops expand i-major, indices reaching antecedents and consequents
    ("""for i in 1:2
    for j in 1:3
        x[i] == t && z[j] == t --> y[i] == u
    end
end""", ["x1 == t && z1 == t --> y1 == u", "x1 == t && z2 == t --> y1 == u",
         "x1 == t && z3 == t --> y1 == u", "x2 == t && z1 == t --> y2 == u",
         "x2 == t && z2 == t --> y2 == u", "x2 == t && z3 == t --> y2 == u"]),
    # an inner loop reusing the name shadows the outer one until its `end`
    ("""for i in 1:2
    for i in 3:4
        x[i] == t --> y[1] == u
    end
    x[i] == s --> y[i] == u
end""", ["x3 == t --> y1 == u", "x4 == t --> y1 == u", "x1 == s --> y1 == u",
         "x3 == t --> y1 == u", "x4 == t --> y1 == u", "x2 == s --> y2 == u"]),
    # literal indices, negation, grouping and weights inside a loop
    ("""for j in 2:3
    !(z[j] == t) || x[4] == s --> y[1] == u, y[2] == u * 0.5
end""", ["!z2 == t || x4 == s --> y1 == u, y2 == u * 0.5",
         "!z3 == t || x4 == s --> y1 == u, y2 == u * 0.5"]),
], ids=["nested", "shadowed", "literal-index"])
def test_loops_expand_in_order(body, rules):
    fis = parse_system(f"{_LOOP_DEFS}{body}\nend\n")
    assert [format_rule(r) for r in fis.rules] == rules
    assert list(fis.inputs) == ["x1", "x2", "x3", "x4", "z1", "z2", "z3"]
    assert list(fis.outputs) == ["y1", "y2"]
    assert set(fis.inputs["x3"].terms) == {"t", "s"}
    assert set(fis.inputs["z2"].terms) == {"t"}


@pytest.mark.parametrize("body, message, line, column", [
    ("x[j] == t --> y[1] == u", "loop variable 'j' used outside its loop", 0, 1),
    ("    x[1] == t --> y[j] == u", "loop variable 'j' used outside its loop", 0, 19),
    ("for i in 1:2\n    x[j] == t --> y[i] == u\nend",
     "loop variable 'j' used outside its loop", 1, 5),
    ("for i in 1:2\n    x[i] == t && z[j] == t --> y[i] == u\nend",
     "loop variable 'j' used outside its loop", 1, 18),
    ("for i in 1:2\n    for j in 1:2\n        x[j] == t --> y[i] == u\n    end\n"
     "    x[j] == t --> y[i] == u\nend",
     "loop variable 'j' used outside its loop", 4, 5),
    # the cap names the statement whose expansion overflowed
    ("for i in 1:1\n    for j in 1:20000\n        x[1] == t --> y[1] == u\n    end\nend",
     "loop expansion produces too many statements", 1, 5),
    ("for i in 2:1\n    x[i] == t --> y[1] == u\nend", "empty loop range 2:1", 0, 1),
], ids=["antecedent", "consequent", "in-loop", "in-loop-conjunct", "after-inner-end",
        "nested-cap", "empty-range"])
def test_loop_errors_name_the_position(body, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_system(f"{_LOOP_DEFS}{body}\nend\n", origin="m.fzl")
    assert (err.value.message, err.value.line, err.value.column) == (
        message, _LOOP_BODY_LINE + line, column)


def test_loops_whose_body_yields_nothing_are_read_once():
    # Every pass reads the same statements, so an empty body is not walked
    # over its whole range; nested empty loops do not multiply.
    rule = "x[1] == t --> y[1] == u, y[2] == u\n"
    empty = (f"{_LOOP_DEFS}for i in 1:1000000000000\n    # nothing here\nend\n{rule}"
             "for i in 1:100000\n    for j in 1:100000\n    end\nend\nend\n")
    assert parse_system(empty) == parse_system(f"{_LOOP_DEFS}{rule}end\n")
    # a body that yields statements still stops at the cap, on the loop
    with pytest.raises(ParseError) as err:
        parse_system(f"{_LOOP_DEFS}for i in 1:1000000000000\n    {rule}end\nend\n")
    assert (err.value.message, err.value.line) == (
        "loop expansion produces too many statements", _LOOP_BODY_LINE)


@pytest.mark.parametrize("depth", [600, 10_000])
def test_deep_loop_nesting_is_bounded(depth):
    # Loop nesting counts against the limit that bounds expressions, so a
    # deep nest raises at the loop past the limit instead of overflowing.
    text = _wrap("for i in 1:1\n" * depth + "x == t --> y == u\n" + "end\n" * depth)
    first = text.splitlines().index("for i in 1:1") + 1
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert (err.value.message, err.value.line, err.value.column) == (
        "loop or expression nested too deeply", first + MAX_NESTING, 1)


def test_loops_nested_below_the_limit_parse():
    text = _wrap("for i in 1:1\n" * 150 + "x == t --> y == u\n" + "end\n" * 150)
    assert len(parse_system(text).rules) == 1


def test_big_indices_keep_every_digit():
    n = 2**53 + 1  # the nearest float is 2**53
    text = _wrap(f"x[{n}] == t --> y == u",
                 header=f"fis = @mamfis function f(x[{n}:{n}])::y")
    fis = parse_system(text.replace("x := begin", f"x[{n}] := begin"))
    assert list(fis.inputs) == ["x9007199254740993"]
    assert fis.rules[0].antecedent == Relation("x9007199254740993", "t")


@pytest.mark.parametrize("statement", [
    "x[{}] == t --> y == u",
    "x == t --> y == u\nresolution = {}",
    "for i in 1:{}\n    x == t --> y == u\nend",
], ids=["index", "resolution", "loop-bound"])
def test_long_integer_literals_keep_the_error_contract(statement):
    # A 400-digit literal overflows a float, and 5,000 digits pass the limit
    # of int(); either may parse or raise ParseError, but nothing else.
    try:
        parse_system(_wrap(statement.format("1" + "0" * 400)))
    except ParseError:
        pass
    with pytest.raises(ParseError, match="integer literal too long"):
        parse_system(_wrap(statement.format("1" * 5000)))


@pytest.mark.parametrize("term", [
    "GaussianMF(0.0, 1e-320)",
    "IntervalMF(GaussianMF(0.0, 1e-320), GaussianMF(0.0, 1.0))",
    "IntervalMF(GaussianMF(0.0, 0.5), GaussianMF(0.0, 1e-162))",
])
def test_gaussian_sigma_whose_square_underflows_is_a_parse_error(term):
    kind = "@it2mamfis" if term.startswith("Interval") else "@mamfis"
    text = _wrap("x == t --> y == u", header=f"fis = {kind} function f(x)::y")
    if kind == "@it2mamfis":
        text = (text.replace("TriangularMF(0.0, 5.0, 10.0)",
                             "IntervalMF(TriangularMF(0.0, 5.0, 10.0), "
                             "TriangularMF(0.0, 5.0, 10.0))")
                    .replace("TriangularMF(2.0, 5.0, 8.0)",
                             "IntervalMF(TriangularMF(2.0, 5.0, 8.0), "
                             "TriangularMF(2.0, 5.0, 8.0))"))
    text = text.replace("        s = ", f"        g = {term}\n        s = ", 1)
    with pytest.raises(ParseError, match="gaussian sigma is too small") as info:
        parse_system(text)
    assert info.value.line == 6  # the term


def test_resolution_above_the_bound_is_a_parse_error():
    assert parse_system(_wrap("x == t --> y == u\nresolution = 100000")) \
        .settings.resolution == 100_000
    with pytest.raises(ParseError, match=r"resolution must be an integer in \[2, 100000\]"):
        parse_system(_wrap("x == t --> y == u\nresolution = 1000000000"))


def test_resolution_above_the_bound_is_reported_at_its_statement():
    lines = corpus.load_text("tipper.fzl").split("\n")
    lines.insert(7, "  resolution = 1000000000")
    with pytest.raises(ParseError, match=r"resolution must be an integer in \[2, 100000\]") \
            as info:
        parse_system("\n".join(lines))
    assert (info.value.line, info.value.column) == (8, 3)
    assert str(info.value).startswith("<inline>:8:3: ")
