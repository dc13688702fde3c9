"""Parser robustness: hostile inputs must raise ParseError, never crash.

Small-scale variant of the full fuzzing pass in test_acceptance; these runs
keep the property in the fast suite.
"""

import random

import pytest

import helpers
from fuzzkit import ParseError, corpus
from fuzzkit.dsl import format_system, parse_system
from fuzzkit.interop import parse_fcl, parse_fis

# Sugeno seeds, so that mutations reach the consequent readers as well
_SUGENO_FCL = """FUNCTION_BLOCK s
VAR_INPUT x : REAL; END_VAR
VAR_OUTPUT y : REAL; END_VAR
FUZZIFY x
    TERM lo := (0.0, 1.0) (10.0, 0.0);
    TERM hi := (0.0, 0.0) (10.0, 1.0);
    RANGE := (0.0 .. 10.0);
END_FUZZIFY
DEFUZZIFY y
    TERM small := 2.0;
    TERM large := 18.0;
    METHOD : COGS;
    DEFAULT := 0.0;
    RANGE := (0.0 .. 20.0);
END_DEFUZZIFY
RULEBLOCK rules
    AND : PROD;
    RULE 1 : IF x IS lo THEN y IS small;
    RULE 2 : IF x IS hi AND NOT x IS lo THEN y IS large WITH 0.5;
END_RULEBLOCK
END_FUNCTION_BLOCK
"""

_SUGENO_FIS = """[System]
Name='s'
Type='sugeno'
NumInputs=2
NumOutputs=1
NumRules=2
AndMethod='prod'
DefuzzMethod='wtaver'

[Input1]
Name='a'
Range=[0 10]
MF1='lo':'trimf',[0 0 10]
MF2='hi':'gaussmf',[2 10]

[Input2]
Name='b'
Range=[0 10]
MF1='cold':'trapmf',[0 0 2 10]

[Output1]
Name='y'
Range=[0 20]
MF1='z':'constant',[4]
MF2='ramp':'linear',[2 -1 3]

[Rules]
1 1, 1 (1) : 1
2 -1, 2 (0.5) : 1
"""

PARSERS = [
    ("dsl", parse_system, corpus.load_text("tipper.fzl")),
    ("fcl", parse_fcl, corpus.load_text("tipper.fcl")),
    ("fis", parse_fis, corpus.load_text("tipper.fis")),
    ("dsl-sugeno", parse_system,
     format_system(helpers.random_t1_system(random.Random(5), 2))),
    ("fcl-sugeno", parse_fcl, _SUGENO_FCL),
    ("fis-sugeno", parse_fis, _SUGENO_FIS),
]


def _survives(parse, text):
    try:
        parse(text)
    except ParseError:
        pass
    return True


@pytest.mark.parametrize("name,parse,seed_text", PARSERS,
                         ids=[p[0] for p in PARSERS])
def test_random_character_soup(name, parse, seed_text):
    rng = random.Random(hash(name) & 0xFFFF)
    alphabet = seed_text + "\x00\xff \U0001F600(){}[]<>:=;*"
    for _ in range(600):
        n = rng.randint(0, 300)
        text = "".join(rng.choice(alphabet) for _ in range(n))
        assert _survives(parse, text)


@pytest.mark.parametrize("name,parse,seed_text", PARSERS,
                         ids=[p[0] for p in PARSERS])
def test_truncations(name, parse, seed_text):
    for cut in range(0, len(seed_text), max(1, len(seed_text) // 120)):
        assert _survives(parse, seed_text[:cut])


@pytest.mark.parametrize("name,parse,seed_text", PARSERS,
                         ids=[p[0] for p in PARSERS])
def test_line_shuffles(name, parse, seed_text):
    rng = random.Random(len(seed_text))
    lines = seed_text.splitlines()
    for _ in range(150):
        shuffled = lines[:]
        rng.shuffle(shuffled)
        assert _survives(parse, "\n".join(shuffled))


@pytest.mark.parametrize("name,parse,seed_text", PARSERS,
                         ids=[p[0] for p in PARSERS])
def test_token_mutations(name, parse, seed_text):
    rng = random.Random(0xBEEF)
    for _ in range(300):
        text = list(seed_text)
        for _ in range(rng.randint(1, 8)):
            pos = rng.randrange(len(text))
            op = rng.random()
            if op < 0.4:
                text[pos] = rng.choice("()[]{}:=;,*#!&|\"'\\\x00 \n\t0123456789eE.-+")
            elif op < 0.7:
                del text[pos]
            else:
                text.insert(pos, rng.choice("()[]:;=,*\n "))
        assert _survives(parse, "".join(text))


def test_non_string_inputs_raise_parse_error():
    for parse in (parse_fcl, parse_fis):
        with pytest.raises(ParseError):
            parse(b"bytes")
        with pytest.raises(ParseError):
            parse(None)


def test_deep_nesting_is_bounded():
    # Antecedents 10,000 levels deep must be rejected, not overflow the stack.
    depth = 10_000
    text = ("fis = @mamfis function f(x)::y\n"
            "    x := begin\n        domain = 0:1\n"
            "        t = TriangularMF(0.0, 0.5, 1.0)\n    end\n"
            "    y := begin\n        domain = 0:1\n"
            "        u = TriangularMF(0.0, 0.5, 1.0)\n    end\n"
            f"    {'(' * depth}x == t{')' * depth} --> y == u\nend\n")
    with pytest.raises(ParseError, match="expression nested too deeply"):
        parse_system(text)
    fcl_head = ("FUNCTION_BLOCK f\nVAR_INPUT x : REAL; END_VAR\n"
                "VAR_OUTPUT y : REAL; END_VAR\n"
                "FUZZIFY x TERM t := (0, 0) (1, 1); END_FUZZIFY\n"
                "DEFUZZIFY y TERM u := (0, 0) (1, 1); METHOD : COG; END_DEFUZZIFY\n"
                "RULEBLOCK r\n")
    for antecedent in (f"{'(' * depth}x IS t{')' * depth}", "NOT " * depth + "x IS t"):
        text = (f"{fcl_head}RULE 1 : IF {antecedent} THEN y IS u;\n"
                "END_RULEBLOCK\nEND_FUNCTION_BLOCK\n")
        with pytest.raises(ParseError, match="rule expression nested too deeply"):
            parse_fcl(text)


_DSL_SUGENO = """fis = @sugfis function f(x)::y
    x := begin
        domain = 0:1
        t = TriangularMF(0.0, 0.5, 1.0)
    end
    y := begin
        domain = 0:1
        u = {}
    end
    x == t --> y == u
end
"""


@pytest.mark.parametrize("parse, text, line, column", [
    (parse_system, _DSL_SUGENO.format("1e999"), 8, 9),
    (parse_system, _DSL_SUGENO.format("1e999*x + 1"), 8, 9),
    (parse_system, _DSL_SUGENO.format("2*x + 1e999"), 8, 9),
    (parse_fcl, _SUGENO_FCL.replace("18.0;", "18.0; TERM b := 1e999;"), 11, 30),
    (parse_fcl, _SUGENO_FCL.replace("COGS", "COG")
                           .replace("18.0;", "18.0; TERM b := 1e999;"), 11, 30),
    (parse_fis, _SUGENO_FIS.replace("[4]", "[1e999]"), 24, 0),
    (parse_fis, _SUGENO_FIS.replace("[2 -1 3]", "[1e999 1 2]"), 25, 0),
], ids=["dsl-constant", "dsl-coefficient", "dsl-offset", "fcl-cogs", "fcl-cog",
        "fis-constant", "fis-linear"])
def test_non_finite_consequents_raise_parse_error(parse, text, line, column):
    # The consequent's own check fails; the reader reports it at the term.
    with pytest.raises(ParseError, match="finite") as err:
        parse(text)
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize("parse, text, message, line, column", [
    (parse_fcl, _SUGENO_FCL.replace("WITH 0.5", "WITH 7"), "rule weight", 19, 62),
    (parse_fcl, _SUGENO_FCL.replace("WITH 0.5", "WITH 1e999"), "rule weight", 19, 62),
    (parse_fis, _SUGENO_FIS.replace("NumInputs=2", "NumInputs=1e999"), "malformed", 4, 0),
], ids=["fcl-weight", "fcl-infinite-weight", "fis-infinite-count"])
def test_out_of_range_values_raise_parse_error(parse, text, message, line, column):
    with pytest.raises(ParseError, match=message) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (line, column)
