"""Parser robustness: hostile inputs must raise ParseError, never crash.

Small-scale variant of the full fuzzing pass in test_acceptance; these runs
keep the property in the fast suite.
"""

import random

import pytest

from fuzzkit import ParseError, corpus
from fuzzkit.dsl import parse_system
from fuzzkit.interop import parse_fcl, parse_fis

PARSERS = [
    ("dsl", parse_system, corpus.load_text("tipper.fzl")),
    ("fcl", parse_fcl, corpus.load_text("tipper.fcl")),
    ("fis", parse_fis, corpus.load_text("tipper.fis")),
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
