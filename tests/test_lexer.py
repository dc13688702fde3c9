"""The shared lexer on edge cases of both formats.

Each input maps to its exact tokens, or to the ParseError it raises.  Tokens
are compared as (kind, text, line, column, value), plus is_int for the DSL.
"""

from collections import namedtuple

import pytest

from fuzzkit import ParseError
from fuzzkit.dsl import _LEXER as DSL_LEXER
from fuzzkit.interop.fcl import _LEXER as FCL_LEXER

Error = namedtuple("Error", "message line column expected")

DSL_CASES = [
    ("1e", [("NUMBER", "1", 1, 1, 1.0, True), ("IDENT", "e", 1, 2, None, False),
            ("EOF", "", 1, 3, None, False)]),
    ("1.", [("NUMBER", "1.", 1, 1, 1.0, False), ("EOF", "", 1, 3, None, False)]),
    ("5.e3", [("NUMBER", "5.e3", 1, 1, 5000.0, False), ("EOF", "", 1, 5, None, False)]),
    ("1.5.6", [("NUMBER", "1.5", 1, 1, 1.5, False), ("NUMBER", ".6", 1, 4, 0.6, False),
               ("EOF", "", 1, 6, None, False)]),
    ("٣", [("NUMBER", "٣", 1, 1, 3.0, True), ("EOF", "", 1, 2, None, False)]),
    ("x²", [("IDENT", "x²", 1, 1, None, False), ("EOF", "", 1, 3, None, False)]),
    ("²", Error("malformed number '²'", 1, 1, None)),
    ("Ⅻ", Error("unexpected character 'Ⅻ'", 1, 1, None)),
    ("² $", Error("malformed number '²'", 1, 1, None)),
    ("a&b", Error("unexpected character '&'", 1, 2, "'&&' or '||'")),
    ("a|b", Error("unexpected character '|'", 1, 2, "'&&' or '||'")),
    ("x --> y", [("IDENT", "x", 1, 1, None, False), ("ARROW", "-->", 1, 3, None, False),
                 ("IDENT", "y", 1, 7, None, False), ("EOF", "", 1, 8, None, False)]),
    ("a\r\nb\r\n", [("IDENT", "a", 1, 1, None, False), ("NEWLINE", "\n", 1, 3, None, False),
                    ("IDENT", "b", 2, 1, None, False), ("NEWLINE", "\n", 2, 3, None, False),
                    ("EOF", "", 3, 1, None, False)]),
    ("\ta\t:= 1", [("IDENT", "a", 1, 2, None, False), ("DEFINE", ":=", 1, 4, None, False),
                   ("NUMBER", "1", 1, 7, 1.0, True), ("EOF", "", 1, 8, None, False)]),
    ("x # c", [("IDENT", "x", 1, 1, None, False), ("EOF", "", 1, 6, None, False)]),
]

FCL_CASES = [
    ("1..2", [("NUMBER", "1", 1, 1, 1.0), ("DOTS", "..", 1, 2, None),
              ("NUMBER", "2", 1, 4, 2.0), ("EOF", "", 1, 5, None)]),
    ("-.5", [("NUMBER", "-.5", 1, 1, -0.5), ("EOF", "", 1, 4, None)]),
    ("+.", Error("malformed number '+.'", 1, 1, None)),
    ("+..", Error("malformed number '+'", 1, 1, None)),
    ("+x", Error("unexpected character '+'", 1, 1, None)),
    ("1e", [("NUMBER", "1", 1, 1, 1.0), ("IDENT", "e", 1, 2, None), ("EOF", "", 1, 3, None)]),
    ("(* a\n b *) x", [("IDENT", "x", 2, 7, None), ("EOF", "", 2, 8, None)]),
    ("x (* a", Error("unterminated comment", 1, 3, None)),
    ("(*)", Error("unterminated comment", 1, 1, None)),
    ("a//c\nb", [("IDENT", "a", 1, 1, None), ("IDENT", "b", 2, 1, None),
                 ("EOF", "", 2, 2, None)]),
    ("a //c", [("IDENT", "a", 1, 1, None), ("EOF", "", 1, 3, None)]),
    ("a\r\n\tb", [("IDENT", "a", 1, 1, None), ("IDENT", "b", 2, 2, None),
                  ("EOF", "", 2, 3, None)]),
]


def _lex(lexer, text, width):
    try:
        return [tuple(tok)[:width] for tok in lexer.tokens(text, "<t>")]
    except ParseError as exc:
        return Error(exc.message, exc.line, exc.column, exc.expected)


@pytest.mark.parametrize("text,expected", DSL_CASES, ids=[repr(c[0]) for c in DSL_CASES])
def test_dsl_lexer_edge_cases(text, expected):
    assert _lex(DSL_LEXER, text, 6) == expected


@pytest.mark.parametrize("text,expected", FCL_CASES, ids=[repr(c[0]) for c in FCL_CASES])
def test_fcl_lexer_edge_cases(text, expected):
    assert _lex(FCL_LEXER, text, 5) == expected
