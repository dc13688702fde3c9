"""Shared plumbing for the text readers.

``Token``, ``Lexer`` and ``TokenCursor`` serve the two token-based readers,
the model DSL (``fuzzkit.dsl``) and FCL (``fcl``): each describes its tokens
as an ordered regex table and parses through one cursor class.  The Matlab
.fis reader splits lines with regexes and uses only ``FormatDiagnostics``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import takewhile
from typing import NamedTuple

from ..errors import ParseError

MAX_NESTING = 200  # deepest rule expression either reader accepts


@dataclass
class FormatDiagnostics:
    """Tolerated deviations collected while reading a foreign file.

    ``warnings`` holds (location, message) pairs; ``source_format`` tags the
    reader that produced them ("fcl" or "fis").
    """

    source_format: str
    warnings: list[tuple[str, str]] = field(default_factory=list)

    def warn(self, location: str, message: str) -> None:
        self.warnings.append((location, message))


class Token(NamedTuple):
    """One lexeme with its 1-based position.  ``value`` is set on NUMBER
    tokens; ``is_int`` says the number had neither fraction nor exponent."""

    kind: str
    text: str
    line: int
    column: int
    value: float | None = None
    is_int: bool = False


class Lexer:
    """A format's tokenizer, compiled from an ordered ``(kind, regex)`` table.

    Each match skips blanks (space, tab, CR) and takes the first rule, in
    table order, that matches: earlier rules win ties (``-->`` before ``-``).
    Every format starts with IDENT (a letter or ``_``, then letters, digits
    and ``_``) and ends with a catch-all that raises ``unexpected
    character``, with ``hints[char]`` as what was expected.  Kinds with a
    meaning of their own:

    - ``NEWLINE`` is emitted and starts a new line;
    - ``SKIP`` (comments, unreported newlines) is dropped, but the newlines
      in it still count;
    - ``NUMBER`` gets ``float(text)`` as its value, or raises ``malformed
      number``;
    - ``EOF`` must match only at the end of the text; the EOF token stands
      where its match begins;
    - a kind in ``errors`` raises that message where it matches.
    """

    def __init__(self, rules, errors=None, hints=None):
        rules = [("IDENT", r"[^\W\d]\w*"), *rules, ("ERROR", r"(?s:.)")]
        self.finditer = re.compile(
            "[ \t\r]*(?:%s)" % "|".join(f"(?P<{k}>{r})" for k, r in rules)).finditer
        self.errors = errors or {}
        self.hints = hints or {}
        self.plain = frozenset(k for k, _ in rules) - {
            "NEWLINE", "SKIP", "NUMBER", "EOF", "ERROR", *self.errors}

    def tokens(self, text: str, origin: str) -> list[Token]:
        out: list[Token] = []
        append = out.append
        plain = self.plain
        error = None
        line = 1
        line_start = -1  # offset just before the current line's first character
        for m in self.finditer(text):
            kind = m.lastgroup
            word = m[kind]
            start = m.end() - len(word)
            if kind in plain:
                append(Token(kind, word, line, start - line_start))
            elif kind == "NEWLINE":
                append(Token(kind, word, line, start - line_start))
                line += 1
                line_start = start
            elif kind == "SKIP":
                if "\n" in word:
                    line += word.count("\n")
                    line_start = start + word.rindex("\n")
            elif kind == "NUMBER":
                try:
                    value = float(word)
                except ValueError:
                    error = f"malformed number {word!r}"
                    break
                # the regex admits only decimal digits, '.', 'e', 'E' and
                # signs, so an all-digit text had no fraction and no exponent
                append(Token(kind, word, line, start - line_start, value,
                             word.isdecimal()))
            elif kind == "EOF":
                append(Token(kind, "", line, start - line_start))
                break
            else:
                error = self.errors.get(kind) or f"unexpected character {word!r}"
                break
        if not text.isascii():
            # ``\w`` and ``\d`` follow str.isalnum and str.isdecimal, but a
            # word must start with a character that str.isalpha accepts.  The
            # IDENT regex also lets through numeric characters that are not
            # decimal digits: read '²' as a malformed number and 'Ⅻ' as an
            # unexpected character, before any later error.
            for tok in out:
                if tok.kind == "IDENT" and not (tok.text[0].isalpha() or tok.text[0] == "_"):
                    digits = "".join(takewhile(str.isdigit, tok.text))
                    message = (f"malformed number {digits!r}" if digits
                               else f"unexpected character {tok.text[0]!r}")
                    raise ParseError(message, tok.line, tok.column, origin=origin)
        if error:
            raise ParseError(error, line, start - line_start,
                             expected=self.hints.get(word), origin=origin)
        return out


class TokenCursor:
    """Reads a token list front to back; the readers' parsers extend it.

    ``too_deep`` is the message a parser raises when its expressions nest
    past ``MAX_NESTING`` (guarded by ``enter``/``leave``).
    """

    too_deep = "expression nested too deeply"

    def __init__(self, tokens: list[Token], origin: str):
        self.tokens = tokens
        self.pos = 0
        self.origin = origin
        self.depth = 0

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None,
             expected: str | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.column, expected=expected,
                          origin=self.origin)

    def unexpected(self, tok: Token, expected: str) -> ParseError:
        found = {"EOF": "end of input", "NEWLINE": "end of line"}.get(tok.kind)
        return self.fail(f"unexpected {found or repr(tok.text)}", tok, expected)

    def expect(self, kind: str, expected: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.unexpected(tok, expected)
        return self.next()

    def enter(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail(self.too_deep, tok)

    def leave(self) -> None:
        self.depth -= 1
