"""Textual fuzzy-system DSL: token table, one-pass recursive-descent parser
and the canonical pretty-printer.  The token table is compiled by the lexer
shared with the FCL reader (``interop.common``), and the parser extends the
shared ``TokenCursor``.

The parser builds the system as it reads: each variable block becomes a
``Variable`` at its ``end``, each term and setting is checked where it
stands, and loops are expanded by reading their body once per value.  Only
the names a rule uses wait: a rule may name a variable defined further
down, so they are checked, in text order, once the whole body is read.
Errors therefore come in reading order, and every one is a ``ParseError``.

Grammar (EBNF; statements are newline-terminated, otherwise whitespace does
not matter, and ``#`` starts a comment running to end of line)::

    system    := ["fis" "="] ["@"] kind "function" IDENT "(" params ")"
                 "::" outs NEWLINE body "end"
    kind      := "mamfis" | "sugfis" | "it2mamfis"
    params    := param ("," param)*
    param     := IDENT ["[" INT ":" INT "]"]
    outs      := param | "(" params ")"
    body      := (vardef | setting | loop | rule)*
    vardef    := name ":=" "begin" NEWLINE
                 (domain | termdef)* "end" NEWLINE
    domain    := "domain" "=" NUM ":" NUM NEWLINE
    termdef   := IDENT "=" (mfcall | sugexpr) NEWLINE
    mfcall    := MFCTOR "(" [arg ("," arg)*] ")"
    arg       := NUM | "(" NUM "," NUM ")" | mfcall
    sugexpr   := sterm (("+" | "-") sterm)*
    sterm     := NUM ["*" IDENT] | IDENT
    setting   := IDENT "=" (IDENT | INT) NEWLINE
    loop      := "for" IDENT "in" INT ":" INT NEWLINE body "end" NEWLINE
    rule      := prop "-->" conseq ("," conseq)* ["*" NUM] NEWLINE
    prop      := andprop ("||" andprop)*
    andprop   := unary ("&&" unary)*
    unary     := "!" unary | "(" prop ")" | relation
    relation  := name "==" IDENT
    name      := IDENT ["[" (INT | IDENT) "]"]

``&&`` binds tighter than ``||``, ``!`` tighter than both; both binary
connectives are left-associative.  A ``name`` folds to one identifier as it
is read: ``x[3]`` is ``x3``, and ``x[i]`` is ``x`` followed by the current
value of ``i``, which must be an enclosing loop variable.  A loop's body is
read once per value of its variable; an inner loop over the same name shadows
the outer one until its ``end``.  Loops and expressions share one nesting
limit, ``MAX_NESTING``.

Settings lines select pipeline operators by name, e.g. ``and = ProdAnd``,
``defuzzifier = BisectorDefuzzifier``, ``resolution = 201``.
"""

from __future__ import annotations

from dataclasses import fields

from .errors import ModelError, ParseError
from .interop.common import Lexer, Token, TokenCursor
from .mf import MF_CONSTRUCTORS, IntervalMF, MembershipFunction, PiecewiseLinear
from .model import (And, Domain, EngineSettings, FuzzySystem, Not, Or,
                    Proposition, Relation, Rule, SugenoConstant, SugenoLinear,
                    SystemKind, Variable)
from .norms import Defuzzifier, Implication, SNorm, TNorm

_MAX_EXPANSION = 10_000  # statements in one body, after loop/vector expansion

_KINDS = {
    "mamfis": SystemKind.MAMDANI,
    "sugfis": SystemKind.SUGENO,
    "it2mamfis": SystemKind.MAMDANI_IT2,
}

# DSL setting key -> (EngineSettings field, {value name: value}); the parser
# reads and the formatter writes settings through this one table.
_SETTINGS = {
    "and": ("conjunction", {
        "MinAnd": TNorm.MIN,
        "ProdAnd": TNorm.PROD,
        "LukasiewiczAnd": TNorm.LUKASIEWICZ,
        "DrasticAnd": TNorm.DRASTIC,
        "NilpotentAnd": TNorm.NILPOTENT,
        "HamacherAnd": TNorm.HAMACHER,
    }),
    "or": ("disjunction", {
        "MaxOr": SNorm.MAX,
        "ProbSumOr": SNorm.PROB_SUM,
        "BoundedSumOr": SNorm.BOUNDED_SUM,
        "DrasticOr": SNorm.DRASTIC,
        "NilpotentOr": SNorm.NILPOTENT,
        "EinsteinOr": SNorm.EINSTEIN,
    }),
    "implication": ("implication", {
        "MinImplication": Implication.MIN,
        "ProdImplication": Implication.PROD,
    }),
    "aggregator": ("aggregation", {
        "MaxAggregator": SNorm.MAX,
        "ProbSumAggregator": SNorm.PROB_SUM,
        "BoundedSumAggregator": SNorm.BOUNDED_SUM,
        "DrasticAggregator": SNorm.DRASTIC,
        "NilpotentAggregator": SNorm.NILPOTENT,
        "EinsteinAggregator": SNorm.EINSTEIN,
    }),
    "defuzzifier": ("defuzzifier", {
        "CentroidDefuzzifier": Defuzzifier.CENTROID,
        "BisectorDefuzzifier": Defuzzifier.BISECTOR,
        "MeanOfMaximaDefuzzifier": Defuzzifier.MEAN_OF_MAXIMA,
        "FirstOfMaximaDefuzzifier": Defuzzifier.FIRST_OF_MAXIMA,
        "LastOfMaximaDefuzzifier": Defuzzifier.LAST_OF_MAXIMA,
    }),
}


# ---------------------------------------------------------------------------
# Lexer

_LEXER = Lexer([
    ("NEWLINE", r"\n"),
    ("SKIP", r"#[^\n]*"),
    ("NUMBER", r"(?=\.?\d)\d*(?:\.(?!\.)\d*)?(?:[eE][+-]?\d+)?"),
    ("ARROW", r"-->"),
    ("DEFINE", r":="), ("DCOLON", r"::"), ("EQEQ", r"=="),
    ("ANDAND", r"&&"), ("OROR", r"\|\|"),
    ("LPAREN", r"\("), ("RPAREN", r"\)"), ("LBRACKET", r"\["), ("RBRACKET", r"\]"),
    ("COMMA", r","), ("STAR", r"\*"), ("PLUS", r"\+"), ("MINUS", r"-"),
    ("BANG", r"!"), ("AT", r"@"), ("COLON", r":"), ("EQ", r"="),
    ("EOF", r"\Z"),
], hints={"&": "'&&' or '||'", "|": "'&&' or '||'"})


# ---------------------------------------------------------------------------
# Parser: builds the system as it reads

class _Parser(TokenCursor):
    too_deep = "loop or expression nested too deeply"

    def __init__(self, tokens: list[Token], origin: str):
        super().__init__(tokens, origin)
        self.loop_values: dict[str, int] = {}  # each bound loop variable's value
        self.kind = SystemKind.MAMDANI
        self.inputs: tuple[str, ...] = ()
        self.outputs: tuple[str, ...] = ()
        self.vars: dict[str, Variable] = {}
        self.settings_kw: dict = {}
        # one entry per rule read: (first token, antecedent, consequents,
        # weight, refs); refs lists (name token, term, in antecedent?) in text
        # order, checked once the body is read, since a rule may name a
        # variable defined further down
        self.rules: list[tuple] = []
        self.refs: list[tuple[Token, str, bool]] = []

    def parse(self) -> FuzzySystem:
        name, head = self.parse_header()
        self.parse_body()
        self.expect_word("end")
        self.skip_newlines()
        self.expect("EOF", "end of input")
        for var in (*self.inputs, *self.outputs):
            if var not in self.vars:
                raise self.fail(f"variable {var} has no definition", head)
        rules = []
        for start, antecedent, consequents, weight, refs in self.rules:
            for tok, term, in_antecedent in refs:
                var = tok.text
                if in_antecedent and var not in self.inputs:
                    role = "an output" if var in self.outputs else "an unknown"
                    raise self.fail(f"rule antecedent references {var!r}, "
                                    f"{role} variable", tok)
                if not in_antecedent and var not in self.outputs:
                    raise self.fail(f"rule consequent {var!r} is not an output "
                                    f"variable", tok)
                if term not in self.vars[var].terms:
                    raise self.fail(f"variable {var!r} has no term {term!r}", tok)
            if not 0.0 <= weight <= 1.0:
                raise self.fail(f"rule weight must lie in [0, 1], got {weight:g}", start)
            rules.append(Rule(antecedent, consequents, weight))
        try:
            return FuzzySystem(
                name=name,
                kind=self.kind,
                inputs={n: self.vars[n] for n in self.inputs},
                outputs={n: self.vars[n] for n in self.outputs},
                rules=tuple(rules),
                settings=EngineSettings(**self.settings_kw))
        except ModelError as exc:
            raise self.fail(str(exc), head)

    # -- token plumbing beyond the cursor's

    def expect_word(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != word:
            raise self.unexpected(tok, f"'{word}'")
        return self.next()

    def skip_newlines(self) -> None:
        while self.peek().kind == "NEWLINE":
            self.next()

    def end_statement(self) -> None:
        tok = self.peek()
        if tok.kind == "NEWLINE":
            self.next()
            self.skip_newlines()
        elif tok.kind != "EOF":
            raise self.unexpected(tok, "end of line")

    # -- numbers and names

    def signed_number(self) -> Token:
        sign = 1.0
        tok = self.peek()
        if tok.kind in ("MINUS", "PLUS"):
            self.next()
            sign = -1.0 if tok.kind == "MINUS" else 1.0
            num = self.expect("NUMBER", "a number")
        else:
            num = self.expect("NUMBER", "a number")
        return num._replace(value=sign * num.value)

    def integer(self, tok: Token) -> int:
        # An integer token holds only decimal digits: int() keeps them all,
        # where the token's float value rounds past 2**53 and overflows.
        try:
            return int(tok.text)
        except ValueError:  # more digits than int() converts
            raise self.fail("integer literal too long", tok)

    def unsigned_int(self, what: str) -> int:
        tok = self.peek()
        if tok.kind != "NUMBER" or not tok.is_int:
            raise self.fail(f"{what} must be integer literals", tok,
                            expected="an integer")
        self.next()
        return self.integer(tok)

    def var_name(self) -> Token:
        """Read ``x``, ``x[3]`` or ``x[i]`` as one IDENT token at ``x``,
        spelled ``x``, ``x3`` or ``x`` plus the value of loop variable ``i``."""
        ident = self.expect("IDENT", "an identifier")
        if self.peek().kind != "LBRACKET":
            return ident
        self.next()
        tok = self.peek()
        if tok.kind != "IDENT" and not (tok.kind == "NUMBER" and tok.is_int):
            raise self.unexpected(tok, "an index (integer or loop variable)")
        self.next()
        self.expect("RBRACKET", "']'")
        if tok.kind == "NUMBER":
            index = self.integer(tok)
        elif tok.text in self.loop_values:
            index = self.loop_values[tok.text]
        else:
            raise self.fail(f"loop variable {tok.text!r} used outside its loop", ident)
        return ident._replace(text=f"{ident.text}{index}")

    # -- header

    def parse_header(self) -> tuple[str, Token]:
        self.skip_newlines()
        first = self.peek()
        if first.kind == "IDENT" and first.text == "fis" and self.peek(1).kind == "EQ":
            self.next()
            self.next()
        if self.peek().kind == "AT":
            self.next()
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text not in _KINDS:
            raise self.unexpected(tok, "'mamfis', 'sugfis' or 'it2mamfis'")
        self.kind = _KINDS[self.next().text]
        self.expect_word("function")
        name = self.expect("IDENT", "the system name").text
        self.expect("LPAREN", "'('")
        self.inputs = tuple(self.parse_param_list("RPAREN"))
        self.expect("RPAREN", "')'")
        self.expect("DCOLON", "'::'")
        if self.peek().kind == "LPAREN":
            self.next()
            self.outputs = tuple(self.parse_param_list("RPAREN"))
            self.expect("RPAREN", "')'")
        else:
            self.outputs = tuple(self.parse_param("output declarations"))
        self.end_statement()
        if len({*self.inputs, *self.outputs}) != len(self.inputs) + len(self.outputs):
            raise self.fail(f"duplicate variable in header of {name!r}", tok)
        return name, tok

    def parse_param_list(self, closer: str) -> list[str]:
        names: list[str] = []
        if self.peek().kind == closer:
            return names
        names.extend(self.parse_param("parameter declarations"))
        while self.peek().kind == "COMMA":
            self.next()
            names.extend(self.parse_param("parameter declarations"))
        return names

    def parse_param(self, what: str) -> list[str]:
        ident = self.expect("IDENT", "a variable name")
        if self.peek().kind != "LBRACKET":
            return [ident.text]
        self.next()
        lo = self.unsigned_int("vector bounds")
        self.expect("COLON", "':'")
        hi = self.unsigned_int("vector bounds")
        self.expect("RBRACKET", "']'")
        if lo > hi:
            raise self.fail(f"empty vector range {lo}:{hi} in {what}", ident)
        if hi - lo + 1 > _MAX_EXPANSION:
            raise self.fail(f"vector range {lo}:{hi} too large", ident)
        return [f"{ident.text}{i}" for i in range(lo, hi + 1)]

    # -- statements

    def parse_body(self) -> int:
        """Read statements up to ``end`` or end of input, expanding loops,
        and return how many were read.  Past ``_MAX_EXPANSION`` statements
        it raises at the statement (or loop) that overflowed."""
        count = 0
        self.skip_newlines()
        while True:
            tok = self.peek()
            if tok.kind == "EOF" or tok.kind == "IDENT" and tok.text == "end":
                return count
            if tok.kind == "IDENT" and tok.text == "for":
                passes = self.parse_loop()
            else:
                self.parse_statement()
                passes = (1,)
            for n in passes:
                count += n
                if count > _MAX_EXPANSION:
                    raise self.fail("loop expansion produces too many statements", tok)
            self.skip_newlines()

    def parse_statement(self) -> None:
        tok = self.peek()
        if tok.kind == "IDENT":
            after = self.peek(1)
            if after.kind == "DEFINE":
                return self.parse_vardef()
            if after.kind == "EQ":
                return self.parse_setting()
            if after.kind == "LBRACKET":
                # Distinguish `x[i] := begin` from a rule starting `x[i] == POS`.
                probe = self.pos + 2
                depth = 1
                while depth and self.tokens[probe].kind not in ("EOF", "NEWLINE"):
                    k = self.tokens[probe].kind
                    depth += k == "LBRACKET"
                    depth -= k == "RBRACKET"
                    probe += 1
                if self.tokens[probe].kind == "DEFINE":
                    return self.parse_vardef()
        return self.parse_rule()

    def parse_loop(self):
        """Yield the statement count of each pass of a ``for`` loop, reading
        the body again for each value of the loop variable.  Loop nesting
        counts against the cursor's ``MAX_NESTING``."""
        start = self.expect_word("for")
        self.enter(start)
        var = self.expect("IDENT", "the loop variable").text
        self.expect_word("in")
        bounds_tok = self.peek()
        if bounds_tok.kind != "NUMBER":
            raise self.fail("loop bounds must be integer literals", bounds_tok,
                            expected="an integer")
        lo = self.unsigned_int("loop bounds")
        self.expect("COLON", "':'")
        hi = self.unsigned_int("loop bounds")
        self.end_statement()
        if lo > hi:
            raise self.fail(f"empty loop range {lo}:{hi}", start)
        body = self.pos
        outer = dict(self.loop_values)
        for value in range(lo, hi + 1):
            self.pos = body
            self.loop_values[var] = value
            count = self.parse_body()
            # every pass reads the same statements: stop once one reads none
            if not count:
                break
            yield count
        self.loop_values = outer
        self.leave()
        self.expect_word("end")
        self.end_statement()

    def parse_vardef(self) -> None:
        name = self.var_name()
        var = name.text
        self.expect("DEFINE", "':='")
        self.expect_word("begin")
        self.end_statement()
        if var not in self.inputs and var not in self.outputs:
            raise self.fail(f"variable {var!r} is not declared in the header", name)
        if var in self.vars:
            raise self.fail(f"duplicate variable definition {var!r}", name)
        is_output = var in self.outputs
        domain = None
        terms: dict = {}
        while True:
            tok = self.peek()
            if tok.kind == "IDENT" and tok.text == "end":
                self.next()
                self.end_statement()
                break
            if tok.kind == "EOF":
                raise self.fail("unterminated variable block", tok, expected="'end'")
            if tok.kind == "IDENT" and tok.text == "domain":
                self.next()
                self.expect("EQ", "'='")
                lo = self.signed_number().value
                self.expect("COLON", "':'")
                hi = self.signed_number().value
                self.end_statement()
                if domain is not None:
                    raise self.fail(f"duplicate domain for variable {var!r}", tok)
                if not lo < hi:
                    raise self.fail(f"domain of {var!r} must satisfy lo < hi, "
                                    f"got {lo:g}:{hi:g}", name)
                domain = (lo, hi)
                continue
            if tok.text in terms:
                raise self.fail(f"duplicate term {tok.text!r} in variable {var!r}", tok)
            terms[tok.text] = self.parse_termdef(is_output)
        if domain is None:
            raise self.fail(f"variable {var!r} has no domain", name)
        if not terms:
            raise self.fail(f"variable {var!r} declares no terms", name)
        try:
            self.vars[var] = Variable(var, Domain(*domain), terms)
        except ModelError as exc:
            raise self.fail(str(exc), name)

    def parse_termdef(self, is_output: bool):
        name = self.expect("IDENT", "a term name")
        self.expect("EQ", "'='")
        sugeno_output = self.kind is SystemKind.SUGENO and is_output
        if self.peek().kind == "IDENT" and self.peek(1).kind == "LPAREN":
            value = self.parse_mfcall()
            self.end_statement()
            if sugeno_output:
                raise self.fail("sugfis output terms must be constants or linear "
                                "expressions", name)
            it2 = self.kind is SystemKind.MAMDANI_IT2
            if it2 and not isinstance(value, IntervalMF):
                raise self.fail("it2mamfis terms must be IntervalMF pairs", name)
            if not it2 and isinstance(value, IntervalMF):
                raise self.fail("IntervalMF terms require an it2mamfis system", name)
            return value
        coeffs, offset = self.parse_sugeno_expr()
        self.end_statement()
        if not sugeno_output:
            raise self.fail("numeric consequents are only valid in sugfis "
                            "output blocks", name)
        try:
            return SugenoLinear(coeffs, offset) if coeffs else SugenoConstant(offset)
        except ModelError as exc:
            raise self.fail(str(exc), name)

    def parse_mfcall(self) -> MembershipFunction | IntervalMF:
        ctor = self.expect("IDENT", "a membership constructor")
        open_paren = self.expect("LPAREN", "'('")
        self.enter(open_paren)
        args: list = []
        if self.peek().kind != "RPAREN":
            args.append(self.parse_mfarg())
            while self.peek().kind == "COMMA":
                self.next()
                args.append(self.parse_mfarg())
        self.expect("RPAREN", "')'")
        self.leave()
        try:
            if ctor.text == "IntervalMF":
                if len(args) != 2 or not all(
                        isinstance(a, (MembershipFunction, IntervalMF)) for a in args):
                    raise self.fail("IntervalMF takes two membership constructors", ctor)
                if isinstance(args[0], IntervalMF) or isinstance(args[1], IntervalMF):
                    raise self.fail("IntervalMF cannot nest", ctor)
                return IntervalMF(*args)
            cls = MF_CONSTRUCTORS.get(ctor.text)
            if cls is None:
                raise self.fail(f"unknown membership constructor {ctor.text!r}", ctor,
                                expected=" | ".join([*MF_CONSTRUCTORS, "IntervalMF"]))
            if cls is PiecewiseLinear:
                if not all(isinstance(a, tuple) for a in args):
                    raise self.fail("PiecewiseLinearMF takes (x, y) pairs", ctor)
                return PiecewiseLinear(tuple(args))
            if not all(isinstance(a, float) for a in args):
                raise self.fail(f"{ctor.text} takes numeric parameters", ctor)
            try:
                return cls(*args)
            except TypeError:
                raise self.fail(f"wrong number of parameters for {ctor.text}", ctor)
        except ModelError as exc:
            raise self.fail(str(exc), ctor)

    def parse_mfarg(self):
        tok = self.peek()
        if tok.kind == "IDENT":
            return self.parse_mfcall()
        if tok.kind == "LPAREN":
            self.next()
            x = self.signed_number()
            self.expect("COMMA", "','")
            y = self.signed_number()
            self.expect("RPAREN", "')'")
            return (x.value, y.value)
        return self.signed_number().value

    def parse_sugeno_expr(self) -> tuple[tuple[tuple[str, float], ...], float]:
        """Read a Sugeno consequent as ``(coeffs, offset)``."""
        coeffs: list[tuple[str, float]] = []
        offset = None
        sign = 1.0
        first = True
        while True:
            tok = self.peek()
            if not first:
                if tok.kind == "PLUS":
                    self.next()
                    sign = 1.0
                elif tok.kind == "MINUS":
                    self.next()
                    sign = -1.0
                else:
                    break
            term_sign = sign
            tok = self.peek()
            if tok.kind in ("MINUS", "PLUS") and first:
                self.next()
                term_sign = -1.0 if tok.kind == "MINUS" else 1.0
                tok = self.peek()
            if tok.kind == "NUMBER":
                self.next()
                value = term_sign * tok.value
                if self.peek().kind == "STAR":
                    self.next()
                    ident = self.expect("IDENT", "an input variable name")
                    coeffs.append((ident.text, value))
                else:
                    offset = value if offset is None else offset + value
            elif tok.kind == "IDENT":
                self.next()
                coeffs.append((tok.text, term_sign))
            else:
                raise self.unexpected(tok, "a constant or linear term")
            first = False
            sign = 1.0
        return tuple(coeffs), 0.0 if offset is None else offset

    def parse_setting(self) -> None:
        key = self.expect("IDENT", "a setting name")
        self.expect("EQ", "'='")
        tok = self.peek()
        if tok.kind == "IDENT":
            value: object = tok.text
        elif tok.kind == "NUMBER":
            value = self.integer(tok) if tok.is_int else tok.value
        else:
            raise self.unexpected(tok, "a setting value")
        self.next()
        self.end_statement()
        if key.text == "resolution":
            if not isinstance(value, int):
                raise self.fail("resolution must be an integer literal", key)
            try:  # the model's bound, reported here
                EngineSettings(resolution=value)
            except ModelError as exc:
                raise self.fail(str(exc), key)
            self.settings_kw["resolution"] = value
            return
        if key.text not in _SETTINGS:
            raise self.fail(f"unknown setting {key.text!r}", key,
                            expected=", ".join(map(repr, _SETTINGS)) + " or 'resolution'")
        field_name, names = _SETTINGS[key.text]
        choice = names.get(value) if isinstance(value, str) else None
        if choice is None:
            raise self.fail(f"unknown value {value!r} for setting {key.text!r}", key,
                            expected=" | ".join(names))
        self.settings_kw[field_name] = choice

    def parse_rule(self) -> None:
        start = self.peek()
        self.refs = refs = []
        antecedent = self.parse_prop()
        self.expect("ARROW", "'-->'")
        consequents = [self.parse_relation(False)]
        while self.peek().kind == "COMMA":
            self.next()
            consequents.append(self.parse_relation(False))
        weight = 1.0
        if self.peek().kind == "STAR":
            self.next()
            weight = self.signed_number().value
        self.end_statement()
        self.rules.append((start, antecedent, tuple(consequents), weight, refs))

    def parse_relation(self, in_antecedent: bool) -> Relation:
        name = self.var_name()
        self.expect("EQEQ", "'=='")
        term = self.expect("IDENT", "a term name").text
        self.refs.append((name, term, in_antecedent))
        return Relation(name.text, term)

    def parse_prop(self) -> Proposition:
        node = self.parse_andprop()
        while self.peek().kind == "OROR":
            self.next()
            node = Or(node, self.parse_andprop())
        return node

    def parse_andprop(self) -> Proposition:
        node = self.parse_unary()
        while self.peek().kind == "ANDAND":
            self.next()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Proposition:
        tok = self.peek()
        if tok.kind == "BANG":
            self.next()
            self.enter(tok)
            node = Not(self.parse_unary())
            self.leave()
            return node
        if tok.kind == "LPAREN":
            self.next()
            self.enter(tok)
            node = self.parse_prop()
            self.expect("RPAREN", "')'")
            self.leave()
            return node
        return self.parse_relation(True)


def parse_system(text: str, origin: str = "<inline>") -> FuzzySystem:
    """Parse DSL source into a validated :class:`FuzzySystem`.

    Raises :class:`ParseError` (with line/column) for any malformed input;
    never raises anything else, however garbled the source.
    """
    if not isinstance(text, str):
        raise ParseError("source must be text", origin=origin)
    return _Parser(_LEXER.tokens(text, origin), origin).parse()


# ---------------------------------------------------------------------------
# Pretty-printer

_KIND_NAMES = {v: k for k, v in _KINDS.items()}

_MF_NAMES = {cls: name for name, cls in MF_CONSTRUCTORS.items()}


def _format_mf(mf) -> str:
    if isinstance(mf, IntervalMF):
        return f"IntervalMF({_format_mf(mf.lower)}, {_format_mf(mf.upper)})"
    if isinstance(mf, PiecewiseLinear):
        pts = ", ".join(f"({x!r}, {y!r})" for x, y in mf.points)
        return f"PiecewiseLinearMF({pts})"
    args = ", ".join(repr(getattr(mf, f.name)) for f in fields(mf))
    return f"{_MF_NAMES[type(mf)]}({args})"


def _format_consequent_value(value) -> str:
    if isinstance(value, SugenoConstant):
        return repr(value.value)
    parts = []
    for name, coeff in value.coeffs:
        lead = "" if not parts else (" - " if coeff < 0 else " + ")
        shown = coeff if not parts else abs(coeff)
        parts.append(f"{lead}{shown!r}*{name}")
    tail = " - " if value.offset < 0 else (" + " if parts else "")
    shown_offset = abs(value.offset) if parts else value.offset
    parts.append(f"{tail}{shown_offset!r}")
    return "".join(parts)


def format_proposition(p: Proposition) -> str:
    return _format_prop(p, 0)


def _format_prop(p: Proposition, parent_level: int) -> str:
    # levels: Or = 1, And = 2, Not = 3; parenthesize when binding would change
    if isinstance(p, Relation):
        return f"{p.variable} == {p.term}"
    if isinstance(p, Not):
        return f"!{_format_prop(p.operand, 3)}"
    if isinstance(p, And):
        text = f"{_format_prop(p.left, 2)} && {_format_prop(p.right, 3)}"
        level = 2
    elif isinstance(p, Or):
        text = f"{_format_prop(p.left, 1)} || {_format_prop(p.right, 2)}"
        level = 1
    else:
        raise ModelError(f"cannot format proposition {p!r}")
    return f"({text})" if level < parent_level else text


def format_rule(rule: Rule) -> str:
    conseq = ", ".join(f"{rel.variable} == {rel.term}" for rel in rule.consequents)
    text = f"{format_proposition(rule.antecedent)} --> {conseq}"
    if rule.weight != 1.0:
        text += f" * {rule.weight!r}"
    return text


def format_system(fis: FuzzySystem) -> str:
    """Render a system as canonical DSL text; re-parsing reproduces the
    system exactly (term order, rule order, parameters bit-equal)."""
    lines = []
    outs = ", ".join(fis.outputs)
    if len(fis.outputs) > 1:
        outs = f"({outs})"
    ins = ", ".join(fis.inputs)
    lines.append(f"fis = @{_KIND_NAMES[fis.kind]} function {fis.name}({ins})::{outs}")
    for name, var in (*fis.inputs.items(), *fis.outputs.items()):
        lines.append(f"    {name} := begin")
        lines.append(f"        domain = {var.domain.low!r}:{var.domain.high!r}")
        for term, value in var.terms.items():
            if isinstance(value, (SugenoConstant, SugenoLinear)):
                lines.append(f"        {term} = {_format_consequent_value(value)}")
            else:
                lines.append(f"        {term} = {_format_mf(value)}")
        lines.append("    end")
        lines.append("")
    for rule in fis.rules:
        lines.append(f"    {format_rule(rule)}")
    lines.append("")
    for key, (field_name, names) in _SETTINGS.items():
        value = getattr(fis.settings, field_name)
        lines.append(f"    {key} = {next(n for n, v in names.items() if v is value)}")
    lines.append(f"    resolution = {fis.settings.resolution}")
    lines.append("end")
    return "\n".join(lines) + "\n"
