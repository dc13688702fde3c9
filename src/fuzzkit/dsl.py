"""Textual fuzzy-system DSL: token table, recursive-descent parser that
expands loops as it reads them, semantic checks and the canonical
pretty-printer.  The token table is compiled by the lexer shared with the FCL
reader (``interop.common``), and the parser extends the shared
``TokenCursor``.

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
the outer one until its ``end``.

Settings lines select pipeline operators by name, e.g. ``and = ProdAnd``,
``defuzzifier = BisectorDefuzzifier``, ``resolution = 201``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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
# Statement-level AST (loops already expanded; names are IDENT tokens)

@dataclass(frozen=True)
class MFCall:
    ctor: str
    args: tuple
    line: int
    column: int


@dataclass(frozen=True)
class SugenoExpr:
    coeffs: tuple[tuple[str, float], ...]
    offset: float


@dataclass(frozen=True)
class TermDef:
    name: str
    rhs: object
    line: int
    column: int


@dataclass(frozen=True)
class VarDefStmt:
    name: Token
    domain: tuple[float, float] | None
    terms: tuple[TermDef, ...]
    line: int
    column: int


@dataclass(frozen=True)
class SettingStmt:
    key: str
    value: object
    line: int
    column: int


@dataclass(frozen=True)
class PRel(Proposition):
    var: Token
    term: str


@dataclass(frozen=True)
class RuleStmt:
    antecedent: Proposition
    consequents: tuple[tuple[Token, str], ...]
    weight: float | None
    line: int
    column: int


@dataclass(frozen=True)
class SystemAst:
    kind: SystemKind
    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    body: tuple
    line: int = 1
    column: int = 1


# ---------------------------------------------------------------------------
# Parser

class _Parser(TokenCursor):
    def __init__(self, tokens: list[Token], origin: str):
        super().__init__(tokens, origin)
        self.loop_values: dict[str, int] = {}  # each bound loop variable's value

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

    def unsigned_int(self, what: str) -> int:
        tok = self.peek()
        if tok.kind != "NUMBER" or not tok.is_int:
            raise self.fail(f"{what} must be integer literals", tok,
                            expected="an integer")
        self.next()
        return int(tok.value)

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
            index = int(tok.value)
        elif tok.text in self.loop_values:
            index = self.loop_values[tok.text]
        else:
            raise self.fail(f"loop variable {tok.text!r} used outside its loop", ident)
        return ident._replace(text=f"{ident.text}{index}")

    # -- header

    def parse_header(self) -> tuple[SystemKind, str, tuple[str, ...], tuple[str, ...], Token]:
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
        kind = _KINDS[self.next().text]
        self.expect_word("function")
        name = self.expect("IDENT", "the system name")
        self.expect("LPAREN", "'('")
        inputs = self.parse_param_list("RPAREN")
        self.expect("RPAREN", "')'")
        self.expect("DCOLON", "'::'")
        if self.peek().kind == "LPAREN":
            self.next()
            outputs = self.parse_param_list("RPAREN")
            self.expect("RPAREN", "')'")
        else:
            outputs = self.parse_param("output declarations")
        self.end_statement()
        return kind, name.text, tuple(inputs), tuple(outputs), tok

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

    def parse_body(self) -> list:
        """Read statements up to ``end`` or end of input, expanding loops.
        Past ``_MAX_EXPANSION`` statements it raises at the statement (or
        loop) that overflowed."""
        statements = []
        self.skip_newlines()
        while True:
            tok = self.peek()
            if tok.kind == "EOF" or tok.kind == "IDENT" and tok.text == "end":
                return statements
            if tok.kind == "IDENT" and tok.text == "for":
                passes = self.parse_loop()
            else:
                passes = [[self.parse_statement()]]
            for part in passes:
                statements.extend(part)
                if len(statements) > _MAX_EXPANSION:
                    raise self.fail("loop expansion produces too many statements", tok)
            self.skip_newlines()

    def parse_statement(self):
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
        """Yield the statements of each pass of a ``for`` loop, reading the
        body again for each value of the loop variable."""
        start = self.expect_word("for")
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
        body = self.pos
        outer = dict(self.loop_values)
        values = range(lo, hi + 1)
        for value in values or [lo]:  # an empty range is read once, to find its end
            self.pos = body
            self.loop_values[var] = value
            statements = self.parse_body()
            # every pass reads the same statements: stop once one yields none
            if not (values and statements):
                break
            yield statements
        self.loop_values = outer
        self.expect_word("end")
        self.end_statement()
        if not values:
            raise self.fail(f"empty loop range {lo}:{hi}", start)

    def parse_vardef(self) -> VarDefStmt:
        name = self.var_name()
        self.expect("DEFINE", "':='")
        self.expect_word("begin")
        self.end_statement()
        domain = None
        terms: list[TermDef] = []
        while True:
            tok = self.peek()
            if tok.kind == "IDENT" and tok.text == "end":
                self.next()
                self.end_statement()
                return VarDefStmt(name, domain, tuple(terms), name.line, name.column)
            if tok.kind == "EOF":
                raise self.fail("unterminated variable block", tok, expected="'end'")
            if tok.kind == "IDENT" and tok.text == "domain":
                self.next()
                self.expect("EQ", "'='")
                lo = self.signed_number()
                self.expect("COLON", "':'")
                hi = self.signed_number()
                self.end_statement()
                if domain is not None:
                    raise self.fail(f"duplicate domain for variable {name.text!r}", tok)
                domain = (lo.value, hi.value)
                continue
            terms.append(self.parse_termdef())

    def parse_termdef(self) -> TermDef:
        name = self.expect("IDENT", "a term name")
        self.expect("EQ", "'='")
        tok = self.peek()
        if tok.kind == "IDENT" and self.peek(1).kind == "LPAREN":
            rhs = self.parse_mfcall()
        else:
            rhs = self.parse_sugeno_expr()
        self.end_statement()
        return TermDef(name.text, rhs, name.line, name.column)

    def parse_mfcall(self) -> MFCall:
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
        return MFCall(ctor.text, tuple(args), ctor.line, ctor.column)

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

    def parse_sugeno_expr(self) -> SugenoExpr:
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
        return SugenoExpr(tuple(coeffs), 0.0 if offset is None else offset)

    def parse_setting(self) -> SettingStmt:
        key = self.expect("IDENT", "a setting name")
        self.expect("EQ", "'='")
        tok = self.peek()
        if tok.kind == "IDENT":
            self.next()
            value: object = tok.text
        elif tok.kind == "NUMBER":
            self.next()
            value = int(tok.value) if tok.is_int else tok.value
        else:
            raise self.unexpected(tok, "a setting value")
        self.end_statement()
        return SettingStmt(key.text, value, key.line, key.column)

    def parse_rule(self) -> RuleStmt:
        start = self.peek()
        antecedent = self.parse_prop()
        self.expect("ARROW", "'-->'")
        consequents = [self.parse_consequent()]
        while self.peek().kind == "COMMA":
            self.next()
            consequents.append(self.parse_consequent())
        weight = None
        if self.peek().kind == "STAR":
            self.next()
            weight = self.signed_number().value
        self.end_statement()
        return RuleStmt(antecedent, tuple(consequents), weight,
                        start.line, start.column)

    def parse_consequent(self) -> tuple[Token, str]:
        name = self.var_name()
        self.expect("EQEQ", "'=='")
        term = self.expect("IDENT", "a term name")
        return (name, term.text)

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
        name = self.var_name()
        self.expect("EQEQ", "'=='")
        term = self.expect("IDENT", "a term name")
        return PRel(name, term.text)


# ---------------------------------------------------------------------------
# Semantic analysis: statements -> FuzzySystem

class _Builder:
    def __init__(self, ast: SystemAst, origin: str):
        self.ast = ast
        self.origin = origin
        self.settings_kw: dict = {}
        self.vars: dict[str, Variable] = {}

    def fail(self, message: str, node, expected: str | None = None) -> ParseError:
        line = getattr(node, "line", 0)
        column = getattr(node, "column", 0)
        return ParseError(message, line, column, expected=expected, origin=self.origin)

    def build(self) -> FuzzySystem:
        ast = self.ast
        declared = set(ast.inputs) | set(ast.outputs)
        if len(declared) != len(ast.inputs) + len(ast.outputs):
            raise ParseError(f"duplicate variable in header of {ast.name!r}",
                             ast.line, ast.column, origin=self.origin)
        for st in ast.body:
            if isinstance(st, VarDefStmt):
                self.add_variable(st, declared)
            elif isinstance(st, SettingStmt):
                self.add_setting(st)
            elif not isinstance(st, RuleStmt):
                raise self.fail(f"unexpected statement {st!r}", st)
        for name in (*ast.inputs, *ast.outputs):
            if name not in self.vars:
                raise ParseError(f"variable {name} has no definition",
                                 ast.line, ast.column, origin=self.origin)
        rules = [self.build_rule(st) for st in ast.body
                 if isinstance(st, RuleStmt)]
        try:
            settings = EngineSettings(**self.settings_kw)
            return FuzzySystem(
                name=ast.name,
                kind=ast.kind,
                inputs={n: self.vars[n] for n in ast.inputs},
                outputs={n: self.vars[n] for n in ast.outputs},
                rules=tuple(rules),
                settings=settings)
        except ModelError as exc:
            raise ParseError(str(exc), ast.line, ast.column, origin=self.origin)

    def add_variable(self, st: VarDefStmt, declared: set) -> None:
        name = st.name.text
        if name not in declared:
            raise self.fail(f"variable {name!r} is not declared in the header", st)
        if name in self.vars:
            raise self.fail(f"duplicate variable definition {name!r}", st)
        if st.domain is None:
            raise self.fail(f"variable {name!r} has no domain", st)
        lo, hi = st.domain
        if not lo < hi:
            raise self.fail(f"domain of {name!r} must satisfy lo < hi, "
                            f"got {lo:g}:{hi:g}", st)
        if not st.terms:
            raise self.fail(f"variable {name!r} declares no terms", st)
        is_output = name in self.ast.outputs
        terms: dict = {}
        for term in st.terms:
            if term.name in terms:
                raise self.fail(f"duplicate term {term.name!r} in variable {name!r}", term)
            terms[term.name] = self.build_term(term, is_output)
        try:
            self.vars[name] = Variable(name, Domain(lo, hi), terms)
        except ModelError as exc:
            raise self.fail(str(exc), st)

    def build_term(self, term: TermDef, is_output: bool):
        rhs = term.rhs
        if isinstance(rhs, SugenoExpr):
            if self.ast.kind is not SystemKind.SUGENO or not is_output:
                raise self.fail("numeric consequents are only valid in sugfis "
                                "output blocks", term)
            if rhs.coeffs:
                return SugenoLinear(rhs.coeffs, rhs.offset)
            return SugenoConstant(rhs.offset)
        value = self.build_mf(rhs)
        if self.ast.kind is SystemKind.SUGENO and is_output:
            raise self.fail("sugfis output terms must be constants or linear "
                            "expressions", term)
        if self.ast.kind is SystemKind.MAMDANI_IT2 and not isinstance(value, IntervalMF):
            raise self.fail("it2mamfis terms must be IntervalMF pairs", term)
        if self.ast.kind is not SystemKind.MAMDANI_IT2 and isinstance(value, IntervalMF):
            raise self.fail("IntervalMF terms require an it2mamfis system", term)
        return value

    def build_mf(self, call) -> MembershipFunction | IntervalMF:
        if not isinstance(call, MFCall):
            raise self.fail("expected a membership constructor", call)
        if call.ctor == "IntervalMF":
            if len(call.args) != 2 or not all(isinstance(a, MFCall) for a in call.args):
                raise self.fail("IntervalMF takes two membership constructors", call)
            lower = self.build_mf(call.args[0])
            upper = self.build_mf(call.args[1])
            if isinstance(lower, IntervalMF) or isinstance(upper, IntervalMF):
                raise self.fail("IntervalMF cannot nest", call)
            try:
                return IntervalMF(lower, upper)
            except ModelError as exc:
                raise self.fail(str(exc), call)
        ctor = MF_CONSTRUCTORS.get(call.ctor)
        if ctor is None:
            raise self.fail(f"unknown membership constructor {call.ctor!r}", call,
                            expected=" | ".join([*MF_CONSTRUCTORS, "IntervalMF"]))
        try:
            if ctor is PiecewiseLinear:
                for a in call.args:
                    if not isinstance(a, tuple):
                        raise self.fail("PiecewiseLinearMF takes (x, y) pairs", call)
                return PiecewiseLinear(tuple(call.args))
            for a in call.args:
                if not isinstance(a, float):
                    raise self.fail(f"{call.ctor} takes numeric parameters", call)
            return ctor(*call.args)
        except TypeError:
            raise self.fail(f"wrong number of parameters for {call.ctor}", call)
        except ModelError as exc:
            raise self.fail(str(exc), call)

    def add_setting(self, st: SettingStmt) -> None:
        key = st.key
        if key == "resolution":
            if not isinstance(st.value, int):
                raise self.fail("resolution must be an integer literal", st)
            self.settings_kw["resolution"] = st.value
            return
        if key not in _SETTINGS:
            raise self.fail(f"unknown setting {key!r}", st,
                            expected=", ".join(map(repr, _SETTINGS)) + " or 'resolution'")
        field_name, names = _SETTINGS[key]
        value = names.get(st.value) if isinstance(st.value, str) else None
        if value is None:
            raise self.fail(f"unknown value {st.value!r} for setting {key!r}", st,
                            expected=" | ".join(names))
        self.settings_kw[field_name] = value

    def build_rule(self, st: RuleStmt) -> Rule:
        antecedent = self.resolve_prop(st.antecedent)
        consequents = []
        for name, term in st.consequents:
            var_name = name.text
            if var_name not in self.ast.outputs:
                raise ParseError(f"rule consequent {var_name!r} is not an output "
                                 f"variable", name.line, name.column, origin=self.origin)
            var = self.vars[var_name]
            if term not in var.terms:
                raise ParseError(f"variable {var_name!r} has no term {term!r}",
                                 name.line, name.column, origin=self.origin)
            consequents.append(Relation(var_name, term))
        weight = 1.0 if st.weight is None else st.weight
        if not 0.0 <= weight <= 1.0:
            raise self.fail(f"rule weight must lie in [0, 1], got {weight:g}", st)
        return Rule(antecedent, tuple(consequents), weight)

    def resolve_prop(self, p: Proposition) -> Proposition:
        if isinstance(p, PRel):
            var_name = p.var.text
            if var_name not in self.ast.inputs:
                kind = "an output" if var_name in self.ast.outputs else "an unknown"
                raise ParseError(f"rule antecedent references {var_name!r}, "
                                 f"{kind} variable", p.var.line, p.var.column,
                                 origin=self.origin)
            var = self.vars[var_name]
            if p.term not in var.terms:
                raise ParseError(f"variable {var_name!r} has no term {p.term!r}",
                                 p.var.line, p.var.column, origin=self.origin)
            return Relation(var_name, p.term)
        if isinstance(p, And):
            return And(self.resolve_prop(p.left), self.resolve_prop(p.right))
        if isinstance(p, Or):
            return Or(self.resolve_prop(p.left), self.resolve_prop(p.right))
        if isinstance(p, Not):
            return Not(self.resolve_prop(p.operand))
        raise ParseError(f"unsupported proposition {p!r}", origin=self.origin)


def parse_ast(text: str, origin: str = "<inline>") -> SystemAst:
    """Parse source into the statement AST, loops expanded."""
    if not isinstance(text, str):
        raise ParseError("source must be text", origin=origin)
    parser = _Parser(_LEXER.tokens(text, origin), origin)
    kind, name, inputs, outputs, head = parser.parse_header()
    body = parser.parse_body()
    parser.expect_word("end")
    parser.skip_newlines()
    parser.expect("EOF", "end of input")
    return SystemAst(kind, name, inputs, outputs, tuple(body),
                     head.line, head.column)


def parse_system(text: str, origin: str = "<inline>") -> FuzzySystem:
    """Parse DSL source into a validated :class:`FuzzySystem`.

    Raises :class:`ParseError` (with line/column) for any malformed input;
    never raises anything else, however garbled the source.
    """
    return _Builder(parse_ast(text, origin), origin).build()


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
