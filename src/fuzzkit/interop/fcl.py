"""Reader for the IEC 61131-7 Fuzzy Control Language (required subset).

Supported constructs: FUNCTION_BLOCK, VAR_INPUT/VAR_OUTPUT with REAL,
FUZZIFY blocks with point-list and singleton TERMs, DEFUZZIFY with METHOD
COG/COGS/COA/MOM/LM/RM plus DEFAULT and RANGE, and RULEBLOCK with
AND/OR/ACT/ACCU operator lines and IF/THEN rules (NOT, parentheses, IS NOT,
WITH weight, multiple conclusions).  METHOD COGS switches the whole system
to Sugeno semantics with constant consequents.  Keywords are
case-insensitive.  The token table is compiled by the lexer shared with the
DSL (``common``), and the parser extends the shared ``TokenCursor``.
"""

from __future__ import annotations

from ..errors import ModelError, ParseError
from ..mf import PiecewiseLinear, Singleton
from ..model import (And, Domain, EngineSettings, FuzzySystem, Not, Or,
                     Relation, Rule, SugenoConstant, SystemKind, Variable)
from ..norms import Defuzzifier, Implication, SNorm, TNorm
from .common import FormatDiagnostics, Lexer, Token, TokenCursor

_AND_METHODS = {"MIN": TNorm.MIN, "PROD": TNorm.PROD, "BDIF": TNorm.LUKASIEWICZ}
_OR_METHODS = {"MAX": SNorm.MAX, "ASUM": SNorm.PROB_SUM, "BSUM": SNorm.BOUNDED_SUM}
_ACT_METHODS = {"MIN": Implication.MIN, "PROD": Implication.PROD}
_ACCU_METHODS = {"MAX": SNorm.MAX, "BSUM": SNorm.BOUNDED_SUM}
_DEFUZZ_METHODS = {
    "COG": Defuzzifier.CENTROID,
    "COA": Defuzzifier.BISECTOR,
    "MOM": Defuzzifier.MEAN_OF_MAXIMA,
    "LM": Defuzzifier.FIRST_OF_MAXIMA,
    "RM": Defuzzifier.LAST_OF_MAXIMA,
}

_LEXER = Lexer([
    ("EOF", r"(?://[^\n]*)?\Z"),  # a last-line // comment leaves EOF where it starts
    ("SKIP", r"\n|//[^\n]*|\(\*(?s:.*?)\*\)"),
    ("OPEN_COMMENT", r"\(\*"),
    ("NUMBER", r"(?=\.?\d|[+-][.\d])[+-]?\d*(?:\.(?!\.)\d*)?(?:[eE][+-]?\d+)?"),
    ("ASSIGN", r":="), ("DOTS", r"\.\."), ("LPAREN", r"\("), ("RPAREN", r"\)"),
    ("COMMA", r","), ("SEMI", r";"), ("COLON", r":"),
], errors={"OPEN_COMMENT": "unterminated comment"})


class _FclParser(TokenCursor):
    too_deep = "rule expression nested too deeply"

    def __init__(self, text: str, origin: str):
        super().__init__(_LEXER.tokens(text, origin), origin)
        self.diagnostics = FormatDiagnostics("fcl")
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.domains: dict[str, tuple[float, float]] = {}
        self.terms: dict[str, dict[str, object]] = {}
        self.block_lines: dict[str, int] = {}
        self.methods: dict[str, str] = {}
        self.defaults: dict[str, float] = {}
        self.operators: dict[str, object] = {}
        self.rules: list[Rule] = []

    # -- token plumbing beyond the cursor's

    def keyword(self) -> str:
        tok = self.peek()
        return tok.text.upper() if tok.kind == "IDENT" else ""

    def expect_kw(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text.upper() != word:
            raise self.unexpected(tok, f"'{word}'")
        return self.next()

    def ident(self, what: str) -> Token:
        return self.expect("IDENT", what)

    def number(self) -> float:
        return self.expect("NUMBER", "a number").value

    # -- grammar

    def parse(self) -> tuple[FuzzySystem, FormatDiagnostics]:
        self.expect_kw("FUNCTION_BLOCK")
        name = self.ident("a block name").text
        while True:
            kw = self.keyword()
            if kw == "END_FUNCTION_BLOCK":
                self.next()
                break
            if kw == "VAR_INPUT":
                self.parse_vars(self.inputs)
            elif kw == "VAR_OUTPUT":
                self.parse_vars(self.outputs)
            elif kw == "FUZZIFY":
                self.parse_block(kw, self.inputs, "input")
            elif kw == "DEFUZZIFY":
                self.parse_block(kw, self.outputs, "output")
            elif kw == "RULEBLOCK":
                self.parse_ruleblock()
            else:
                tok = self.peek()
                raise self.fail(f"unsupported construct {tok.text!r}", tok)
        return self.build(name)

    def parse_vars(self, into: list[str]) -> None:
        self.next()
        while self.keyword() != "END_VAR":
            if self.peek().kind == "EOF":
                raise self.fail("unterminated variable section")
            name = self.ident("a variable name")
            self.expect("COLON", "':'")
            vtype = self.ident("a type name")
            if vtype.text.upper() != "REAL":
                raise self.fail(f"unsupported variable type {vtype.text!r}", vtype)
            self.expect("SEMI", "';'")
            if name.text in self.inputs or name.text in self.outputs:
                raise self.fail(f"duplicate variable {name.text!r}", name)
            into.append(name.text)
        self.next()

    def parse_block(self, block: str, pool: list[str], role: str) -> None:
        """A FUZZIFY (inputs) or DEFUZZIFY (outputs) block; only the latter
        takes METHOD and DEFAULT lines."""
        start = self.next()
        var = self.ident("a variable name")
        if var.text not in pool:
            raise self.fail(f"{block} block for {var.text!r}, which is not a "
                            f"declared {role}", var)
        self.block_lines[var.text] = start.line
        terms = self.terms.setdefault(var.text, {})
        while self.keyword() != f"END_{block}":
            kw = self.keyword()
            if kw == "TERM":
                name, value = self.parse_term()
                if name in terms:
                    raise self.fail(f"duplicate term {name!r} in {var.text!r}")
                terms[name] = value
            elif kw == "RANGE":
                self.domains[var.text] = self.parse_range()
            elif kw == "METHOD" and block == "DEFUZZIFY":
                tok = self.next()
                self.expect("COLON", "':'")
                method = self.ident("a defuzzification method").text.upper()
                self.expect("SEMI", "';'")
                if method != "COGS" and method not in _DEFUZZ_METHODS:
                    raise self.fail(f"unsupported defuzzification method {method!r}", tok)
                self.methods[var.text] = method
            elif kw == "DEFAULT" and block == "DEFUZZIFY":
                self.next()
                self.expect("ASSIGN", "':='")
                self.defaults[var.text] = self.number()
                self.expect("SEMI", "';'")
            elif self.peek().kind == "EOF":
                raise self.fail(f"unterminated {block} block")
            else:
                tok = self.peek()
                raise self.fail(f"unsupported construct {tok.text!r} in {block}", tok)
        self.next()

    def parse_term(self) -> tuple[str, object]:
        self.next()
        name = self.ident("a term name")
        self.expect("ASSIGN", "':='")
        points: list[tuple[float, float]] = []
        single: float | None = None
        if self.peek().kind == "NUMBER":
            single = self.number()
        else:
            while self.peek().kind == "LPAREN":
                self.next()
                x = self.number()
                self.expect("COMMA", "','")
                y = self.number()
                self.expect("RPAREN", "')'")
                points.append((x, y))
            if not points:
                raise self.fail(f"term {name.text!r} has no value")
        self.expect("SEMI", "';'")
        if single is not None:
            return name.text, ("singleton", single, name)
        return name.text, ("points", tuple(points), name)

    def parse_range(self) -> tuple[float, float]:
        self.next()
        self.expect("ASSIGN", "':='")
        self.expect("LPAREN", "'('")
        lo = self.number()
        self.expect("DOTS", "'..'")
        hi = self.number()
        self.expect("RPAREN", "')'")
        self.expect("SEMI", "';'")
        return (lo, hi)

    def parse_ruleblock(self) -> None:
        self.next()
        if self.peek().kind in ("IDENT", "NUMBER") and \
                self.keyword() not in ("AND", "OR", "ACT", "ACCU", "RULE", "END_RULEBLOCK"):
            self.next()  # optional block name
        while self.keyword() != "END_RULEBLOCK":
            kw = self.keyword()
            if kw in ("AND", "OR", "ACT", "ACCU"):
                tok = self.next()
                self.expect("COLON", "':'")
                method = self.ident("an operator name")
                self.expect("SEMI", "';'")
                self.set_operator(kw, method)
            elif kw == "RULE":
                self.parse_rule()
            elif self.peek().kind == "EOF":
                raise self.fail("unterminated RULEBLOCK")
            else:
                tok = self.peek()
                raise self.fail(f"unsupported construct {tok.text!r} in RULEBLOCK", tok)
        self.next()

    def set_operator(self, kw: str, method: Token) -> None:
        name = method.text.upper()
        tables = {"AND": ("conjunction", _AND_METHODS),
                  "OR": ("disjunction", _OR_METHODS),
                  "ACT": ("implication", _ACT_METHODS),
                  "ACCU": ("aggregation", _ACCU_METHODS)}
        field_name, table = tables[kw]
        if kw == "ACCU" and name == "NSUM":
            self.diagnostics.warn(
                f"line {method.line}",
                "ACCU NSUM approximated by probabilistic sum")
            self.operators[field_name] = SNorm.PROB_SUM
            return
        if name not in table:
            raise self.fail(f"unsupported {kw} method {method.text!r}", method)
        self.operators[field_name] = table[name]

    def parse_rule(self) -> None:
        self.next()
        if self.peek().kind in ("NUMBER", "IDENT") and self.keyword() != "IF":
            self.next()  # rule label
        self.expect("COLON", "':'")
        self.expect_kw("IF")
        antecedent = self.parse_or()
        self.expect_kw("THEN")
        consequents = [self.parse_conclusion()]
        while self.peek().kind == "COMMA":
            self.next()
            consequents.append(self.parse_conclusion())
        weight = 1.0
        if self.keyword() == "WITH":
            self.next()
            weight = self.number()
        self.expect("SEMI", "';'")
        self.rules.append(Rule(antecedent, tuple(consequents), weight))

    def parse_or(self):
        node = self.parse_and()
        while self.keyword() == "OR":
            self.next()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_atom()
        while self.keyword() == "AND":
            self.next()
            node = And(node, self.parse_atom())
        return node

    def parse_atom(self):
        self.enter(self.peek())
        try:
            if self.keyword() == "NOT":
                self.next()
                return Not(self.parse_atom())
            if self.peek().kind == "LPAREN":
                self.next()
                node = self.parse_or()
                self.expect("RPAREN", "')'")
                return node
            var = self.ident("a variable name")
            self.expect_kw("IS")
            negated = False
            if self.keyword() == "NOT":
                self.next()
                negated = True
            term = self.ident("a term name")
            rel = self.relation(var, term, antecedent=True)
            return Not(rel) if negated else rel
        finally:
            self.leave()

    def parse_conclusion(self) -> Relation:
        var = self.ident("a variable name")
        self.expect_kw("IS")
        term = self.ident("a term name")
        return self.relation(var, term, antecedent=False)

    def relation(self, var: Token, term: Token, antecedent: bool) -> Relation:
        pool = self.inputs if antecedent else self.outputs
        role = "input" if antecedent else "output"
        if var.text not in pool:
            raise self.fail(f"rule references {var.text!r}, which is not a "
                            f"declared {role}", var)
        terms = self.terms.get(var.text, {})
        if term.text not in terms:
            raise self.fail(f"variable {var.text!r} has no term {term.text!r}", term)
        return Relation(var.text, term.text)

    # -- assembly

    def build(self, name: str) -> tuple[FuzzySystem, FormatDiagnostics]:
        if not self.inputs:
            raise ParseError("no VAR_INPUT section", origin=self.origin)
        if not self.outputs:
            raise ParseError("no VAR_OUTPUT section", origin=self.origin)
        for var in (*self.inputs, *self.outputs):
            if var not in self.terms:
                block = "FUZZIFY" if var in self.inputs else "DEFUZZIFY"
                raise ParseError(f"variable {var!r} has no {block} block",
                                 origin=self.origin)
        sugeno = self.resolve_methods()
        kind = SystemKind.SUGENO if sugeno else SystemKind.MAMDANI
        inputs = {v: self.build_variable(v, output=False) for v in self.inputs}
        outputs = {v: self.build_variable(v, output=True, sugeno=sugeno)
                   for v in self.outputs}
        settings_kw = dict(self.operators)
        if not sugeno:
            settings_kw["defuzzifier"] = _DEFUZZ_METHODS[self.methods[self.outputs[0]]]
        try:
            fis = FuzzySystem(
                name=name,
                kind=kind,
                inputs=inputs,
                outputs=outputs,
                rules=tuple(self.rules),
                settings=EngineSettings(**settings_kw),
                zero_fire_defaults=dict(self.defaults))
        except ModelError as exc:
            raise ParseError(str(exc), origin=self.origin)
        return fis, self.diagnostics

    def resolve_methods(self) -> bool:
        filled = {}
        for var in self.outputs:
            method = self.methods.get(var)
            if method is None:
                self.diagnostics.warn(
                    f"line {self.block_lines.get(var, 0)}",
                    f"DEFUZZIFY {var} has no METHOD; defaulting to COG")
                method = "COG"
            filled[var] = method
        self.methods = filled
        methods = set(filled.values())
        if len(methods) > 1:
            raise ParseError("unsupported construct: outputs use differing "
                             f"DEFUZZIFY methods {sorted(methods)}", origin=self.origin)
        return methods == {"COGS"}

    def build_variable(self, name: str, output: bool, sugeno: bool = False) -> Variable:
        raw = self.terms[name]
        terms: dict[str, object] = {}
        xs: list[float] = []
        for term_name, (shape, payload, tok) in raw.items():
            if output and sugeno:
                if shape != "singleton":
                    raise self.fail(f"term {term_name!r} must be a single value "
                                    f"under METHOD COGS", tok)
                terms[term_name] = SugenoConstant(payload)
                xs.append(payload)
            elif shape == "singleton":
                terms[term_name] = Singleton(payload)
                xs.append(payload)
            else:
                try:
                    terms[term_name] = PiecewiseLinear(payload)
                except ModelError as exc:
                    raise self.fail(str(exc), tok)
                xs.extend(p[0] for p in payload)
        domain = self.domains.get(name)
        if domain is None:
            lo, hi = min(xs), max(xs)
            if not lo < hi:
                raise ParseError(f"cannot infer a domain for {name!r} from its "
                                 f"term points", origin=self.origin)
            self.diagnostics.warn(
                f"line {self.block_lines.get(name, 0)}",
                f"RANGE missing for {name!r}; domain inferred from term points")
            domain = (lo, hi)
        try:
            return Variable(name, Domain(*domain), terms)
        except ModelError as exc:
            raise ParseError(str(exc), origin=self.origin)


def parse_fcl(text: str, origin: str = "<fcl>") -> tuple[FuzzySystem, FormatDiagnostics]:
    """Parse Fuzzy Control Language text into a system plus diagnostics.

    Raises ParseError for malformed or unsupported input; never crashes on
    arbitrary bytes.
    """
    if not isinstance(text, str):
        raise ParseError("source must be text", origin=origin)
    return _FclParser(text, origin).parse()
