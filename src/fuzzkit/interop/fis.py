"""Reader for the Matlab Fuzzy Logic Toolbox `.fis` text format (v1).

Sections: ``[System]`` (Name/Type/methods), ``[Input<k>]``/``[Output<k>]``
(Name/Range/MF<k> lines) and ``[Rules]`` (one encoded line per rule with
1-based term indices, 0 = variable unused, negative = NOT, and trailing
``(weight) : connective`` where 1 = AND, 2 = OR).
"""

from __future__ import annotations

import re
from dataclasses import fields

from ..errors import ModelError, ParseError
from ..mf import (Gaussian, GeneralizedBell, Sigmoid, Trapezoidal, Triangular)
from ..model import (And, Domain, EngineSettings, FuzzySystem, Not, Or,
                     Relation, Rule, SugenoConstant, SugenoLinear, SystemKind,
                     Variable)
from ..norms import Defuzzifier, Implication, SNorm, TNorm
from .common import FormatDiagnostics

_SECTION_RE = re.compile(r"^\[([A-Za-z]+?)(\d*)\]$")
_MF_RE = re.compile(r"^\s*'([^']*)'\s*:\s*'([^']*)'\s*,\s*\[([^\]]*)\]\s*$")
_RULE_RE = re.compile(r"^\s*(.*?)\(\s*([^)]*?)\s*\)\s*:\s*(-?\d+)\s*$")

_AND_METHODS = {"min": TNorm.MIN, "prod": TNorm.PROD}
_OR_METHODS = {"max": SNorm.MAX, "probor": SNorm.PROB_SUM}
_IMP_METHODS = {"min": Implication.MIN, "prod": Implication.PROD}
_AGG_METHODS = {"max": SNorm.MAX, "probor": SNorm.PROB_SUM}
_DEFUZZ_METHODS = {
    "centroid": Defuzzifier.CENTROID,
    "bisector": Defuzzifier.BISECTOR,
    "mom": Defuzzifier.MEAN_OF_MAXIMA,
    "lom": Defuzzifier.LAST_OF_MAXIMA,
    "som": Defuzzifier.FIRST_OF_MAXIMA,
}
_MF_BUILDERS = {
    "trimf": Triangular,
    "trapmf": Trapezoidal,
    "gaussmf": Gaussian,
    "gbellmf": GeneralizedBell,
    "sigmf": Sigmoid,
}


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] == "'":
        return value[1:-1]
    return value


def _floats(body: str, line: int, origin: str) -> list[float]:
    out = []
    for piece in re.split(r"[,\s]+", body.strip()):
        if not piece:
            continue
        try:
            out.append(float(piece))
        except ValueError:
            raise ParseError(f"malformed number {piece!r}", line, origin=origin)
    return out


class _Section:
    def __init__(self, kind: str, index: int, line: int):
        self.kind = kind
        self.index = index
        self.line = line
        self.pairs: list[tuple[int, str, str]] = []
        self.raw: list[tuple[int, str]] = []


def _split_sections(text: str, origin: str) -> list[_Section]:
    sections: list[_Section] = []
    current: _Section | None = None
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip().rstrip("\r").strip()
        if not line or line.startswith(("%", "#")):
            continue
        m = _SECTION_RE.match(line)
        if m:
            index = int(m.group(2)) if m.group(2) else 0
            current = _Section(m.group(1), index, line_no)
            sections.append(current)
            continue
        if current is None:
            raise ParseError(f"content before the first section: {line!r}",
                             line_no, origin=origin)
        current.raw.append((line_no, line))
        if "=" in line:
            key, _, value = line.partition("=")
            current.pairs.append((line_no, key.strip(), value.strip()))
    return sections


class _FisBuilder:
    def __init__(self, text: str, origin: str):
        self.origin = origin
        self.diagnostics = FormatDiagnostics("fis")
        self.sections = _split_sections(text, origin)

    def fail(self, message: str, line: int = 0) -> ParseError:
        return ParseError(message, line, origin=self.origin)

    def build(self) -> tuple[FuzzySystem, FormatDiagnostics]:
        system = None
        inputs: list[_Section] = []
        outputs: list[_Section] = []
        rules: _Section | None = None
        for sec in self.sections:
            kind = sec.kind.lower()
            if kind == "system":
                system = sec
            elif kind == "input":
                inputs.append(sec)
            elif kind == "output":
                outputs.append(sec)
            elif kind == "rules":
                rules = sec
            else:
                raise self.fail(f"unknown section [{sec.kind}]", sec.line)
        if system is None:
            raise self.fail("missing [System] section")
        meta = {key.lower(): (line, value) for line, key, value in system.pairs}
        kind = self.system_kind(meta)
        settings = self.settings(meta, kind)
        name = _unquote(meta.get("name", (0, "fis"))[1]) or "fis"
        inputs.sort(key=lambda s: s.index)
        outputs.sort(key=lambda s: s.index)
        self.check_count(meta, "numinputs", len(inputs), "[Input] sections")
        self.check_count(meta, "numoutputs", len(outputs), "[Output] sections")
        input_vars = [self.variable(sec, kind, output=False, input_names=())
                      for sec in inputs]
        in_names = tuple(v.name for v in input_vars)
        output_vars = [self.variable(sec, kind, output=True, input_names=in_names)
                       for sec in outputs]
        rule_list = self.rules(rules, input_vars, output_vars)
        if rules is not None:
            self.check_count(meta, "numrules", len(rule_list), "rule lines")
        try:
            fis = FuzzySystem(
                name=name,
                kind=kind,
                inputs={v.name: v for v in input_vars},
                outputs={v.name: v for v in output_vars},
                rules=tuple(rule_list),
                settings=settings)
        except ModelError as exc:
            raise ParseError(str(exc), origin=self.origin)
        return fis, self.diagnostics

    def system_kind(self, meta) -> SystemKind:
        line, value = meta.get("type", (0, ""))
        type_name = _unquote(value).lower()
        if type_name == "mamdani":
            return SystemKind.MAMDANI
        if type_name == "sugeno":
            return SystemKind.SUGENO
        raise self.fail(f"unsupported system Type {_unquote(value)!r}", line)

    def settings(self, meta, kind: SystemKind) -> EngineSettings:
        kw = {}

        def lookup(key, table, field_name):
            if key not in meta:
                return
            line, value = meta[key]
            method = _unquote(value).lower()
            if method not in table:
                raise self.fail(f"unsupported {key.title()} {method!r}", line)
            kw[field_name] = table[method]

        lookup("andmethod", _AND_METHODS, "conjunction")
        lookup("ormethod", _OR_METHODS, "disjunction")
        lookup("impmethod", _IMP_METHODS, "implication")
        if "aggmethod" in meta:
            line, value = meta["aggmethod"]
            method = _unquote(value).lower()
            if method == "sum":
                self.diagnostics.warn(f"line {line}",
                                      "AggMethod 'sum' approximated by bounded sum")
                kw["aggregation"] = SNorm.BOUNDED_SUM
            elif method in _AGG_METHODS:
                kw["aggregation"] = _AGG_METHODS[method]
            else:
                raise self.fail(f"unsupported AggMethod {method!r}", line)
        if "defuzzmethod" in meta:
            line, value = meta["defuzzmethod"]
            method = _unquote(value).lower()
            if kind is SystemKind.SUGENO:
                if method not in ("wtaver", ""):
                    raise self.fail(f"unsupported DefuzzMethod {method!r} for "
                                    f"a sugeno system", line)
            elif method in _DEFUZZ_METHODS:
                kw["defuzzifier"] = _DEFUZZ_METHODS[method]
            else:
                raise self.fail(f"unsupported DefuzzMethod {method!r}", line)
        return EngineSettings(**kw)

    def check_count(self, meta, key: str, actual: int, what: str) -> None:
        if key not in meta:
            return
        line, value = meta[key]
        try:
            declared = int(float(_unquote(value)))
        except (ValueError, OverflowError):
            raise self.fail(f"malformed {key}: {value!r}", line)
        if declared != actual:
            self.diagnostics.warn(f"line {line}",
                                  f"{key} declares {declared} but found "
                                  f"{actual} {what}")

    def variable(self, sec: _Section, kind: SystemKind, output: bool,
                 input_names: tuple[str, ...]) -> Variable:
        tag = f"[{sec.kind}{sec.index}]"
        pairs = {key.lower(): (line, value) for line, key, value in sec.pairs}
        if "name" not in pairs:
            raise self.fail(f"{tag} is missing Name", sec.line)
        if "range" not in pairs:
            raise self.fail(f"{tag} is missing Range", sec.line)
        name = _unquote(pairs["name"][1])
        range_line, range_value = pairs["range"]
        bracket = re.search(r"\[([^\]]*)\]", range_value)
        if not bracket:
            raise self.fail(f"malformed Range {range_value!r}", range_line)
        bounds = _floats(bracket.group(1), range_line, self.origin)
        if len(bounds) != 2:
            raise self.fail(f"Range must have two bounds, got {len(bounds)}",
                            range_line)
        mf_entries = []
        for line, key, value in sec.pairs:
            m = re.fullmatch(r"[Mm][Ff](\d+)", key)
            if m:
                mf_entries.append((int(m.group(1)), line, value))
        mf_entries.sort()
        terms: dict[str, object] = {}
        for _, line, value in mf_entries:
            try:
                term_name, term_value = self.membership(value, line, kind, output,
                                                        input_names)
            except ModelError as exc:
                raise self.fail(str(exc), line)
            if term_name in terms:
                raise self.fail(f"duplicate term {term_name!r} in {tag}", line)
            terms[term_name] = term_value
        if "nummfs" in pairs:
            self.check_count({"nummfs": pairs["nummfs"]}, "nummfs",
                             len(terms), f"MF lines in {tag}")
        try:
            return Variable(name, Domain(bounds[0], bounds[1]), terms)
        except ModelError as exc:
            raise ParseError(str(exc), sec.line, origin=self.origin)

    def membership(self, value: str, line: int, kind: SystemKind, output: bool,
                   input_names: tuple[str, ...]):
        m = _MF_RE.match(value)
        if not m:
            raise self.fail(f"malformed MF line {value!r}", line)
        term_name = m.group(1)
        mf_type = m.group(2).strip().lower()
        params = _floats(m.group(3), line, self.origin)
        sugeno_output = output and kind is SystemKind.SUGENO
        if mf_type == "constant":
            if not sugeno_output:
                raise self.fail("MF type 'constant' is only valid for sugeno "
                                "outputs", line)
            if len(params) != 1:
                raise self.fail(f"'constant' takes 1 parameter, got {len(params)}",
                                line)
            return term_name, SugenoConstant(params[0])
        if mf_type == "linear":
            if not sugeno_output:
                raise self.fail("MF type 'linear' is only valid for sugeno "
                                "outputs", line)
            if len(params) != len(input_names) + 1:
                raise self.fail(f"'linear' takes {len(input_names) + 1} "
                                f"parameters, got {len(params)}", line)
            coeffs = tuple(zip(input_names, params[:-1]))
            return term_name, SugenoLinear(coeffs, params[-1])
        if sugeno_output:
            raise self.fail(f"unsupported MF type {mf_type!r} for a sugeno "
                            f"output (use 'constant' or 'linear')", line)
        ctor = _MF_BUILDERS.get(mf_type)
        if ctor is None:
            raise self.fail(f"unknown MF type {mf_type!r}", line)
        arity = len(fields(ctor))
        if len(params) != arity:
            raise self.fail(f"{mf_type!r} takes {arity} parameters, got "
                            f"{len(params)}", line)
        if ctor is Gaussian:  # .fis order is [sigma, mu]
            return term_name, Gaussian(params[1], params[0])
        return term_name, ctor(*params)

    def rules(self, sec: _Section | None, input_vars, output_vars) -> list[Rule]:
        if sec is None:
            return []
        out: list[Rule] = []
        n_in = len(input_vars)
        n_out = len(output_vars)
        for line_no, raw in sec.raw:
            m = _RULE_RE.match(raw)
            if not m:
                raise self.fail(f"malformed rule line {raw!r}", line_no)
            nums = re.findall(r"-?\d+(?:\.\d+)?", m.group(1))
            if len(nums) != n_in + n_out:
                raise self.fail(f"rule needs {n_in + n_out} term indices, got "
                                f"{len(nums)}", line_no)
            indices = []
            for piece in nums:
                value = float(piece)
                if value != int(value):
                    raise self.fail(f"non-integer term index {piece!r}", line_no)
                indices.append(int(value))
            try:
                weight = float(m.group(2))
            except ValueError:
                raise self.fail(f"malformed rule weight {m.group(2)!r}", line_no)
            conn = int(m.group(3))
            if conn not in (1, 2):
                raise self.fail(f"unknown rule connective {conn} (1=AND, 2=OR)",
                                line_no)
            antecedent = None
            for var, idx in zip(input_vars, indices[:n_in]):
                if idx == 0:
                    continue
                rel = self.indexed_relation(var, idx, line_no, allow_not=True)
                antecedent = rel if antecedent is None else (
                    And(antecedent, rel) if conn == 1 else Or(antecedent, rel))
            if antecedent is None:
                raise self.fail("rule has no antecedent (all inputs 0)", line_no)
            consequents = []
            for var, idx in zip(output_vars, indices[n_in:]):
                if idx == 0:
                    continue
                if idx < 0:
                    raise self.fail("negated consequents are not supported",
                                    line_no)
                consequents.append(self.indexed_relation(var, idx, line_no,
                                                         allow_not=False))
            if not consequents:
                raise self.fail("rule has no consequent (all outputs 0)", line_no)
            try:
                out.append(Rule(antecedent, tuple(consequents), weight))
            except ModelError as exc:
                raise ParseError(str(exc), line_no, origin=self.origin)
        return out

    def indexed_relation(self, var: Variable, idx: int, line_no: int,
                         allow_not: bool):
        names = list(var.terms)
        k = abs(idx)
        if not 1 <= k <= len(names):
            raise self.fail(f"term index {idx} out of range for variable "
                            f"{var.name!r} with {len(names)} terms", line_no)
        rel = Relation(var.name, names[k - 1])
        if idx < 0:
            if not allow_not:
                raise self.fail("negated consequents are not supported", line_no)
            return Not(rel)
        return rel


def parse_fis(text: str, origin: str = "<fis>") -> tuple[FuzzySystem, FormatDiagnostics]:
    """Parse Matlab `.fis` text into a system plus diagnostics.

    Raises ParseError for malformed or unsupported input; never crashes on
    arbitrary bytes.  CRLF line endings are tolerated.
    """
    if not isinstance(text, str):
        raise ParseError("source must be text", origin=origin)
    return _FisBuilder(text, origin).build()
