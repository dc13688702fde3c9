"""Structural model of a fuzzy inference system.

Everything here is an immutable value object: construction validates, and a
successfully built :class:`FuzzySystem` is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ModelError
from .mf import IntervalMF, MembershipFunction
from .norms import Defuzzifier, Implication, SNorm, TNorm

# Grid density used to check interval pairs for lower <= upper.
_INTERVAL_CHECK_SAMPLES = 1001

# Largest output grid: 1,000 times the default; a 10-term output samples 8 MB.
MAX_RESOLUTION = 100_000


@dataclass(frozen=True)
class Domain:
    """Closed real interval [low, high] with low < high."""

    low: float
    high: float

    def __post_init__(self):
        object.__setattr__(self, "low", float(self.low))
        object.__setattr__(self, "high", float(self.high))
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ModelError(f"domain bounds must be finite, got [{self.low}, {self.high}]")
        if not self.low < self.high:
            raise ModelError(f"domain must satisfy low < high, got [{self.low}, {self.high}]")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.low + self.high)

    def grid(self, resolution: int) -> np.ndarray:
        """Uniform grid of ``resolution`` points spanning the domain."""
        return np.linspace(self.low, self.high, resolution)


class Proposition:
    """Node of a rule antecedent expression tree."""

    def __and__(self, other: "Proposition") -> "Proposition":
        return And(self, other)

    def __or__(self, other: "Proposition") -> "Proposition":
        return Or(self, other)

    def __invert__(self) -> "Proposition":
        return Not(self)


@dataclass(frozen=True)
class Relation(Proposition):
    """Atomic test: membership of a variable's value in one of its terms."""

    variable: str
    term: str


@dataclass(frozen=True)
class And(Proposition):
    left: Proposition
    right: Proposition


@dataclass(frozen=True)
class Or(Proposition):
    left: Proposition
    right: Proposition


@dataclass(frozen=True)
class Not(Proposition):
    operand: Proposition


@dataclass(frozen=True)
class SugenoConstant:
    """Crisp consequent value z = c."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ModelError(f"sugeno constant must be finite, got {self.value!r}")


@dataclass(frozen=True)
class SugenoLinear:
    """Affine consequent z = sum(coeffs[v] * inputs[v]) + offset."""

    coeffs: tuple[tuple[str, float], ...]
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           tuple((str(n), float(c)) for n, c in self.coeffs))
        object.__setattr__(self, "offset", float(self.offset))
        for name, coeff in self.coeffs:
            if not math.isfinite(coeff):
                raise ModelError(f"sugeno coefficient for {name!r} must be finite")
        if not math.isfinite(self.offset):
            raise ModelError(f"sugeno offset must be finite, got {self.offset!r}")


SugenoConsequent = SugenoConstant | SugenoLinear


@dataclass(frozen=True)
class Variable:
    """Named linguistic variable: a domain plus its named terms.

    Term values are membership functions for type-1 systems, interval pairs
    for interval type-2 systems, or Sugeno consequents for Sugeno outputs.
    """

    name: str
    domain: Domain
    terms: dict

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ModelError(f"variable name must be a nonempty string, got {self.name!r}")
        if not self.terms:
            raise ModelError(f"variable {self.name!r} declares no terms")
        object.__setattr__(self, "terms", dict(self.terms))
        for term, value in self.terms.items():
            if not isinstance(value, (MembershipFunction, IntervalMF,
                                      SugenoConstant, SugenoLinear)):
                raise ModelError(f"term {self.name}.{term} has unsupported value {value!r}")
            if isinstance(value, IntervalMF):
                self._check_interval(term, value)

    def _check_interval(self, term: str, pair: IntervalMF) -> None:
        xs = self.domain.grid(_INTERVAL_CHECK_SAMPLES)
        lo = pair.lower.sample(xs)
        hi = pair.upper.sample(xs)
        if np.any(lo > hi):
            at = float(xs[np.argmax(lo > hi)])
            raise ModelError(
                f"term {self.name}.{term}: lower membership exceeds upper near x={at:g}")

    def __eq__(self, other):
        if not isinstance(other, Variable):
            return NotImplemented
        return (self.name, self.domain, self.terms) == (other.name, other.domain, other.terms)

    __hash__ = None


class SystemKind(Enum):
    MAMDANI = "mamdani"
    SUGENO = "sugeno"
    MAMDANI_IT2 = "mamdani_it2"


@dataclass(frozen=True)
class Rule:
    """IF ``antecedent`` THEN each of ``consequents``, scaled by ``weight``."""

    antecedent: Proposition
    consequents: tuple[Relation, ...]
    weight: float = 1.0

    def __post_init__(self):
        if not isinstance(self.antecedent, Proposition):
            raise ModelError(f"rule antecedent must be a proposition, got {self.antecedent!r}")
        cons = tuple(self.consequents)
        if not cons:
            raise ModelError("rule must have at least one consequent")
        for c in cons:
            if not isinstance(c, Relation):
                raise ModelError(f"rule consequent must be a relation, got {c!r}")
        object.__setattr__(self, "consequents", cons)
        object.__setattr__(self, "weight", float(self.weight))
        if not 0.0 <= self.weight <= 1.0:
            raise ModelError(f"rule weight must lie in [0, 1], got {self.weight}")


@dataclass(frozen=True)
class EngineSettings:
    """Operator selection and discretization for an inference run."""

    conjunction: TNorm = TNorm.MIN
    disjunction: SNorm = SNorm.MAX
    implication: Implication = Implication.MIN
    aggregation: SNorm = SNorm.MAX
    defuzzifier: Defuzzifier = Defuzzifier.CENTROID
    resolution: int = 101

    def __post_init__(self):
        if not isinstance(self.conjunction, TNorm):
            raise ModelError(f"conjunction must be a TNorm, got {self.conjunction!r}")
        if not isinstance(self.disjunction, SNorm):
            raise ModelError(f"disjunction must be an SNorm, got {self.disjunction!r}")
        if not isinstance(self.implication, Implication):
            raise ModelError(f"implication must be an Implication, got {self.implication!r}")
        if not isinstance(self.aggregation, SNorm):
            raise ModelError(f"aggregation must be an SNorm, got {self.aggregation!r}")
        if not isinstance(self.defuzzifier, Defuzzifier):
            raise ModelError(f"defuzzifier must be a Defuzzifier, got {self.defuzzifier!r}")
        if not isinstance(self.resolution, int) or isinstance(self.resolution, bool) \
                or not 2 <= self.resolution <= MAX_RESOLUTION:
            raise ModelError(f"resolution must be an integer in [2, {MAX_RESOLUTION}], "
                             f"got {self.resolution!r}")


def _relations(p: Proposition):
    stack = [p]
    while stack:
        node = stack.pop()
        if isinstance(node, Relation):
            yield node
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (And, Or)):
            stack.append(node.left)
            stack.append(node.right)
        else:
            raise ModelError(f"unsupported proposition node {node!r}")


@dataclass(frozen=True)
class FuzzySystem:
    """A complete, validated fuzzy inference system.

    ``zero_fire_defaults`` optionally overrides the crisp fallback used for
    an output when no rule fires (the default fallback is the domain
    midpoint); the result still flags the output as degenerate.
    """

    name: str
    kind: SystemKind
    inputs: dict
    outputs: dict
    rules: tuple[Rule, ...]
    settings: EngineSettings = EngineSettings()
    zero_fire_defaults: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ModelError(f"system name must be a nonempty string, got {self.name!r}")
        if not isinstance(self.kind, SystemKind):
            raise ModelError(f"system kind must be a SystemKind, got {self.kind!r}")
        if not isinstance(self.settings, EngineSettings):
            raise ModelError("settings must be an EngineSettings instance")
        object.__setattr__(self, "inputs", dict(self.inputs))
        object.__setattr__(self, "outputs", dict(self.outputs))
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "zero_fire_defaults", dict(self.zero_fire_defaults))
        self._check_variables()
        self._check_rules()
        self._check_defaults()
        # Memoized lowering (engine._lower): grids, sampled term curves and
        # compiled firing, under the key "lowering".
        object.__setattr__(self, "_curve_cache", {})

    def _check_variables(self) -> None:
        if not self.inputs:
            raise ModelError(f"system {self.name!r} declares no input variables")
        if not self.outputs:
            raise ModelError(f"system {self.name!r} declares no output variables")
        overlap = self.inputs.keys() & self.outputs.keys()
        if overlap:
            raise ModelError(f"variables declared as both input and output: {sorted(overlap)}")
        for mapping in (self.inputs, self.outputs):
            for name, var in mapping.items():
                if not isinstance(var, Variable):
                    raise ModelError(f"variable {name!r} must be a Variable, got {var!r}")
                if var.name != name:
                    raise ModelError(f"variable key {name!r} does not match name {var.name!r}")
        for name, var in self.inputs.items():
            for term, value in var.terms.items():
                self._check_term_value(name, term, value, is_output=False)
        for name, var in self.outputs.items():
            for term, value in var.terms.items():
                self._check_term_value(name, term, value, is_output=True)

    def _check_term_value(self, var: str, term: str, value, is_output: bool) -> None:
        if self.kind is SystemKind.MAMDANI_IT2:
            if not isinstance(value, IntervalMF):
                raise ModelError(
                    f"interval type-2 system: term {var}.{term} must be an IntervalMF")
            return
        if self.kind is SystemKind.SUGENO and is_output:
            if not isinstance(value, (SugenoConstant, SugenoLinear)):
                raise ModelError(
                    f"sugeno output term {var}.{term} must be a constant or linear consequent")
            if isinstance(value, SugenoLinear):
                for ref, _ in value.coeffs:
                    if ref not in self.inputs:
                        raise ModelError(
                            f"sugeno term {var}.{term} references unknown input {ref!r}")
            return
        if not isinstance(value, MembershipFunction):
            raise ModelError(f"term {var}.{term} must be a membership function")

    def _check_rules(self) -> None:
        if not self.rules:
            raise ModelError(f"system {self.name!r} has no rules")
        mentioned = set()
        for i, rule in enumerate(self.rules, start=1):
            for rel in _relations(rule.antecedent):
                var = self.inputs.get(rel.variable)
                if var is None:
                    where = "an output" if rel.variable in self.outputs else "no declared"
                    raise ModelError(
                        f"rule {i}: antecedent references {rel.variable!r}, "
                        f"which is {where} input variable")
                if rel.term not in var.terms:
                    raise ModelError(
                        f"rule {i}: variable {rel.variable!r} has no term {rel.term!r}")
            for rel in rule.consequents:
                var = self.outputs.get(rel.variable)
                if var is None:
                    raise ModelError(
                        f"rule {i}: consequent references {rel.variable!r}, "
                        f"which is not an output variable")
                if rel.term not in var.terms:
                    raise ModelError(
                        f"rule {i}: variable {rel.variable!r} has no term {rel.term!r}")
                mentioned.add(rel.variable)
        silent = self.outputs.keys() - mentioned
        if silent:
            raise ModelError(f"no rule mentions output variable(s): {sorted(silent)}")

    def _check_defaults(self) -> None:
        for name, value in self.zero_fire_defaults.items():
            if name not in self.outputs:
                raise ModelError(f"zero-fire default for unknown output {name!r}")
            self.zero_fire_defaults[name] = float(value)

    def __eq__(self, other):
        if not isinstance(other, FuzzySystem):
            return NotImplemented
        return (self.name, self.kind, self.inputs, self.outputs, self.rules,
                self.settings, self.zero_fire_defaults) == \
               (other.name, other.kind, other.inputs, other.outputs, other.rules,
                other.settings, other.zero_fire_defaults)

    __hash__ = None

    def __getstate__(self):
        # The memo holds compiled functions, which do not pickle.
        return {**self.__dict__, "_curve_cache": {}}

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(self.inputs)

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(self.outputs)
