"""Triangular norms, co-norms, implication and defuzzifier kinds.

Each scalar t-norm and s-norm is written once, as a statement template that
both the compiled rule firing and ``codegen`` emit (``_emit``) and that the
public ``tnorm``/``snorm`` run compiled; a template's operation order is
part of the package contract.  The array forms drive curve aggregation and
round like the scalar forms on [0, 1].
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class TNorm(Enum):
    """Conjunction operators (t-norms) on [0, 1]."""

    MIN = "min"
    PROD = "prod"
    LUKASIEWICZ = "lukasiewicz"
    DRASTIC = "drastic"
    NILPOTENT = "nilpotent"
    HAMACHER = "hamacher"


class SNorm(Enum):
    """Disjunction/aggregation operators (s-norms) on [0, 1]."""

    MAX = "max"
    PROB_SUM = "prob_sum"
    BOUNDED_SUM = "bounded_sum"
    DRASTIC = "drastic"
    NILPOTENT = "nilpotent"
    EINSTEIN = "einstein"


class Implication(Enum):
    """How a rule's activation shapes its consequent curve."""

    MIN = "min"
    PROD = "prod"


class Defuzzifier(Enum):
    """Crisp-value extraction from an aggregated curve."""

    CENTROID = "centroid"
    BISECTOR = "bisector"
    MEAN_OF_MAXIMA = "mean_of_maxima"
    FIRST_OF_MAXIMA = "first_of_maxima"
    LAST_OF_MAXIMA = "last_of_maxima"


# One statement template per operator: ``{a}`` and ``{b}`` name the operands,
# ``{out}`` the result and ``{s}`` a temporary.  ``_emit`` formats them into
# generated code; ``tnorm``/``snorm`` run functions compiled from them once.
TNORM_TEMPLATES = {
    TNorm.MIN: "{out} = {a} if {a} < {b} else {b}",
    TNorm.PROD: "{out} = {a} * {b}",
    TNorm.LUKASIEWICZ: "{s} = {a} + {b} - 1.0\n{out} = {s} if {s} > 0.0 else 0.0",
    TNorm.DRASTIC: "{out} = {b} if {a} == 1.0 else ({a} if {b} == 1.0 else 0.0)",
    TNorm.NILPOTENT: "{out} = ({a} if {a} < {b} else {b}) if {a} + {b} > 1.0 else 0.0",
    TNorm.HAMACHER: "{out} = 0.0 if {a} == 0.0 and {b} == 0.0 "
                    "else {a} * {b} / ({a} + {b} - {a} * {b})",
}

SNORM_TEMPLATES = {
    SNorm.MAX: "{out} = {a} if {a} > {b} else {b}",
    SNorm.PROB_SUM: "{out} = {a} + {b} - {a} * {b}",
    SNorm.BOUNDED_SUM: "{s} = {a} + {b}\n{out} = {s} if {s} < 1.0 else 1.0",
    SNorm.DRASTIC: "{out} = {b} if {a} == 0.0 else ({a} if {b} == 0.0 else 1.0)",
    SNorm.NILPOTENT: "{out} = ({a} if {a} > {b} else {b}) if {a} + {b} < 1.0 else 1.0",
    SNorm.EINSTEIN: "{out} = ({a} + {b}) / (1.0 + {a} * {b})",
}


def _compile_norms(templates: dict) -> dict:
    ns: dict = {}
    for kind, template in templates.items():
        body = template.format(a="a", b="b", s="s", out="out").replace("\n", "\n    ")
        exec(f"def {kind.name.lower()}(a, b):\n    {body}\n    return out\n", ns)
    return {kind: ns[kind.name.lower()] for kind in templates}


_TNORMS = _compile_norms(TNORM_TEMPLATES)
_SNORMS = _compile_norms(SNORM_TEMPLATES)


def tnorm(kind: TNorm, a: float, b: float) -> float:
    """Apply the t-norm ``kind`` to two degrees."""
    return _TNORMS[kind](a, b)


def snorm(kind: SNorm, a: float, b: float) -> float:
    """Apply the s-norm ``kind`` to two degrees."""
    return _SNORMS[kind](a, b)


def snorm_arrays(kind: SNorm, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise s-norm of two sampled curves.

    Rounding behaviour matches the scalar forms: each branch performs the
    same IEEE operations in the same order.
    """
    if kind is SNorm.MAX:
        return np.maximum(a, b)
    if kind is SNorm.PROB_SUM:
        return a + b - a * b
    if kind is SNorm.BOUNDED_SUM:
        return np.minimum(a + b, 1.0)
    if kind is SNorm.DRASTIC:
        return np.where(a == 0.0, b, np.where(b == 0.0, a, 1.0))
    if kind is SNorm.NILPOTENT:
        return np.where(a + b < 1.0, np.maximum(a, b), 1.0)
    if kind is SNorm.EINSTEIN:
        return (a + b) / (1.0 + a * b)
    raise ValueError(f"unknown s-norm {kind!r}")


def implicate(kind: Implication, activation: float, curve: np.ndarray) -> np.ndarray:
    """Shape a consequent ``curve`` by a rule ``activation``."""
    if kind is Implication.MIN:
        return np.minimum(curve, activation)
    if kind is Implication.PROD:
        return activation * curve
    raise ValueError(f"unknown implication {kind!r}")
