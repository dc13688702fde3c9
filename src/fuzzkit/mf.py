"""Parametric membership functions.

Every membership function is an immutable callable mapping any real number to
a degree in [0, 1].  Values outside a function's natural support give 0 (or
the boundary value for :class:`PiecewiseLinear`, which extends constantly),
so evaluation is total over the reals.

A call runs the kind's one scalar formula, ``_emit.emit_mf``, which rule
firing and generated code run too.  ``sample`` is the vectorized numpy path
that discretizes consequents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError

# math.exp overflows past ~709.78; the numpy forms below clamp before that point.
_EXP_CLAMP = 709.0


class MembershipFunction:
    """Base class for scalar membership functions.

    The first call compiles ``_emit.emit_mf``'s statements for the instance
    into a function kept in its ``__dict__`` as ``_formula``, which every
    call runs.  It is not a field, so equality, hashing, ``repr`` and
    ``dataclasses.replace`` ignore it, and pickles leave it out; a redundant
    fill by concurrent first calls compiles the same formula.
    """

    _formula = None

    def __call__(self, x: float) -> float:
        return (self._formula or self._compile())(x)

    def _compile(self):
        from . import _emit  # _emit imports this module
        w = _emit.Writer()
        _emit.emit_mf_def(w, self, "_mf")
        formula = _emit.exec_emitted(w, "<membership function>", "_mf")
        self.__dict__["_formula"] = formula
        return formula

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_formula"}

    def sample(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate on a grid, returning an array of degrees in [0, 1]."""
        return np.array([self(float(x)) for x in xs])


def _as_float(value) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ModelError(f"membership parameter must be a real number, got {value!r}")
    if not math.isfinite(out):
        raise ModelError(f"membership parameter must be finite, got {out!r}")
    return out


@dataclass(frozen=True)
class Triangular(MembershipFunction):
    """Triangle with feet ``a`` and ``c`` and peak ``b`` (a <= b <= c)."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, _as_float(getattr(self, name)))
        if not self.a <= self.b <= self.c:
            raise ModelError(
                f"triangular parameters must satisfy a <= b <= c, "
                f"got ({self.a}, {self.b}, {self.c})")

    def sample(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape)
        if self.b > self.a:
            m = (xs > self.a) & (xs < self.b)
            out[m] = (xs[m] - self.a) / (self.b - self.a)
        if self.c > self.b:
            m = (xs > self.b) & (xs < self.c)
            out[m] = (self.c - xs[m]) / (self.c - self.b)
        out[xs == self.b] = 1.0
        return out


@dataclass(frozen=True)
class Trapezoidal(MembershipFunction):
    """Trapezoid with feet ``a``/``d`` and plateau [``b``, ``c``]."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _as_float(getattr(self, name)))
        if not self.a <= self.b <= self.c <= self.d:
            raise ModelError(
                f"trapezoidal parameters must satisfy a <= b <= c <= d, "
                f"got ({self.a}, {self.b}, {self.c}, {self.d})")

    def sample(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape)
        if self.b > self.a:
            m = (xs > self.a) & (xs < self.b)
            out[m] = (xs[m] - self.a) / (self.b - self.a)
        if self.d > self.c:
            m = (xs > self.c) & (xs < self.d)
            out[m] = (self.d - xs[m]) / (self.d - self.c)
        out[(xs >= self.b) & (xs <= self.c)] = 1.0
        return out


@dataclass(frozen=True)
class Gaussian(MembershipFunction):
    """Bell curve exp(-(x - mu)^2 / (2 sigma^2)) with sigma > 0."""

    mu: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "mu", _as_float(self.mu))
        object.__setattr__(self, "sigma", _as_float(self.sigma))
        if not self.sigma > 0:
            raise ModelError(f"gaussian sigma must be positive, got {self.sigma}")
        if 2.0 * self.sigma * self.sigma == 0.0:  # the formula's denominator
            raise ModelError(f"gaussian sigma is too small, got {self.sigma}: "
                             f"2 sigma^2 underflows to 0")

    def sample(self, xs: np.ndarray) -> np.ndarray:
        d = np.asarray(xs, dtype=float) - self.mu
        nd2 = -(d * d)
        with np.errstate(over="ignore"):  # a tiny sigma: -inf, whose exp is 0.0
            return np.exp(nd2 / (2.0 * self.sigma * self.sigma))


@dataclass(frozen=True)
class Singleton(MembershipFunction):
    """Unit spike at exactly ``c``: membership 1.0 iff x == c."""

    c: float

    def __post_init__(self):
        object.__setattr__(self, "c", _as_float(self.c))

    def sample(self, xs: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(xs, dtype=float) == self.c, 1.0, 0.0)


@dataclass(frozen=True)
class GeneralizedBell(MembershipFunction):
    """Generalized bell 1 / (1 + |(x - c) / a|^(2b)) with a > 0, b > 0."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, _as_float(getattr(self, name)))
        if not self.a > 0:
            raise ModelError(f"bell width a must be positive, got {self.a}")
        if not self.b > 0:
            raise ModelError(f"bell slope b must be positive, got {self.b}")

    def sample(self, xs: np.ndarray) -> np.ndarray:
        t = np.abs((np.asarray(xs, dtype=float) - self.c) / self.a)
        out = np.ones(t.shape)
        nz = t > 0.0
        with np.errstate(over="ignore"):
            z = 2.0 * self.b * np.log(t[nz])
            out[nz] = np.where(z >= _EXP_CLAMP, 0.0,
                               np.where(z <= -_EXP_CLAMP, 1.0,
                                        1.0 / (1.0 + np.exp(np.clip(z, -_EXP_CLAMP, _EXP_CLAMP)))))
        return out


@dataclass(frozen=True)
class Sigmoid(MembershipFunction):
    """Logistic curve 1 / (1 + exp(-a (x - c))); sign of ``a`` sets direction."""

    a: float
    c: float

    def __post_init__(self):
        object.__setattr__(self, "a", _as_float(self.a))
        object.__setattr__(self, "c", _as_float(self.c))
        if self.a == 0:
            raise ModelError("sigmoid slope a must be nonzero")

    def sample(self, xs: np.ndarray) -> np.ndarray:
        z = -self.a * (np.asarray(xs, dtype=float) - self.c)
        return np.where(z >= _EXP_CLAMP, 0.0,
                        np.where(z <= -_EXP_CLAMP, 1.0,
                                 1.0 / (1.0 + np.exp(np.clip(z, -_EXP_CLAMP, _EXP_CLAMP)))))


@dataclass(frozen=True)
class PiecewiseLinear(MembershipFunction):
    """Polyline through ``points``; constant extension outside the first and
    last node, matching the common FCL point-list convention."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        try:
            pts = tuple((_as_float(x), _as_float(y)) for x, y in self.points)
        except (TypeError, ValueError):
            raise ModelError(f"piecewise points must be (x, y) pairs, got {self.points!r}")
        if not pts:
            raise ModelError("piecewise membership needs at least one point")
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            if not x1 > x0:
                raise ModelError(f"piecewise x coordinates must be strictly increasing "
                                 f"({x0} followed by {x1})")
        for _, y in pts:
            if not 0.0 <= y <= 1.0:
                raise ModelError(f"piecewise membership value {y} outside [0, 1]")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_xs", tuple(p[0] for p in pts))
        object.__setattr__(self, "_ys", tuple(p[1] for p in pts))

    def sample(self, xs: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(xs, dtype=float), self._xs, self._ys)


@dataclass(frozen=True)
class IntervalMF:
    """Pair of membership functions bounding an uncertainty band.

    ``lower(x) <= upper(x)`` must hold pointwise; the model validates this by
    sampling when the pair is attached to a variable.  Not itself a
    :class:`MembershipFunction`: evaluation yields an interval, not a degree.
    """

    lower: MembershipFunction
    upper: MembershipFunction

    def __post_init__(self):
        if not isinstance(self.lower, MembershipFunction) or \
                not isinstance(self.upper, MembershipFunction):
            raise ModelError("interval bounds must be membership functions")

    def __call__(self, x: float) -> tuple[float, float]:
        return (self.lower(x), self.upper(x))


MF_CONSTRUCTORS = {
    "TriangularMF": Triangular,
    "TrapezoidalMF": Trapezoidal,
    "GaussianMF": Gaussian,
    "SingletonMF": Singleton,
    "GeneralizedBellMF": GeneralizedBell,
    "SigmoidMF": Sigmoid,
    "PiecewiseLinearMF": PiecewiseLinear,
}
