"""Inference engines: Mamdani, Sugeno and interval type-2 Mamdani.

Each system is lowered once (``_lower``, cached per system): the antecedent
terms it uses, its consequents, and the term curves of all outputs sampled
into one stacked matrix.  Two backends read that lowering.  The scalar one
is code ``_emit`` writes, compiled on first use by ``_emit.exec_emitted``:
``fire``, the rule firing (``_fire``), and for type-1 systems ``outputs``,
the output stage ``codegen.generate`` writes after the antecedents.  Type-1
``infer`` runs the two and packages the result, so it computes what
generated code computes; an output that fired no rule comes back from the
stage's zero-fire branch as ``None`` and is flagged ``degenerate``.  The array
backend is numpy over the term matrix (``_aggregate``, ``_defuzzify``): it
serves aggregated curves, computed only when a result's ``aggregated`` is
read, interval type-2 inference and public ``defuzzify``.  Grid sums run
left to right (``np.add.accumulate``), the order of the emitted left folds,
so the backends agree bit for bit on finite inputs.  Interval type-2
``infer`` is a short, fixed list of array calls per output, and its result
builds its ``CurveBand``s only when ``aggregated`` is read.

All entry points are pure: they never mutate the system or the inputs, so a
validated system can serve concurrent callers.  The lowering cache, its
compiled functions, lazily computed curves and the ``km_reduce`` grid memo
are benign-race memos (a redundant fill computes identical values); a
pickled system leaves its lowering out.  Compiled functions hold no
reference back to themselves or their system, so they are freed with it by
reference counting, without waiting for the cycle collector.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import _emit
from .errors import EvaluationError, MissingInputError, ModelError
from .model import FuzzySystem, Proposition, SystemKind, Variable, _relations
from .norms import Defuzzifier, Implication, SNorm, implicate, snorm_arrays

@dataclass(frozen=True)
class FiringVector:
    """Per-rule activation strengths, in rule declaration order."""

    activations: tuple[float, ...]

    def __init__(self, activations):
        self.__dict__["activations"] = activations

    def __len__(self) -> int:
        return len(self.activations)

    def __iter__(self):
        return iter(self.activations)

    def __getitem__(self, i):
        return self.activations[i]


@dataclass(frozen=True, eq=False)
class SampledCurve:
    """Membership curve sampled on a uniform grid (arrays are read-only)."""

    xs: np.ndarray
    mus: np.ndarray

    def __init__(self, xs, mus):
        self.__dict__.update(xs=xs, mus=mus)


@dataclass(frozen=True, eq=False)
class CurveBand:
    """Lower/upper aggregated curves of an interval type-2 output."""

    lower: SampledCurve
    upper: SampledCurve

    def __init__(self, lower, upper):
        self.__dict__.update(lower=lower, upper=upper)


@dataclass(frozen=True, eq=False)
class InferenceResult:
    """Outcome of one inference run.

    ``crisp`` maps each output name to its defuzzified value.  ``degenerate``
    lists the outputs that fired no rule, under every defuzzifier, whose
    crisp value is the zero-fire fallback; for type-1 systems the emitted
    output stage decides it, as in generated code.  Type-1 runs fill
    ``firing``; for Mamdani, ``aggregated`` is a read-only mapping of each
    output's ``SampledCurve``, computed on first access from the stored
    firing and pickled as a plain dict.  Interval type-2 runs fill
    ``firing_intervals``, ``intervals`` (the type-reduced [y_left, y_right]
    per output) and ``aggregated``, the same kind of mapping of each
    output's ``CurveBand``, built on first access from the run's bands.
    """

    crisp: dict
    firing: FiringVector | None
    aggregated: Mapping | None
    degenerate: tuple[str, ...] = ()
    intervals: dict | None = None
    firing_intervals: tuple | None = None

    def __init__(self, crisp, firing, aggregated, degenerate=(), intervals=None,
                 firing_intervals=None):
        self.__dict__.update(crisp=crisp, firing=firing, aggregated=aggregated, degenerate=degenerate,
                             intervals=intervals, firing_intervals=firing_intervals)


class _LazyCurves(Mapping):
    """``InferenceResult.aggregated`` of a Mamdani run, built on first access:
    ``SampledCurve``s of ``_aggregate`` over the stored activations (type-1),
    or ``CurveBand``s of the stored ``(2, outputs, resolution)`` aggregate
    (IT2).  Compares, prints and pickles as the dict it stands for."""

    __slots__ = ("_fis", "_data", "_curves")

    def __init__(self, fis: FuzzySystem, data):
        self._fis, self._data, self._curves = fis, data, None

    def _dict(self) -> dict:
        curves = self._curves
        if curves is None:
            fis, agg = self._fis, self._data
            if fis.kind is SystemKind.MAMDANI:
                agg = _aggregate(fis, agg)
            agg.setflags(write=False)
            curves = {}
            for name, xs, *band in zip(fis.outputs, _lower(fis).grids, *agg):
                curve = SampledCurve(xs, band[0])
                curves[name] = CurveBand(curve, SampledCurve(xs, band[1])) if band[1:] else curve
            self._curves = curves
        return curves

    def __getitem__(self, name):
        return self._dict()[name]

    def __iter__(self):
        return iter(self._fis.outputs)

    def __len__(self) -> int:
        return len(self._fis.outputs)

    def __repr__(self) -> str:
        return repr(self._dict())

    def __reduce__(self):
        return dict, (self._dict(),)


def _input_values(fis: FuzzySystem, inputs) -> dict:
    values = {}
    for name in fis.inputs:
        if name not in inputs:
            raise MissingInputError(name)
        values[name] = float(inputs[name])
    return values


def eval_proposition(p: Proposition, fis: FuzzySystem, inputs) -> float:
    """Truth degree of an antecedent expression under the given inputs.

    Uses the system's conjunction/disjunction operators; negation is strong
    (1 - x).  The expression is compiled through the emitter of the rule
    firing, so it rounds exactly as a rule antecedent does, once per system
    and proposition (the system's lowering keeps it).  Pure: identical
    arguments give bitwise-identical results.
    """
    values = _input_values(fis, inputs)
    if fis.kind is SystemKind.MAMDANI_IT2:
        raise EvaluationError("interval type-2 antecedents evaluate to intervals; "
                              "use infer() on the system instead")
    try:
        relations = tuple(dict.fromkeys((rel.variable, rel.term) for rel in _relations(p)))
    except ModelError as exc:
        raise EvaluationError(str(exc)) from None
    for name, term in relations:
        var = fis.inputs.get(name)
        if var is None:
            raise EvaluationError(f"proposition references unknown input {name!r}")
        if term not in var.terms:
            raise EvaluationError(f"variable {name!r} has no term {term!r}")
    memo = _lower(fis).propositions  # every valid proposition is hashable
    compiled = memo.get(p)
    if compiled is None:
        w, args = _emit_head(fis)
        names = _emit.emit_degrees(w, fis, relations, args)
        w.emit(f"return {_emit.emit_prop(w, p, fis.settings, names)}")
        compiled = memo[p] = _emit.exec_emitted(w, "<proposition>", "_fire")
    return compiled(values)


@dataclass(eq=False)
class _Lowering:
    """A system lowered once for every backend (see ``_lower``).

    ``relations`` lists the antecedent ``(variable, term)`` pairs in
    first-use order; ``by_output`` each output's consequents as ``(rule
    index, term)`` pairs in rule order, terms numbered in declaration order.
    A Mamdani system has one ``(outputs, resolution)`` array of ``grids`` and
    one ``(bands, outputs, width, resolution)`` term-curve matrix ``curves``,
    ``width`` being the largest term count of an output, both read-only: one
    band for type-1, lower and upper for IT2, zero rows padding outputs with
    fewer terms.  An IT2 system also has ``km_grids``: per output, its grid's
    ``_km_grid`` and the index gathering its ``_km_operand`` from the
    aggregate.  ``runs`` memoizes
    ``_emit.grid_runs``.  ``fire`` (rule activations, ``(lower, upper)``
    pairs for IT2, from a dict of inputs) and ``outputs`` compile on first
    use, so code generation alone never compiles them; ``propositions``
    holds ``eval_proposition``'s compiled functions by proposition.
    """

    relations: tuple
    by_output: tuple
    grids: np.ndarray | None = None
    curves: np.ndarray | None = None
    km_grids: tuple | None = None
    runs: dict = field(default_factory=dict)
    propositions: dict = field(default_factory=dict)
    fire: object = None
    outputs: object = None


def _emit_head(fis: FuzzySystem, head: str = "_fire(_values)", convert: bool = True,
               consts: dict | None = None):
    """A ``Writer`` opening ``def {head}``, which takes each input from the
    dict ``_values`` through ``float()`` unless not ``convert``, and the
    locals holding the inputs."""
    w = _emit.Writer(consts)
    w.emit(f"def {head}:")
    w.level += 1
    args = {}
    for i, name in enumerate(fis.inputs if convert else ()):
        args[name] = f"_x{i}"
        w.emit(f"_x{i} = _float(_values[{name!r}])")
    return w, args


def _compile_fire(fis: FuzzySystem):
    """Specialize rule firing for one system into its lowering's ``fire``:
    ``_emit``'s antecedent prologue, which generated code runs too."""
    w, args = _emit_head(fis)
    lowering = _lower(fis)
    acts = _emit.emit_antecedents(w, fis, lowering.relations, args)
    w.emit(f"return ({', '.join(acts)}{',' if len(acts) == 1 else ''})")
    lowering.fire = _emit.exec_emitted(w, "<rule firing>", "_fire")
    return lowering.fire


def _compile_outputs(fis: FuzzySystem):
    """Specialize the output stage of a type-1 system into its lowering's
    ``outputs(values, *activations)``: ``_emit.emit_outputs``, returning the
    crisp values with ``None`` for each output that fired no rule.  Linear
    Sugeno consequents take their inputs from ``values``.  Constants and run
    helpers are bound as names, not spelled as literals and nested defs."""
    lowering = _lower(fis)
    acts = [f"_f{i}" for i in range(len(fis.rules))]
    w, args = _emit_head(fis, f"_outputs(_values, {', '.join(acts)})",
                         fis.kind is SystemKind.SUGENO, {})
    results, run_widths = _emit.emit_outputs(w, fis, lowering, acts, args,
                                             ["None"] * len(fis.outputs))
    w.emit(f"return ({', '.join(results)},)")
    for k in run_widths:
        w.consts[f"_run{k}"] = _run_helper(fis.settings.implication, k)
    lowering.outputs = _emit.exec_emitted(w, "<output stage>", "_outputs")
    return lowering.outputs


@functools.cache
def _run_helper(implication: Implication, k: int):
    """``_emit.emit_run_helper``'s function, compiled once per process for
    every output stage that calls it (generated code nests its own copy)."""
    w = _emit.Writer()
    _emit.emit_run_helper(w, implication, k)
    return _emit.exec_emitted(w, "<run helper>", f"_run{k}")


def _lower(fis: FuzzySystem) -> _Lowering:
    cache = fis._curve_cache
    lowering = cache.get("lowering")
    if lowering is None:
        relations = tuple(dict.fromkeys(
            (rel.variable, rel.term)
            for rule in fis.rules for rel in _relations(rule.antecedent)))
        outputs = fis.outputs.values()
        row = {(var.name, term): t for var in outputs for t, term in enumerate(var.terms)}
        by_output = tuple(tuple((i, row[name, rel.term]) for i, rule in enumerate(fis.rules)
                                for rel in rule.consequents if rel.variable == name)
                          for name in fis.outputs)
        grids = curves = km_grids = None
        if fis.kind is not SystemKind.SUGENO:
            grids = np.array([var.domain.grid(fis.settings.resolution) for var in outputs])
            bounds = (None,) if fis.kind is SystemKind.MAMDANI else ("lower", "upper")
            width = max(len(var.terms) for var in outputs)
            curves = np.zeros((len(bounds), len(grids), width, grids.shape[1]))
            for (b, bound), (o, var) in itertools.product(enumerate(bounds), enumerate(outputs)):
                for t, mf in enumerate(var.terms.values()):
                    curves[b, o, t] = (getattr(mf, bound) if bound else mf).sample(grids[o])
            for a in (grids, curves):
                a.setflags(write=False)
            if fis.kind is SystemKind.MAMDANI_IT2:  # map: no closure cell on each call
                index = np.arange(grids.size).reshape(grids.shape)  # of the lower band
                km_grids = tuple(zip(map(_km_grid, grids),
                                     map(_km_operand, index, index + grids.size)))
        lowering = cache["lowering"] = _Lowering(relations, by_output, grids, curves, km_grids)
    return lowering


def _fire(fis: FuzzySystem, inputs, interval: bool = False) -> tuple:
    """Rule activations.  The compiled firing converts a plain dict's inputs in
    ``_input_values``' order; a missing one gets ``_input_values``' own error."""
    if (fis.kind is SystemKind.MAMDANI_IT2) is not interval:
        raise EvaluationError("fire_rules_interval requires an interval type-2 system" if interval
                              else "interval type-2 rules fire over intervals; use infer()")
    fire = _lower(fis).fire or _compile_fire(fis)
    if type(inputs) is not dict:  # a defaultdict's ``in`` disagrees with ``[]``
        return fire(_input_values(fis, inputs))
    try:
        return fire(inputs)
    except KeyError as exc:
        error = exc
    try:
        _input_values(fis, inputs)
        raise error
    finally:
        # The raised error's traceback holds this frame: keeping the error in
        # a local would tie them, the system and the inputs into a cycle.
        del error


def fire_rules(fis: FuzzySystem, inputs) -> FiringVector:
    """Activation of every rule: weight times antecedent truth degree."""
    return FiringVector(_fire(fis, inputs))


def fire_rules_interval(fis: FuzzySystem, inputs) -> tuple[tuple[float, float], ...]:
    """Interval activations [lower, upper] of every rule of a type-2 system."""
    return _fire(fis, inputs, interval=True)


def _aggregate(fis: FuzzySystem, acts) -> np.ndarray:
    """The ``(bands, outputs, resolution)`` aggregated curves: each
    consequent term curve shaped by its rule's activation, folded per output
    with the aggregation s-norm.  ``acts`` holds the rule activations as
    fired: floats shaping the one band of a type-1 term matrix, or ``(lower,
    upper)`` pairs shaping the lower and upper bands of an interval type-2 one.

    Under max-aggregation each term is shaped once, by its strongest
    activation, as max(imp(a1, C), imp(a2, C)) == imp(max(a1, a2), C); the
    whole matrix is implicated and max-reduced over its terms, exactly: min,
    max and one product round alike in any order, and unfired terms and
    padding rows shape to zero, the identity of max over non-negative rows.
    Other s-norms fold each output's fired consequents in rule order.
    """
    settings = fis.settings
    lowering = _lower(fis)
    curves = lowering.curves
    interval = fis.kind is SystemKind.MAMDANI_IT2
    if settings.aggregation is SNorm.MAX:
        width = curves.shape[2]
        size = curves.shape[1] * width
        strengths = [0.0] * (len(curves) * size)
        for o, pairs in enumerate(lowering.by_output):
            for i, term in pairs:
                slot = o * width + term
                for act in acts[i] if interval else (acts[i],):  # NaN is never greater
                    if act > strengths[slot]:
                        strengths[slot] = act
                    slot += size
        shaped = implicate(settings.implication,
                           np.array(strengths).reshape(curves.shape[:3] + (1,)), curves)
        agg = np.maximum.reduce(shaped, axis=-2)
    else:
        agg = np.zeros(curves.shape[:2] + curves.shape[3:])
        fold = functools.partial(snorm_arrays, settings.aggregation)
        bands = tuple(zip(*acts)) if interval else (acts,)
        for o, (b, band) in itertools.product(range(curves.shape[1]), enumerate(bands)):
            fired = [(band[i], row) for i, row in lowering.by_output[o] if band[i] != 0.0]
            if fired:
                fired_acts, rows = zip(*fired)
                shaped = implicate(settings.implication, np.array(fired_acts)[:, None],
                                   curves[b, o, list(rows)])
                agg[b, o] = functools.reduce(fold, shaped)
    return agg


def defuzzify(kind: Defuzzifier, xs: np.ndarray, mus: np.ndarray) -> float:
    """Crisp value of a sampled curve.

    An identically-zero curve yields the grid midpoint.  Sums run in
    ascending grid order (``cumsum`` totals) to stay bit-compatible with
    generated code.

    Input contract: two 1-D arrays of equal, nonzero length, and finite
    memberships; anything else raises ``EvaluationError``.
    """
    xs = np.asarray(xs, dtype=float)
    mus = np.asarray(mus, dtype=float)
    if not (xs.ndim == mus.ndim == 1 and len(xs) == len(mus)):
        raise EvaluationError("defuzzify needs two 1-D arrays of equal length")
    if len(xs) == 0:
        raise EvaluationError("defuzzify needs a nonempty grid")
    if not np.isfinite(mus).all():
        raise EvaluationError("defuzzify needs finite memberships")
    crisp, = _defuzzify(kind, np.stack((np.ones_like(xs), xs))[:, None], mus[None])
    return 0.5 * (float(xs[0]) + float(xs[-1])) if crisp is None else crisp


def _defuzzify(kind: Defuzzifier, moments: np.ndarray, rows: np.ndarray) -> list:
    """Crisp value of each ``(rows, resolution)`` curve on its grid, or
    ``None`` where the row has no mass.  ``moments`` stacks ones on the
    grids.  The mass is the row total for the centroid and bisector, the row
    maximum otherwise; a NaN mass is mass."""
    if kind is Defuzzifier.CENTROID:  # one accumulate; 1.0 * mu is exact
        dens, nums = np.add.accumulate(moments * rows, axis=-1)[..., -1].tolist()
        return [None if den <= 0.0 else num / den for den, num in zip(dens, nums)]
    crisp = []
    for xs, mus in zip(moments[1], rows):
        if kind is Defuzzifier.BISECTOR:
            cum = np.cumsum(mus)
            total = float(cum[-1])
            crisp.append(None if total <= 0.0 else
                         float(xs[int(np.searchsorted(cum, 0.5 * total, side="left"))]))
            continue
        top = float(np.max(mus))
        if top <= 0.0:
            crisp.append(None)
            continue
        at_top = np.nonzero(mus == top)[0]
        if kind is Defuzzifier.FIRST_OF_MAXIMA:
            crisp.append(float(xs[at_top[0]]))
        elif kind is Defuzzifier.LAST_OF_MAXIMA:
            crisp.append(float(xs[at_top[-1]]))
        elif kind is Defuzzifier.MEAN_OF_MAXIMA:
            picked = xs[at_top]
            crisp.append(float(np.cumsum(picked)[-1]) / len(picked))
        else:
            raise EvaluationError(f"unknown defuzzifier {kind!r}")
    return crisp


def _zero_fire_value(fis: FuzzySystem, name: str, var: Variable) -> float:
    return fis.zero_fire_defaults.get(name, var.domain.midpoint)


def _infer_t1(fis: FuzzySystem, inputs) -> InferenceResult:
    """Type-1 inference: the compiled firing, then the compiled output stage."""
    lowering = _lower(fis)
    acts = _fire(fis, inputs)
    values = (lowering.outputs or _compile_outputs(fis))(inputs, *acts)
    crisp = dict(zip(fis.outputs, values))
    degenerate = ()
    if None in values:
        degenerate = tuple(name for name, value in crisp.items() if value is None)
        for name in degenerate:
            crisp[name] = _zero_fire_value(fis, name, fis.outputs[name])
    aggregated = None if fis.kind is SystemKind.SUGENO else _LazyCurves(fis, acts)
    return InferenceResult(crisp, FiringVector(acts), aggregated, degenerate)


def infer_mamdani(fis: FuzzySystem, inputs) -> InferenceResult:
    """Full Mamdani pipeline: fire, implicate, aggregate, defuzzify."""
    if fis.kind is not SystemKind.MAMDANI:
        raise EvaluationError(f"infer_mamdani requires a Mamdani system, got {fis.kind.value}")
    return _infer_t1(fis, inputs)


def infer_sugeno(fis: FuzzySystem, inputs) -> InferenceResult:
    """Sugeno pipeline: activation-weighted average of crisp consequents."""
    if fis.kind is not SystemKind.SUGENO:
        raise EvaluationError(f"infer_sugeno requires a Sugeno system, got {fis.kind.value}")
    return _infer_t1(fis, inputs)


def _km_grid(xs) -> tuple:
    """Type-reduction constants of a grid, ``(factors, tol)``: read-only
    ``(2, 2, 2, n)`` factors, ``[[xs, -xs], [1, 1]]`` and the same in reverse
    column order, and the tolerance ``2 * e`` of ``_km_bounds``."""
    n = len(xs)
    factors = np.ones((2, 2, 2, n))
    factors[0, 0, 0] = xs
    np.negative(xs, out=factors[0, 0, 1])
    factors[1, 0] = factors[0, 0, :, ::-1]
    factors.setflags(write=False)
    # Any summation order of n terms errs by at most gamma_(n-1) times the
    # sum of their magnitudes (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., sec. 4.2), and |fl(x*theta)| <= 2*|x|*theta even
    # when the product underflows, so an approximate and an exact candidate
    # differ by less than e.  The exact optimum's approximation thus lies
    # within 2e of the best approximation.
    e = 12.0 * n * 2.0 ** -53 * max(-float(xs[0]), float(xs[-1]))  # max|xs|, xs sorted
    return factors, 2.0 * e


def _km_operand(lower, upper) -> np.ndarray:
    """``_km_bounds``' read-only operand of a band, shaped like the factors:
    [upper, lower] twice, then [lower, upper] twice in reverse column order.
    Of index arrays, the index that gathers it with ``take``."""
    operand = np.array([(pair, pair) for pair in ((upper, lower), (lower[::-1], upper[::-1]))])
    operand.setflags(write=False)
    return operand


def _km_bounds(km, operand) -> tuple[float, float] | None:
    """``km_reduce`` of a band, n >= 2, given as its ``_km_operand``, on the
    grid of ``km = _km_grid(xs)``; ``None`` when the band has no mass and
    ``upper`` is identically zero.  A band holding NaN passes through (see
    ``infer_it2_mamdani``) and raises ``EvaluationError`` when no switch
    point of one bound has a finite centroid."""
    factors, tol = km
    n = operand.shape[-1]
    # Switch point k = -1..n-1 is column i = k + 1: the left bound's curve
    # takes the upper membership at points [0, i) and the lower one at
    # [i, n); the right bound's the reverse.  The product ``m`` of the
    # factors and the operand holds [[xs*upper, -xs*lower], [upper, lower]]
    # in ``m[0]`` and the partner rows [[xs*lower, -xs*upper], [lower,
    # upper]] in reverse column order in ``m[1]``.  One accumulate, after a
    # leading zero column, gives prefix sums of the first and, read
    # backwards, suffix sums of the second, so their sum holds the left
    # numerator, the negated right numerator (both ends then minimize; a
    # negated sum is exact) and the two denominators.  Suffixes are never
    # ``total - prefix``: that would cancel and turn a zero denominator into
    # a rounding residue.  (A prefix of -0.0 products stays -0.0: no
    # comparison sees the sign of a numerator's zero.)
    m = factors * operand
    c = np.zeros((2, 2, 2, n + 1))
    np.add.accumulate(m, axis=-1, out=c[..., 1:])
    # ``c[0, 1, :, n]`` are the left-to-right totals of upper and lower.
    # Above 1e-290 some upper membership exceeds 2**-1073 (n < 1e30), so
    # 0.5 * (lower + upper) has a positive term and its pairwise ``np.sum``,
    # the half-band mass that defines "no mass", is positive too; only below
    # that, or for NaN, is the mass summed itself.
    total_upper, total_lower = c[0, 1, :, n].tolist()
    if not total_upper > 1e-290:
        upper, lower = operand[0, 0]
        mass = np.add.reduce(0.5 * (lower + upper))
        if not (mass > 0.0 or upper.any()):
            return None
        if mass <= 0.0:
            mid = 0.5 * (float(factors[0, 0, 0, 0]) + float(factors[0, 0, 0, -1]))
            return (mid, mid)
    sums = np.add(c[0], c[1, ..., ::-1], out=c[0])
    if total_lower > 0.0:  # with 0 <= lower <= upper, every curve then has mass
        approx = sums[0] / sums[1]
    else:
        with np.errstate(invalid="ignore"):  # 0/0 where a curve has no mass
            approx = sums[0] / sums[1]
    end, idx = (approx <= np.fmin.reduce(approx, axis=1, keepdims=True) + tol).nonzero()
    if len(end) > 2:
        # Where lower[j] == upper[j], columns j and j + 1 give the same curve:
        # keep the first column of each such run.
        first = np.ones(n + 1, dtype=bool)
        np.not_equal(*operand[0, 0], out=first[1:])
        rep = np.maximum.accumulate(np.where(first, np.arange(n + 1), 0))
        end, idx = np.divmod(np.unique(end * (n + 1) + rep[idx]), n + 1)
    ends, cols = end.tolist(), idx.tolist()
    k = ends.count(0)  # left-end candidates come first
    if not 0 < k < len(ends):
        raise EvaluationError("no switch point gives a finite centroid")
    # Confirm with the defining formula, ``np.sum`` over each candidate
    # curve and its products with xs.  ``m`` holds [xs*upper, upper] and, read
    # backwards, [xs*lower, lower]; each block concatenates the candidates'
    # pieces of both into one C-contiguous (2, r, n) matrix, whose row sums
    # round exactly like ``np.sum`` of each row.  Blocks of at most 64K curve
    # elements bound memory when many candidates tie (each costs O(n)).
    with_upper, with_lower = m[0, :, 0], m[1, :, 0, ::-1]
    pieces = []
    for right, i in zip(ends, cols):
        head, tail = (with_lower, with_upper) if right else (with_upper, with_lower)
        pieces += head[:, :i], tail[:, i:]
    exact = []
    block = 2 * max(1, (1 << 16) // n)  # pieces
    for s in range(0, len(pieces), block):
        rows = np.concatenate(pieces[s:s + block], axis=1).reshape(2, -1, n)
        nums, dens = np.add.reduce(rows, axis=2).tolist()
        exact += map(operator.truediv, nums, dens)
    return (min(exact[:k]), max(exact[k:]))


def km_reduce(xs, lower, upper) -> tuple[float, float]:
    """Karnik-Mendel type reduction of an interval membership band.

    Returns the centroid interval [y_left, y_right] over the band's embedded
    curves: the exact minimum and maximum, over every switch point
    k = -1..n-1, of sum(xs * theta) / sum(theta), where theta takes one bound
    at points 0..k and the other after.  All candidates are approximated at
    once from prefix and suffix sums, in O(n); those within a rounding-error
    bound of the best are re-evaluated with ``np.sum`` and the best exact
    value is returned.  A band with no mass yields the grid midpoint.
    Identical inputs give bitwise-identical bounds.

    Cost: O(n) plus O(n) per near-best candidate, so O(n**2) in the worst
    case, when almost every switch point ties with the best (for example
    ``lower = upper * (1 - 2**-50)``); runs of equal bounds count once.

    Input contract: three 1-D arrays of equal, nonzero length; ``xs`` finite
    and non-decreasing; memberships finite with 0 <= lower <= upper.
    Anything else raises ``EvaluationError``.
    """
    xs = np.asarray(xs, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if not (xs.ndim == lower.ndim == upper.ndim == 1
            and len(xs) == len(lower) == len(upper)):
        raise EvaluationError("km_reduce needs three 1-D arrays of equal length")
    if len(xs) == 0:
        raise EvaluationError("km_reduce needs a nonempty grid")
    # Comparisons with NaN are false, so these tests reject NaN as well.
    if not (math.isfinite(xs[0]) and math.isfinite(xs[-1])
            and (xs[1:] >= xs[:-1]).all()):
        raise EvaluationError("km_reduce needs finite, non-decreasing xs")
    if not (np.minimum.reduce(lower) >= 0.0 and np.maximum.reduce(upper) < math.inf
            and (lower <= upper).all()):
        raise EvaluationError(
            "km_reduce needs finite memberships with 0 <= lower <= upper")
    if len(xs) == 1:
        x = float(xs[0])
        return (x, x)
    mid = 0.5 * (float(xs[0]) + float(xs[-1]))
    return _km_bounds(_km_grid_of(xs.tobytes()), _km_operand(lower, upper)) or (mid, mid)


@functools.lru_cache(maxsize=1)
def _km_grid_of(key: bytes) -> tuple:
    """``_km_grid`` of the grid whose float64 bytes are ``key``: a one-entry
    memo, so repeated ``km_reduce`` calls on one grid share its constants."""
    return _km_grid(np.frombuffer(key))


def infer_it2_mamdani(fis: FuzzySystem, inputs) -> InferenceResult:
    """Interval type-2 Mamdani pipeline with Karnik-Mendel type reduction.

    Crisp output is the midpoint of the type-reduced interval.  An output
    whose aggregated band holds NaN where every switch point of a bound
    reads it (a NaN input under a non-max aggregation) raises
    ``EvaluationError``.
    """
    if fis.kind is not SystemKind.MAMDANI_IT2:
        raise EvaluationError(
            f"infer_it2_mamdani requires an interval type-2 system, got {fis.kind.value}")
    acts = _fire(fis, inputs, interval=True)
    agg = _aggregate(fis, acts)
    crisp, intervals, degenerate = {}, {}, []
    for (name, var), (km, index) in zip(fis.outputs.items(), _lower(fis).km_grids):
        try:
            bounds = _km_bounds(km, agg.take(index))
        except EvaluationError as exc:
            raise EvaluationError(f"cannot type-reduce output {name!r}: {exc}") from None
        if bounds is None:
            crisp[name] = value = _zero_fire_value(fis, name, var)
            intervals[name] = (value, value)
            degenerate.append(name)
        else:
            y_left, y_right = intervals[name] = bounds
            crisp[name] = 0.5 * (y_left + y_right)
    return InferenceResult(crisp, None, _LazyCurves(fis, agg), tuple(degenerate), intervals, acts)


def infer(fis: FuzzySystem, inputs) -> InferenceResult:
    """Run the pipeline matching the system's kind."""
    if fis.kind is SystemKind.MAMDANI_IT2:
        return infer_it2_mamdani(fis, inputs)
    return _infer_t1(fis, inputs)


def grouped_max_output(fis: FuzzySystem, inputs, gray_levels: int,
                       first_rules, second_rules) -> float:
    """Two-group competitive readout over rule activations.

    The two index groups partition the rules into opposing evidence pools;
    the strongest activation of each pool competes against an abstention
    mass and the result is scaled to the signed range of ``gray_levels``
    levels:

        l1 = max(first), l2 = max(second), l0 = max(0, 1 - l1 - l2)
        y  = (gray_levels - 1) * (l1 - l2) / (l1 + l2 + l0)
    """
    _check_gray_levels(gray_levels)
    first, second = tuple(first_rules), tuple(second_rules)
    if not first or not second:
        raise EvaluationError("both rule groups must be nonempty")
    n = len(fis.rules)
    for idx in (*first, *second):
        if not _is_integer(idx):
            raise EvaluationError(f"rule index {idx!r} is not an integer")
        if not 0 <= idx < n:
            raise EvaluationError(f"rule index {idx} out of range for {n} rules")
    if set(first) & set(second):
        raise EvaluationError("rule groups must be disjoint")
    picked = operator.itemgetter(*first, *second)(_fire(fis, inputs))
    return _grouped_max(picked, gray_levels, slice(0, len(first)), slice(len(first), None))


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_gray_levels(gray_levels) -> None:
    # A plain int skips the slower isinstance tests: this runs on every call.
    if type(gray_levels) is not int and not _is_integer(gray_levels):
        raise EvaluationError(f"gray_levels must be an integer, got {gray_levels!r}")
    if gray_levels < 2:
        raise EvaluationError(f"gray_levels must be at least 2, got {gray_levels}")


def _grouped_max(acts, gray_levels: int, first: slice, second: slice) -> float:
    """The readout arithmetic of ``grouped_max_output`` over two activation slices."""
    l1 = max(acts[first])
    l2 = max(acts[second])
    l0 = max(0.0, 1.0 - l1 - l2)
    return (gray_levels - 1) * (l1 - l2) / (l1 + l2 + l0)


_DENOISE_GROUPS = (slice(0, 13), slice(13, 26))


def denoise_detector(fis: FuzzySystem, inputs, gray_levels: int = 256) -> float:
    """Canonical impulse-noise detector binding: rules 1-13 vote positive,
    rules 14-26 vote negative."""
    if len(fis.rules) != 26:
        raise EvaluationError(f"denoise detector expects exactly 26 rules, got {len(fis.rules)}")
    _check_gray_levels(gray_levels)
    return _grouped_max(_fire(fis, inputs), gray_levels, *_DENOISE_GROUPS)
