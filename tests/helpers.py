"""Shared oracles and random-model builders for the test suite.

Everything here recomputes expected values from first principles (plain
formulas, brute-force enumeration, dense grids) without going through the
library's own evaluation paths, so tests can compare two independent routes
to the same number.
"""

import math
import random

import numpy as np

from fuzzkit import (And, Domain, FuzzySystem, Gaussian, GeneralizedBell,
                     IntervalMF, Not, Or, PiecewiseLinear, Relation, Rule,
                     Sigmoid, Singleton, SugenoConstant, SugenoLinear,
                     SystemKind, Trapezoidal, Triangular, Variable,
                     EngineSettings, TNorm, SNorm, Implication, Defuzzifier)


# ---------------------------------------------------------------------------
# Hand-written membership formulas (scalar and vectorized).

def tri(x, a, b, c):
    if x == b:
        return 1.0
    if x <= a or x >= c:
        return 0.0
    if x < b:
        return (x - a) / (b - a)
    return (c - x) / (c - b)


def trap(x, a, b, c, d):
    if b <= x <= c:
        return 1.0
    if x <= a or x >= d:
        return 0.0
    if x < b:
        return (x - a) / (b - a)
    return (d - x) / (d - c)


def gauss(x, mu, sigma):
    d = x - mu
    return math.exp(-(d * d) / (2.0 * sigma * sigma))


def bell(x, a, b, c):
    t = abs((x - c) / a)
    if t == 0.0:
        return 1.0
    return 1.0 / (1.0 + t ** (2.0 * b))


def bell_exp(x, a, b, c):
    """Generalized bell in the engine's form: exp(2b log t), clamped where
    ``math.exp`` would overflow."""
    t = abs((x - c) / a)
    if t == 0.0:
        return 1.0
    z = 2.0 * b * math.log(t)
    if z >= 709.0:
        return 0.0
    if z <= -709.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(z))


def sigmoid(x, a, c):
    """Logistic curve with the engine's clamps at +-709."""
    z = -a * (x - c)
    if z >= 709.0:
        return 0.0
    if z <= -709.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(z))


def polyline(x, points):
    """Linear interpolation through ``points``, constant past both ends."""
    if x <= points[0][0]:
        return points[0][1]
    if x >= points[-1][0]:
        return points[-1][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x < x1:
            return (x - x0) * (y1 - y0) / (x1 - x0) + y0
    return x  # NaN


def logistic(x, a, c):
    z = -a * (x - c)
    if z > 700:
        return 0.0
    if z < -700:
        return 1.0
    return 1.0 / (1.0 + math.exp(z))


def tri_curve(xs, a, b, c):
    """Vectorized non-degenerate triangle (a < b < c) in max/min form."""
    xs = np.asarray(xs, dtype=float)
    return np.maximum(np.minimum((xs - a) / (b - a), (c - xs) / (c - b)), 0.0)


# ---------------------------------------------------------------------------
# Dense-grid Mamdani oracle for the tipper system, written from scratch.

def tipper_oracle(service: float, food: float, resolution: int = 100_000) -> float:
    """Crisp tip via min/max Mamdani with centroid on a dense grid."""
    a1 = max(gauss(service, 0.0, 1.5), trap(food, -2.0, 0.0, 1.0, 3.0))
    a2 = gauss(service, 5.0, 1.5)
    a3 = max(gauss(service, 10.0, 1.5), trap(food, 7.0, 9.0, 10.0, 12.0))
    xs = np.linspace(0.0, 30.0, resolution)
    agg = np.maximum.reduce([
        np.minimum(a1, tri_curve(xs, 0.0, 5.0, 10.0)),
        np.minimum(a2, tri_curve(xs, 10.0, 15.0, 20.0)),
        np.minimum(a3, tri_curve(xs, 20.0, 25.0, 30.0)),
    ])
    den = float(np.sum(agg))
    if den <= 0.0:
        return 15.0
    return float(np.sum(xs * agg)) / den


# ---------------------------------------------------------------------------
# Defuzzifier oracles (independent of engine.defuzzify).

def centroid_oracle(xs, mus):
    xs = np.asarray(xs, dtype=float)
    mus = np.asarray(mus, dtype=float)
    den = float(np.sum(mus))
    if den <= 0.0:
        return 0.5 * (float(xs[0]) + float(xs[-1]))
    return float(np.dot(xs, mus)) / den


def bisector_oracle(xs, mus):
    total = float(sum(mus))
    if total <= 0.0:
        return 0.5 * (float(xs[0]) + float(xs[-1]))
    half = 0.5 * total
    acc = 0.0
    for x, m in zip(xs, mus):
        acc += m
        if acc >= half:
            return float(x)
    return float(xs[-1])


def maxima_oracle(xs, mus, which):
    top = max(mus)
    if top <= 0.0:
        return 0.5 * (float(xs[0]) + float(xs[-1]))
    hits = [float(x) for x, m in zip(xs, mus) if m == top]
    if which == "first":
        return hits[0]
    if which == "last":
        return hits[-1]
    return sum(hits) / len(hits)


# ---------------------------------------------------------------------------
# Plain-float Mamdani reference: everything after sampling the term curves
# is scalar Python arithmetic, written from the operators' definitions.

# Scalar norms written out from their definitions.  Conditionals, not the
# ``min``/``max`` builtins, pick the operand on ties and NaN, as the engine's
# scalar forms do, so the two agree bit for bit.

_T_REF = {
    TNorm.MIN: lambda a, b: a if a < b else b,
    TNorm.PROD: lambda a, b: a * b,
    TNorm.LUKASIEWICZ: lambda a, b: a + b - 1.0 if a + b - 1.0 > 0.0 else 0.0,
    TNorm.DRASTIC: lambda a, b: b if a == 1.0 else (a if b == 1.0 else 0.0),
    TNorm.NILPOTENT: lambda a, b: (a if a < b else b) if a + b > 1.0 else 0.0,
    TNorm.HAMACHER: lambda a, b: 0.0 if a == 0.0 and b == 0.0 else a * b / (a + b - a * b),
}

_S_REF = {
    SNorm.MAX: lambda a, b: a if a > b else b,
    SNorm.PROB_SUM: lambda a, b: a + b - a * b,
    SNorm.BOUNDED_SUM: lambda a, b: a + b if a + b < 1.0 else 1.0,
    SNorm.DRASTIC: lambda a, b: b if a == 0.0 else (a if b == 0.0 else 1.0),
    SNorm.NILPOTENT: lambda a, b: (a if a > b else b) if a + b < 1.0 else 1.0,
    SNorm.EINSTEIN: lambda a, b: (a + b) / (1.0 + a * b),
}


def aggregate_reference(fis: FuzzySystem, name: str, activations,
                        bound: str | None = None) -> list:
    """Aggregated degrees of output ``name`` on its grid, given the rule
    activations.  ``bound`` ("lower" or "upper") takes that band of an
    interval type-2 system's terms.

    Term curves come from ``mf.sample`` on ``domain.grid``.  Under max
    aggregation each term is shaped by its strongest activation; any other
    s-norm folds every fired consequent in rule order.
    """
    settings = fis.settings
    snorm = _S_REF[settings.aggregation]
    if settings.implication is Implication.MIN:
        shape = lambda act, c: c if c < act else act
    else:
        shape = lambda act, c: act * c
    var = fis.outputs[name]
    grid = var.domain.grid(settings.resolution)
    curves = {t: (getattr(mf, bound) if bound else mf).sample(grid).tolist()
              for t, mf in var.terms.items()}
    cons = [(activations[i], rel.term) for i, rule in enumerate(fis.rules)
            for rel in rule.consequents if rel.variable == name]
    if settings.aggregation is SNorm.MAX:
        strength = {t: 0.0 for t in var.terms}
        for act, t in cons:
            strength[t] = max(strength[t], act)
        cons = [(strength[t], t) for t in var.terms]
    mus = []
    for j in range(len(grid)):
        acc = 0.0
        for act, t in cons:
            if act != 0.0:
                acc = snorm(acc, shape(act, curves[t][j]))
        mus.append(acc)
    return mus


def mamdani_reference(fis: FuzzySystem, activations) -> tuple:
    """``(aggregated, crisp, degenerate)`` of a type-1 Mamdani system given
    its rule activations: per output, the ``aggregate_reference`` degrees,
    the crisp value and whether nothing fired.  Sums are left folds in grid
    order; an identically zero curve gives the zero-fire value.
    """
    settings = fis.settings
    aggregated, crisp, degenerate = {}, {}, []
    for name, var in fis.outputs.items():
        xs = var.domain.grid(settings.resolution).tolist()
        mus = aggregate_reference(fis, name, activations)
        aggregated[name] = mus
        if not any(mus):
            crisp[name] = fis.zero_fire_defaults.get(
                name, 0.5 * (var.domain.low + var.domain.high))
            degenerate.append(name)
            continue
        total = 0.0
        for v in mus:
            total += v
        kind = settings.defuzzifier
        if kind is Defuzzifier.CENTROID:
            num = 0.0
            for x, v in zip(xs, mus):
                num += x * v
            crisp[name] = num / total
        elif kind is Defuzzifier.BISECTOR:
            acc = 0.0
            for x, v in zip(xs, mus):
                acc += v
                if acc >= 0.5 * total:
                    crisp[name] = x
                    break
        else:
            top = max(mus)
            hits = [x for x, v in zip(xs, mus) if v == top]
            if kind is Defuzzifier.FIRST_OF_MAXIMA:
                crisp[name] = hits[0]
            elif kind is Defuzzifier.LAST_OF_MAXIMA:
                crisp[name] = hits[-1]
            else:
                acc = 0.0
                for x in hits:
                    acc += x
                crisp[name] = acc / len(hits)
    return aggregated, crisp, tuple(degenerate)


# ---------------------------------------------------------------------------
# Exhaustive Karnik-Mendel oracle: try every switch point on both sides.

def km_oracle(xs, lower, upper):
    xs = np.asarray(xs, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = len(xs)
    if n == 1:
        return (float(xs[0]), float(xs[0]))
    if float(np.sum(0.5 * (lower + upper))) <= 0.0:
        mid = 0.5 * (float(xs[0]) + float(xs[-1]))
        return (mid, mid)

    def candidates(left: bool):
        out = []
        for k in range(-1, n):
            if left:
                theta = np.concatenate([upper[:k + 1], lower[k + 1:]])
            else:
                theta = np.concatenate([lower[:k + 1], upper[k + 1:]])
            den = float(np.sum(theta))
            if den <= 0.0:
                continue
            out.append(float(np.sum(xs * theta)) / den)
        return out

    return (min(candidates(True)), max(candidates(False)))


# ---------------------------------------------------------------------------
# Interval firing oracle: fuzzify each term to (lower(x), upper(x)) with the
# hand-written formulas above, then evaluate bound pairs; Not swaps them.

def it2_firing_oracle(fis: FuzzySystem, inputs) -> tuple:
    """Interval rule activations of a type-2 system whose terms are
    triangles, trapezoids, Gaussians (what ``random_it2_system`` builds) or
    polylines, under min or prod conjunction and max disjunction."""
    assert fis.settings.disjunction is SNorm.MAX

    def degree(mf, x):
        if isinstance(mf, Triangular):
            return tri(x, mf.a, mf.b, mf.c)
        if isinstance(mf, Trapezoidal):
            return trap(x, mf.a, mf.b, mf.c, mf.d)
        if isinstance(mf, PiecewiseLinear):
            return polyline(x, mf.points)
        return gauss(x, mf.mu, mf.sigma)

    table = {(name, term): (degree(pair.lower, inputs[name]),
                            degree(pair.upper, inputs[name]))
             for name, var in fis.inputs.items() for term, pair in var.terms.items()}
    conj = min if fis.settings.conjunction is TNorm.MIN else (lambda a, b: a * b)

    def bounds(p):
        if isinstance(p, Relation):
            return table[(p.variable, p.term)]
        if isinstance(p, Not):
            lo, hi = bounds(p.operand)
            return (1.0 - hi, 1.0 - lo)
        op = conj if isinstance(p, And) else max
        a, b = bounds(p.left), bounds(p.right)
        return (op(a[0], b[0]), op(a[1], b[1]))

    out = []
    for rule in fis.rules:
        lo, hi = bounds(rule.antecedent)
        out.append((rule.weight * lo, rule.weight * hi))
    return tuple(out)


# ---------------------------------------------------------------------------
# Type-1 firing oracle: every membership kind from the hand-written formulas
# above, in the engine's IEEE operation order, then the reference norms and
# strong negation; each rule's degree is scaled by its weight.

def t1_degree(mf, x):
    if isinstance(mf, Triangular):
        return tri(x, mf.a, mf.b, mf.c)
    if isinstance(mf, Trapezoidal):
        return trap(x, mf.a, mf.b, mf.c, mf.d)
    if isinstance(mf, Gaussian):
        return gauss(x, mf.mu, mf.sigma)
    if isinstance(mf, Singleton):
        return 1.0 if x == mf.c else 0.0
    if isinstance(mf, GeneralizedBell):
        return bell_exp(x, mf.a, mf.b, mf.c)
    if isinstance(mf, Sigmoid):
        return sigmoid(x, mf.a, mf.c)
    assert isinstance(mf, PiecewiseLinear)
    return polyline(x, mf.points)


def t1_truth(fis: FuzzySystem, p, inputs) -> float:
    """Truth degree of proposition ``p`` of a type-1 system."""
    if isinstance(p, Relation):
        return t1_degree(fis.inputs[p.variable].terms[p.term], inputs[p.variable])
    if isinstance(p, Not):
        return 1.0 - t1_truth(fis, p.operand, inputs)
    if isinstance(p, And):
        op = _T_REF[fis.settings.conjunction]
    else:
        op = _S_REF[fis.settings.disjunction]
    return op(t1_truth(fis, p.left, inputs), t1_truth(fis, p.right, inputs))


def t1_firing_oracle(fis: FuzzySystem, inputs) -> tuple:
    """Rule activations of a type-1 system: weight times truth degree."""
    return tuple(rule.weight * t1_truth(fis, rule.antecedent, inputs) for rule in fis.rules)


# ---------------------------------------------------------------------------
# Random model builders.

_NAMES = "abcdefghjk"


def random_mf(rng: random.Random, lo: float, hi: float, family: str | None = None):
    span = hi - lo
    family = family or rng.choice(("tri", "trap", "gauss", "bell", "sig", "pl"))
    if family == "tri":
        a = rng.uniform(lo - 0.3 * span, hi)
        b = rng.uniform(a, hi + 0.1 * span)
        return Triangular(a, b, rng.uniform(b, hi + 0.4 * span))
    if family == "trap":
        a = rng.uniform(lo - 0.3 * span, hi)
        b = rng.uniform(a, hi + 0.1 * span)
        c = rng.uniform(b, hi + 0.2 * span)
        return Trapezoidal(a, b, c, rng.uniform(c, hi + 0.5 * span))
    if family == "gauss":
        return Gaussian(rng.uniform(lo, hi), rng.uniform(0.05 * span, 0.6 * span))
    if family == "bell":
        return GeneralizedBell(rng.uniform(0.05 * span, 0.5 * span),
                               rng.uniform(0.6, 4.0), rng.uniform(lo, hi))
    if family == "sig":
        slope = rng.uniform(1.0, 12.0) / span
        return Sigmoid(slope if rng.random() < 0.5 else -slope, rng.uniform(lo, hi))
    xs = sorted(rng.uniform(lo, hi) for _ in range(rng.randint(2, 5)))
    while any(x1 <= x0 for x0, x1 in zip(xs, xs[1:])):
        xs = sorted(rng.uniform(lo, hi) for _ in range(rng.randint(2, 5)))
    return PiecewiseLinear(tuple((x, rng.random()) for x in xs))


def _random_prop(rng: random.Random, inputs: dict, depth: int = 2):
    if depth == 0 or rng.random() < 0.4:
        name = rng.choice(list(inputs))
        term = rng.choice(list(inputs[name].terms))
        leaf = Relation(name, term)
        return Not(leaf) if rng.random() < 0.2 else leaf
    op = And if rng.random() < 0.5 else Or
    return op(_random_prop(rng, inputs, depth - 1),
              _random_prop(rng, inputs, depth - 1))


def _random_settings(rng: random.Random) -> EngineSettings:
    return EngineSettings(
        conjunction=rng.choice(list(TNorm)),
        disjunction=rng.choice(list(SNorm)),
        implication=rng.choice(list(Implication)),
        aggregation=rng.choice(list(SNorm)),
        defuzzifier=rng.choice(list(Defuzzifier)),
        resolution=rng.choice((51, 101)),
    )


def random_t1_system(rng: random.Random, index: int = 0) -> FuzzySystem:
    """Random Mamdani or Sugeno system exercising varied operator choices."""
    kind = SystemKind.SUGENO if index % 3 == 2 else SystemKind.MAMDANI
    inputs = {}
    for i in range(rng.randint(1, 3)):
        lo = rng.uniform(-20.0, 10.0)
        hi = lo + rng.uniform(1.0, 30.0)
        name = _NAMES[i]
        terms = {f"t{j}": random_mf(rng, lo, hi) for j in range(rng.randint(2, 3))}
        if rng.random() < 0.15:
            terms["spike"] = Singleton(rng.uniform(lo, hi))
        inputs[name] = Variable(name, Domain(lo, hi), terms)

    outputs = {}
    for i in range(rng.randint(1, 2)):
        lo = rng.uniform(-10.0, 5.0)
        hi = lo + rng.uniform(2.0, 25.0)
        name = f"out{i}"
        if kind is SystemKind.SUGENO:
            terms = {}
            for j in range(rng.randint(2, 3)):
                if rng.random() < 0.5:
                    terms[f"z{j}"] = SugenoConstant(rng.uniform(lo, hi))
                else:
                    coeffs = tuple((n, rng.uniform(-2.0, 2.0))
                                   for n in inputs if rng.random() < 0.7)
                    if not coeffs:
                        coeffs = ((next(iter(inputs)), rng.uniform(-2.0, 2.0)),)
                    terms[f"z{j}"] = SugenoLinear(coeffs, rng.uniform(-5.0, 5.0))
        else:
            terms = {f"z{j}": random_mf(rng, lo, hi)
                     for j in range(rng.randint(2, 3))}
        outputs[name] = Variable(name, Domain(lo, hi), terms)

    rules = []
    out_names = list(outputs)
    for i, name in enumerate(out_names):
        term = rng.choice(list(outputs[name].terms))
        rules.append(Rule(_random_prop(rng, inputs), (Relation(name, term),),
                          1.0 if rng.random() < 0.7 else rng.uniform(0.2, 1.0)))
    for _ in range(rng.randint(0, 4)):
        cons = tuple(Relation(n, rng.choice(list(outputs[n].terms)))
                     for n in out_names if rng.random() < 0.8)
        if not cons:
            cons = (Relation(out_names[0], rng.choice(list(outputs[out_names[0]].terms))),)
        rules.append(Rule(_random_prop(rng, inputs), cons,
                          1.0 if rng.random() < 0.7 else rng.uniform(0.2, 1.0)))

    return FuzzySystem(f"rand{index}", kind, inputs, outputs, tuple(rules),
                       _random_settings(rng))


def _nested_pair(rng: random.Random, lo: float, hi: float,
                 zero_width: bool) -> IntervalMF:
    span = hi - lo
    family = rng.choice(("tri", "trap", "gauss"))
    if family == "tri":
        b = rng.uniform(lo, hi)
        a_u = b - rng.uniform(0.1, 0.6) * span
        c_u = b + rng.uniform(0.1, 0.6) * span
        upper = Triangular(a_u, b, c_u)
        if zero_width:
            return IntervalMF(upper, upper)
        a_l = rng.uniform(a_u, b)
        c_l = rng.uniform(b, c_u)
        return IntervalMF(Triangular(a_l, b, c_l), upper)
    if family == "gauss":
        mu = rng.uniform(lo, hi)
        s_u = rng.uniform(0.1, 0.5) * span
        upper = Gaussian(mu, s_u)
        if zero_width:
            return IntervalMF(upper, upper)
        return IntervalMF(Gaussian(mu, rng.uniform(0.3 * s_u, s_u)), upper)
    b = rng.uniform(lo, hi)
    c = b + rng.uniform(0.0, 0.3) * span
    a_u = b - rng.uniform(0.1, 0.5) * span
    d_u = c + rng.uniform(0.1, 0.5) * span
    upper = Trapezoidal(a_u, b, c, d_u)
    if zero_width:
        return IntervalMF(upper, upper)
    return IntervalMF(Trapezoidal(rng.uniform(a_u, b), b, c, rng.uniform(c, d_u)),
                      upper)


def random_it2_system(rng: random.Random, zero_width: bool = False) -> FuzzySystem:
    """Random interval type-2 Mamdani system with nested-MF term pairs."""
    inputs = {}
    for i in range(rng.randint(1, 2)):
        lo = rng.uniform(-10.0, 5.0)
        hi = lo + rng.uniform(2.0, 20.0)
        name = _NAMES[i]
        terms = {f"t{j}": _nested_pair(rng, lo, hi, zero_width)
                 for j in range(rng.randint(2, 3))}
        inputs[name] = Variable(name, Domain(lo, hi), terms)
    lo = rng.uniform(-5.0, 5.0)
    hi = lo + rng.uniform(2.0, 20.0)
    out = Variable("y", Domain(lo, hi),
                   {f"z{j}": _nested_pair(rng, lo, hi, zero_width)
                    for j in range(rng.randint(2, 3))})
    rules = []
    for j, term in enumerate(out.terms):
        rules.append(Rule(_random_prop(rng, inputs, depth=1),
                          (Relation("y", term),), 1.0))
    settings = EngineSettings(
        conjunction=rng.choice((TNorm.MIN, TNorm.PROD)),
        implication=rng.choice(list(Implication)),
        aggregation=rng.choice((SNorm.MAX, SNorm.PROB_SUM)),
        resolution=rng.choice((51, 101)),
    )
    return FuzzySystem("it2rand", SystemKind.MAMDANI_IT2, inputs, {"y": out},
                       tuple(rules), settings)


def uneven_outputs_system(rng: random.Random, settings: EngineSettings,
                          interval: bool = False) -> FuzzySystem:
    """Mamdani system (interval type-2 with ``interval``) with two outputs of
    2 and 5 random terms, declared in random order, and rules in random
    order.  Its one input ``a`` on [0, 10] fires only output ``p`` below 4,
    nothing on [4, 6], only ``q`` on (6, 8.5] and both above 8.5."""
    def tri(lower, upper):
        return IntervalMF(Triangular(*lower), Triangular(*upper)) if interval \
            else Triangular(*upper)

    a = Variable("a", Domain(0.0, 10.0), {
        "low": tri((0, 0, 3), (0, 0, 4)),
        "high": tri((7, 10, 10), (6, 10, 10)),
        "top": tri((9, 10, 10), (8.5, 10, 10)),
    })
    counts = {"p": 2, "q": 5}
    names = list(counts)
    rng.shuffle(names)
    outputs = {}
    for name in names:
        lo = rng.uniform(-10.0, 5.0)
        hi = lo + rng.uniform(2.0, 25.0)
        outputs[name] = Variable(name, Domain(lo, hi), {
            f"z{j}": _nested_pair(rng, lo, hi, False) if interval else random_mf(rng, lo, hi)
            for j in range(counts[name])})

    def rule(term, out):
        return Rule(Relation("a", term),
                    (Relation(out, rng.choice(list(outputs[out].terms))),),
                    rng.choice((1.0, rng.uniform(0.2, 1.0))))

    rules = [rule("low", "p"), rule("low", "p"), rule("top", "p"),
             rule("high", "q"), rule("high", "q"), rule("top", "q")]
    rng.shuffle(rules)
    return FuzzySystem("uneven", SystemKind.MAMDANI_IT2 if interval else SystemKind.MAMDANI,
                       {"a": a}, outputs, tuple(rules), settings)


def t1_collapse(fis: FuzzySystem) -> FuzzySystem:
    """Type-1 twin of a zero-width IT2 system (upper bound of every term)."""
    def collapse(var: Variable) -> Variable:
        return Variable(var.name, var.domain,
                        {t: pair.upper for t, pair in var.terms.items()})
    settings = EngineSettings(
        conjunction=fis.settings.conjunction,
        disjunction=fis.settings.disjunction,
        implication=fis.settings.implication,
        aggregation=fis.settings.aggregation,
        defuzzifier=Defuzzifier.CENTROID,
        resolution=fis.settings.resolution,
    )
    return FuzzySystem(fis.name, SystemKind.MAMDANI,
                       {n: collapse(v) for n, v in fis.inputs.items()},
                       {n: collapse(v) for n, v in fis.outputs.items()},
                       fis.rules, settings, dict(fis.zero_fire_defaults))


def random_inputs(rng: random.Random, fis: FuzzySystem, pad: float = 0.0) -> dict:
    """Uniform inputs over each domain widened by ``pad`` spans on both sides
    (inputs past the domain can leave every rule unfired)."""
    out = {}
    for name, var in fis.inputs.items():
        margin = pad * (var.domain.high - var.domain.low)
        out[name] = rng.uniform(var.domain.low - margin, var.domain.high + margin)
    return out
