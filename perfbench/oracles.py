"""Reference computations for the benchmark's output checks.

Nothing here calls fuzzkit.  Membership formulas, rule tables and output
grids are written out from the model listings (``robot.fcl``,
``denoise.fzl``, ``models/tipper_it2.fzl``), so a check compares the
program's output with a second, independent route to the same number.
Every ``check_*`` function returns a list of problems; an empty list means
the outputs passed.
"""

from __future__ import annotations

import numpy as np


def pwl(x, points):
    """Polyline membership through ``points``, constant beyond both ends."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, float(points[-1][1]))
    out[x <= points[0][0]] = points[0][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        m = (x > x0) & (x <= x1)
        out[m] = y0 + (x[m] - x0) * (y1 - y0) / (x1 - x0)
    return out


def tri(x, a, b, c):
    """Triangle with feet a, c and peak b (a < b < c)."""
    x = np.asarray(x, dtype=float)
    return np.maximum(np.minimum((x - a) / (b - a), (c - x) / (c - b)), 0.0)


def trap(x, a, b, c, d):
    """Trapezoid with feet a, d and plateau [b, c] (a < b <= c < d)."""
    x = np.asarray(x, dtype=float)
    rise = (x - a) / (b - a)
    fall = (d - x) / (d - c)
    return np.maximum(np.minimum(np.minimum(rise, fall), 1.0), 0.0)


def gauss(x, mu, sigma):
    x = np.asarray(x, dtype=float)
    return np.exp(-((x - mu) ** 2) / (2.0 * sigma ** 2))


def grid(low, high, n):
    return low + (high - low) * np.arange(n) / (n - 1)


def _close(label, got, want, tol) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = np.abs(got - want)
    bad = np.flatnonzero(~(err <= tol))
    if bad.size == 0:
        return []
    i = int(bad[0])
    return [f"{label}: {bad.size} value(s) off by more than {tol:g}; first at "
            f"#{i}: {got.flat[i]!r} vs {want.flat[i]!r}"]


def _inside(label, values, low, high) -> list[str]:
    values = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~((values >= low) & (values <= high)))
    if bad.size == 0:
        return []
    return [f"{label}: {bad.size} value(s) outside [{low}, {high}]; first "
            f"{values.flat[int(bad[0])]!r}"]


# ---------------------------------------------------------------------------
# robot.fcl: 4 inputs, 2 outputs, 41 min/max rules, centroid, 101 points.

ROBOT_INPUTS = {
    "front": (0.0, 4.0, {
        "very_near": ((0.0, 1.0), (1.0, 0.0)),
        "near": ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)),
        "medium": ((1.0, 0.0), (2.0, 1.0), (3.0, 0.0)),
        "far": ((2.0, 0.0), (3.0, 1.0))}),
    "left": (0.0, 4.0, {
        "near": ((0.0, 1.0), (2.0, 0.0)),
        "far": ((1.0, 0.0), (3.0, 1.0))}),
    "heading": (-180.0, 180.0, {
        "hard_left": ((-180.0, 1.0), (-90.0, 0.0)),
        "left": ((-120.0, 0.0), (-60.0, 1.0), (0.0, 0.0)),
        "right": ((0.0, 0.0), (60.0, 1.0), (120.0, 0.0)),
        "hard_right": ((90.0, 0.0), (180.0, 1.0))}),
    "goal": (0.0, 10.0, {
        "near": ((0.0, 1.0), (5.0, 0.0)),
        "far": ((3.0, 0.0), (8.0, 1.0))}),
}
ROBOT_ORDER = tuple(ROBOT_INPUTS)


def _ladder(low, step, names):
    """Shoulder, triangles, shoulder: term k peaks at low + k * step."""
    c = [low + k * step for k in range(len(names))]
    terms = {names[0]: ((c[0], 1.0), (c[1], 0.0)),
             names[-1]: ((c[-2], 0.0), (c[-1], 1.0))}
    for k in range(1, len(names) - 1):
        terms[names[k]] = ((c[k - 1], 0.0), (c[k], 1.0), (c[k + 1], 0.0))
    return terms


ROBOT_OUTPUTS = {
    "steer": (-90.0, 90.0, _ladder(-90.0, 22.5, (
        "l4", "l3", "l2", "l1", "z", "r1", "r2", "r3", "r4"))),
    "vel": (0.0, 1.0, _ladder(0.0, 0.125, tuple(f"v{k}" for k in range(9)))),
}
ROBOT_RESOLUTION = 101


def _robot_rules():
    front = ("very_near", "near", "medium", "far")
    heading = ("hard_left", "left", "right", "hard_right")
    near_far = ("near", "far")
    steer_fh = (("r4", "r3", "l3", "l4"), ("r3", "r2", "l2", "l3"),
                ("r2", "r1", "l1", "l2"), ("r1", "z", "z", "l1"))
    vel_fh = (("v0", "v1", "v1", "v0"), ("v1", "v2", "v2", "v1"),
              ("v3", "v4", "v4", "v3"), ("v5", "v6", "v6", "v5"))
    steer_fl = (("r4", "r3"), ("r2", "r1"), ("r1", "z"), ("r1", "z"))
    vel_fg = (("v0", "v1"), ("v2", "v3"), ("v4", "v5"), ("v6", "v7"))
    steer_hg = (("l4", "l3"), ("l2", "l1"), ("r2", "r1"), ("r4", "r3"))
    rules = []  # ((var, term), (var, term)) -> ((output, term), ...)
    for i, f in enumerate(front):
        for j, h in enumerate(heading):
            rules.append(((("front", f), ("heading", h)),
                          (("steer", steer_fh[i][j]), ("vel", vel_fh[i][j]))))
    for i, f in enumerate(front):
        for j, n in enumerate(near_far):
            rules.append(((("front", f), ("left", n)), (("steer", steer_fl[i][j]),)))
    for i, f in enumerate(front):
        for j, n in enumerate(near_far):
            rules.append(((("front", f), ("goal", n)), (("vel", vel_fg[i][j]),)))
    for i, h in enumerate(heading):
        for j, n in enumerate(near_far):
            rules.append(((("heading", h), ("goal", n)), (("steer", steer_hg[i][j]),)))
    rules.append(((("front", "far"), ("goal", "far")), (("vel", "v8"),)))
    return tuple(rules)


ROBOT_RULES = _robot_rules()


def robot_crisp(inputs) -> dict[str, np.ndarray]:
    """Mamdani min/max with centroid for rows of (front, left, heading, goal).

    Rules that share a consequent term are folded first: under min
    implication and max aggregation, max(min(a1, C), min(a2, C)) equals
    min(max(a1, a2), C).
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    cols = {name: x[:, k] for k, name in enumerate(ROBOT_ORDER)}
    mu = {(v, t): pwl(cols[v], pts)
          for v, (_, _, terms) in ROBOT_INPUTS.items() for t, pts in terms.items()}
    strength = {}
    for (a, b), consequents in ROBOT_RULES:
        act = np.minimum(mu[a], mu[b])
        for key in consequents:
            strength[key] = np.maximum(strength.get(key, 0.0), act)
    out = {}
    for name, (low, high, terms) in ROBOT_OUTPUTS.items():
        xs = grid(low, high, ROBOT_RESOLUTION)
        agg = np.zeros((len(x), ROBOT_RESOLUTION))
        shaped = np.empty_like(agg)
        for term, pts in terms.items():
            if (name, term) in strength:
                np.minimum(strength[name, term][:, None], pwl(xs, pts)[None, :], out=shaped)
                np.maximum(agg, shaped, out=agg)
        den = agg.sum(axis=1)
        num = (agg * xs).sum(axis=1)
        safe = np.where(den > 0.0, den, 1.0)
        out[name] = np.where(den > 0.0, num / safe, 0.5 * (low + high))
    return out


def check_robot(inputs, crisp: dict) -> list[str]:
    """``crisp`` maps each output to the program's values, one per row."""
    want = robot_crisp(inputs)
    problems = []
    for name, (low, high, _) in ROBOT_OUTPUTS.items():
        problems += _close(f"robot {name} vs reference Mamdani", crisp[name],
                           want[name], 1e-9)
        problems += _inside(f"robot {name}", crisp[name], low, high)
    return problems


# ---------------------------------------------------------------------------
# denoise.fzl: 8 neighbour differences, 26 min rules, two-group readout.

# Inputs tested by each rule (1-based), in listing order; rules 14-26 repeat
# these patterns with NEG in place of POS.
DENOISE_PATTERNS = (
    (2, 5, 7), (5, 7, 4), (7, 4, 2), (4, 2, 5),
    (1, 3, 8, 6), (1, 2, 3, 5), (2, 3, 5, 8), (3, 5, 8, 7), (5, 8, 7, 6),
    (8, 7, 6, 4), (7, 6, 4, 1), (6, 4, 1, 2), (4, 1, 2, 3),
)


def denoise_activations(diffs) -> np.ndarray:
    """Rule activations, shape (rows, 26)."""
    d = np.atleast_2d(np.asarray(diffs, dtype=float))
    pos = tri(d, -255.0, 255.0, 765.0)
    neg = tri(d, -765.0, -255.0, 255.0)
    acts = [np.min(m[:, [i - 1 for i in p]], axis=1)
            for m in (pos, neg) for p in DENOISE_PATTERNS]
    return np.stack(acts, axis=1)


def denoise_readout(acts) -> np.ndarray:
    """y = 255 (l1 - l2) / (l1 + l2 + l0) from the two rule groups."""
    acts = np.atleast_2d(np.asarray(acts, dtype=float))
    l1 = acts[:, :13].max(axis=1)
    l2 = acts[:, 13:].max(axis=1)
    l0 = np.maximum(0.0, 1.0 - l1 - l2)
    return 255.0 * (l1 - l2) / (l1 + l2 + l0)


def check_denoise(diffs, ys) -> list[str]:
    want = denoise_readout(denoise_activations(diffs))
    return (_close("denoise readout vs reference", ys, want, 1e-12)
            + _inside("denoise output", ys, -255.0, 255.0))


# ---------------------------------------------------------------------------
# models/tipper_it2.fzl: 2 inputs, 3 max/min rules, KM type reduction.

IT2_INPUTS = {
    "service": {
        "poor": (lambda x: gauss(x, 0.0, 1.2), lambda x: gauss(x, 0.0, 1.8)),
        "good": (lambda x: gauss(x, 5.0, 1.2), lambda x: gauss(x, 5.0, 1.8)),
        "excellent": (lambda x: gauss(x, 10.0, 1.2), lambda x: gauss(x, 10.0, 1.8))},
    "food": {
        "rancid": (lambda x: trap(x, -2.0, 0.0, 0.5, 2.0),
                   lambda x: trap(x, -2.0, 0.0, 1.5, 4.0)),
        "delicious": (lambda x: trap(x, 8.0, 9.5, 10.0, 12.0),
                      lambda x: trap(x, 6.0, 8.5, 10.0, 12.0))},
}
IT2_DOMAIN = (0.0, 30.0)
IT2_TIP = {
    "cheap": ((1.0, 5.0, 9.0), (0.0, 5.0, 10.0)),
    "average": ((11.0, 15.0, 19.0), (10.0, 15.0, 20.0)),
    "generous": ((21.0, 25.0, 29.0), (20.0, 25.0, 30.0)),
}
IT2_RESOLUTION = 101


def it2_firing(service, food) -> np.ndarray:
    """[lower, upper] activation of the three rules, shape (rows, 3, 2)."""
    s, f = IT2_INPUTS["service"], IT2_INPUTS["food"]
    bounds = []
    for b in (0, 1):
        bounds.append(np.stack([
            np.maximum(s["poor"][b](service), f["rancid"][b](food)),
            s["good"][b](service),
            np.maximum(s["excellent"][b](service), f["delicious"][b](food))], axis=-1))
    return np.stack(bounds, axis=-1)


def it2_band(firing) -> tuple[np.ndarray, np.ndarray]:
    """Aggregated lower and upper curves, each (rows, resolution)."""
    xs = grid(*IT2_DOMAIN, IT2_RESOLUTION)
    out = []
    for b in (0, 1):
        agg = np.zeros((len(firing), IT2_RESOLUTION))
        for k, shapes in enumerate(IT2_TIP.values()):
            agg = np.maximum(agg, np.minimum(firing[:, k, b, None],
                                             tri(xs, *shapes[b])[None, :]))
        out.append(agg)
    return out[0], out[1]


def switch_point_scan(xs, lower, upper) -> np.ndarray:
    """Centroid interval [y_left, y_right] of each band row, by trying every
    switch point k = -1 .. n-1.

    The left end takes the upper curve at points 0..k and the lower curve
    after them; the right end mirrors that.  Each candidate is a direct
    weighted mean, so no iteration or prefix sum can hide an error.
    """
    n = len(xs)
    below = (np.arange(n)[None, :] <= np.arange(-1, n)[:, None])[None]
    lower, upper = lower[:, None, :], upper[:, None, :]
    ends = []
    for theta, pick in ((np.where(below, upper, lower), np.min),
                        (np.where(below, lower, upper), np.max)):
        den = theta.sum(axis=2)
        num = (theta * xs).sum(axis=2)
        ok = den > 0.0
        fill = np.inf if pick is np.min else -np.inf
        ends.append(pick(np.where(ok, num / np.where(ok, den, 1.0), fill), axis=1))
    mid = 0.5 * (xs[0] + xs[-1])
    out = np.stack(ends, axis=1)
    return np.where(np.isfinite(out), out, mid)


def check_it2(inputs, firing, lower, upper, intervals, crisp) -> list[str]:
    """One row per operation: inputs (service, food), the program's firing
    intervals (3, 2), aggregated band, [y_left, y_right] and crisp value."""
    inputs = np.asarray(inputs, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    intervals = np.asarray(intervals, dtype=float)
    crisp = np.asarray(crisp, dtype=float)
    xs = grid(*IT2_DOMAIN, IT2_RESOLUTION)
    want_firing = it2_firing(inputs[:, 0], inputs[:, 1])
    want_lo, want_hi = it2_band(want_firing)
    # the scan costs about as much as the call it checks: every 4th row
    lo4, hi4 = lower[::4], upper[::4]
    scans = np.concatenate([switch_point_scan(xs, lo4[i:i + 16], hi4[i:i + 16])
                            for i in range(0, len(lo4), 16)])
    problems = _close("it2 firing intervals", firing, want_firing, 1e-12)
    problems += _close("it2 lower band", lower, want_lo, 1e-12)
    problems += _close("it2 upper band", upper, want_hi, 1e-12)
    problems += _close("it2 [y_left, y_right] vs switch-point scan",
                       intervals[::4], scans, 1e-12)
    if np.any(crisp != 0.5 * (intervals[:, 0] + intervals[:, 1])):
        problems.append("it2 crisp value is not the midpoint of its interval")
    for label, curves in (("lower", lower), ("upper", upper)):
        den = curves.sum(axis=1)
        ok = den > 0.0
        c = (curves[ok] * xs).sum(axis=1) / den[ok]
        if np.any((c < intervals[ok, 0] - 1e-12) | (c > intervals[ok, 1] + 1e-12)):
            problems.append(f"it2 centroid of the {label} curve lies outside "
                            f"[y_left, y_right]")
    return problems


# ---------------------------------------------------------------------------
# Cold path: cross-format and round-trip properties.

def check_formats_agree(values: dict, tol: float = 1e-6) -> list[str]:
    """``values`` maps a format label to the crisp tip it produced."""
    labels = list(values)
    base = values[labels[0]]
    return [f"tipper {label} gives {values[label]!r}, {labels[0]} gives {base!r}"
            for label in labels[1:]
            if not abs(values[label] - base) <= tol]


def check_generated(label, generated, interpreted, tol: float = 1e-12) -> list[str]:
    """Generated code against the interpreter, output by output."""
    return _close(f"{label} generated vs interpreter", generated, interpreted, tol)

