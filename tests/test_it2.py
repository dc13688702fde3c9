"""Interval type-2 inference and Karnik-Mendel type reduction."""

import itertools
import math
import random

import numpy as np
import pytest

import helpers
from fuzzkit import (And, Domain, EngineSettings, EvaluationError, FuzzySystem,
                     Implication, IntervalMF, Not, PiecewiseLinear, Relation, Rule, SNorm,
                     SystemKind, Triangular, Variable, _emit, corpus, engine)
from fuzzkit.interop import parse_fcl
from fuzzkit.engine import (fire_rules, fire_rules_interval, infer,
                            infer_it2_mamdani, infer_mamdani, km_reduce)


# ---------------------------------------------------------------------------
# km_reduce against the exhaustive switch-point oracle

def test_km_reduce_matches_exhaustive_oracle():
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randint(1, 12)
        xs = np.sort(np.array([rng.uniform(-5, 5) for _ in range(n)]))
        upper = np.array([rng.random() for _ in range(n)])
        lower = upper * np.array([rng.random() for _ in range(n)])
        got = km_reduce(xs, lower, upper)
        want = helpers.km_oracle(xs, lower, upper)
        assert got == want, (xs.tolist(), lower.tolist(), upper.tolist())


def _switch_point_tie(xs, lower, upper, left: bool):
    """Band of one more point, placed at the bound itself with lower 0 and
    upper 1: in exact arithmetic the switch points on either side of it give
    the same centroid, so they tie within a few ulp."""
    y = helpers.km_oracle(xs, lower, upper)[0 if left else 1]
    j = int(np.searchsorted(xs, y))
    return (np.insert(xs, j, y), np.insert(lower, j, 0.0),
            np.insert(upper, j, 1.0))


def test_km_reduce_grid_memo_hit_and_miss_match_oracle():
    # km_reduce keeps the type-reduction constants of the last grid it saw:
    # a call on that grid again, and a call on a fresh grid, are bitwise the
    # exhaustive oracle.
    rng = random.Random(72)
    grids = [np.linspace(-3.0, 7.0, 41), np.linspace(0.0, 1.0, 17)]
    for step in range(12):
        xs = grids[step // 3 % 2].copy()  # equal bytes, a fresh array each call
        upper = np.array([rng.random() for _ in range(len(xs))])
        lower = upper * np.array([rng.random() for _ in range(len(xs))])
        hits = engine._km_grid_of.cache_info().hits
        assert km_reduce(xs, lower, upper) == helpers.km_oracle(xs, lower, upper)
        assert engine._km_grid_of.cache_info().hits == hits + (step % 3 != 0)


def test_km_reduce_matches_oracle_at_scale():
    # Beyond numpy's 8-way unrolled and 128-element pairwise blocks, prefix
    # sums and np.sum round differently, so only the confirmation step can
    # make the result equal the oracle's.  Odd cases add zero gaps; cases
    # 4-6 and 7-9 add a near tie at the left and the right bound.
    rng = random.Random(74)
    for n in (101, 129, 257, 1001):
        for case in range(10):
            m = n - 1 if case >= 4 else n
            xs = np.sort(np.array([rng.uniform(-10, 30) for _ in range(m)]))
            upper = np.array([rng.random() for _ in range(m)])
            lower = upper * np.array([rng.random() for _ in range(m)])
            if case % 2:
                # zero gaps, runs of lower == upper, and runs with no mass
                for _ in range(6):
                    a = rng.randrange(m)
                    b = min(m, a + rng.randint(1, m // 4))
                    lower[a:b] = upper[a:b]
                    if rng.random() < 0.5:
                        lower[a:b] = upper[a:b] = 0.0
            if case >= 4:
                xs, lower, upper = _switch_point_tie(xs, lower, upper, case < 7)
            got = km_reduce(xs, lower, upper)
            want = helpers.km_oracle(xs, lower, upper)
            assert got == want, (n, case, got, want)


def test_km_reduce_many_near_ties_match_oracle():
    # lower = upper * (1 - 2**-50) puts every switch point within a few ulp
    # of the best, so nearly all 1,002 candidates of each bound are
    # confirmed, over many blocks of the confirm step: the quadratic worst
    # case that km_reduce's docstring states.
    xs = np.linspace(-10.0, 30.0, 1001)
    upper = np.exp(-0.5 * ((xs - 7.0) / 6.0) ** 2)
    lower = upper * (1.0 - 2.0 ** -50)
    assert km_reduce(xs, lower, upper) == helpers.km_oracle(xs, lower, upper)


@pytest.mark.parametrize("breach", ["nan_membership", "lower_above_upper",
                                    "decreasing_grid", "negative_membership"])
def test_km_reduce_rejects_contract_breach(breach):
    xs = np.linspace(0.0, 10.0, 11)
    upper = np.array([helpers.tri(x, 1.0, 5.0, 9.0) for x in xs])
    lower = 0.5 * upper
    args = {
        "nan_membership": (xs, np.where(xs == 3.0, np.nan, lower), upper),
        "lower_above_upper": (xs, upper, lower),
        "decreasing_grid": (xs[::-1], lower, upper),
        "negative_membership": (xs, lower - 0.3, upper),
    }[breach]
    with pytest.raises(EvaluationError):
        km_reduce(*args)


def test_km_reduce_order_and_bounds():
    rng = random.Random(72)
    for _ in range(200):
        n = rng.randint(1, 30)
        xs = np.sort(np.array([rng.uniform(0, 10) for _ in range(n)]))
        upper = np.array([rng.random() for _ in range(n)])
        lower = upper * np.array([rng.random() for _ in range(n)])
        y_l, y_r = km_reduce(xs, lower, upper)
        assert y_l <= y_r
        assert xs[0] - 1e-12 <= y_l and y_r <= xs[-1] + 1e-12


def test_km_reduce_zero_width_equals_weighted_mean():
    rng = random.Random(73)
    for _ in range(100):
        n = rng.randint(2, 20)
        xs = np.sort(np.array([rng.uniform(0, 10) for _ in range(n)]))
        mus = np.array([rng.random() for _ in range(n)])
        if mus.sum() == 0.0:
            mus[0] = 0.5
        y_l, y_r = km_reduce(xs, mus, mus)
        want = float(np.sum(xs * mus) / np.sum(mus))
        assert y_l == pytest.approx(want, abs=1e-12)
        assert y_r == pytest.approx(want, abs=1e-12)


def test_km_reduce_symmetric_band_is_centered():
    xs = np.linspace(0.0, 10.0, 101)
    upper = np.array([helpers.tri(x, 1.0, 5.0, 9.0) for x in xs])
    lower = 0.5 * upper
    y_l, y_r = km_reduce(xs, lower, upper)
    assert y_l + y_r == pytest.approx(10.0, abs=1e-9)
    assert y_l < 5.0 < y_r


def test_km_reduce_degenerate_inputs():
    xs = np.array([2.0, 4.0, 6.0])
    zero = np.zeros(3)
    assert km_reduce(xs, zero, zero) == (4.0, 4.0)
    assert km_reduce(np.array([3.0]), np.array([0.2]), np.array([0.9])) == \
        (3.0, 3.0)
    with pytest.raises(EvaluationError):
        km_reduce(xs, zero, np.zeros(2))
    with pytest.raises(EvaluationError):
        km_reduce(np.array([]), np.array([]), np.array([]))


def test_km_reduce_wider_band_widens_interval():
    xs = np.linspace(0.0, 10.0, 51)
    upper = np.array([helpers.tri(x, 0.0, 5.0, 10.0) for x in xs])
    prev = 0.0
    for shrink in (0.9, 0.6, 0.3, 0.0):
        y_l, y_r = km_reduce(xs, shrink * upper, upper)
        width = y_r - y_l
        assert width >= prev - 1e-12
        prev = width


# ---------------------------------------------------------------------------
# IT2 inference

def _band_system():
    a = Variable("a", Domain(0, 10), {
        "low": IntervalMF(Triangular(0, 0, 6), Triangular(0, 0, 8)),
        "high": IntervalMF(Triangular(4, 10, 10), Triangular(2, 10, 10)),
    })
    y = Variable("y", Domain(0, 30), {
        "small": IntervalMF(Triangular(2, 5, 8), Triangular(0, 5, 10)),
        "large": IntervalMF(Triangular(22, 25, 28), Triangular(20, 25, 30)),
    })
    return FuzzySystem("band", SystemKind.MAMDANI_IT2, {"a": a}, {"y": y},
                       (Rule(Relation("a", "low"), (Relation("y", "small"),)),
                        Rule(Relation("a", "high"), (Relation("y", "large"),))))


def test_fire_rules_interval_matches_oracle():
    # Bitwise against an independent interval evaluator; every other system
    # gets rule weights below 1 (the generator always uses 1.0).
    rng = random.Random(84)
    for k in range(200):
        fis = helpers.random_it2_system(rng)
        if k % 2:
            rules = tuple(Rule(r.antecedent, r.consequents, rng.uniform(0.1, 0.99))
                          for r in fis.rules)
            fis = FuzzySystem(fis.name, fis.kind, fis.inputs, fis.outputs, rules,
                              fis.settings)
        for _ in range(10):
            inputs = helpers.random_inputs(rng, fis)
            want = helpers.it2_firing_oracle(fis, inputs)
            assert fire_rules_interval(fis, inputs) == want, (fis, inputs)


def test_fire_rules_interval_long_polyline_bounds_match_oracle():
    # Bounds of more than _emit.CHAIN_NODES nodes bisect a table of segments;
    # shorter ones keep the branch chain.  Both equal the oracle with ==,
    # on the nodes, beside them, outside both ends, and between them.
    rng = random.Random(85)
    tipper = parse_fcl(corpus.load_text("tipper.fcl"))[0]
    uppers = [mf.points for mf in tipper.inputs["service"].terms.values()]  # 41 nodes
    for n in (2, 8, 9, 12, 30):
        xs = sorted(rng.sample(range(0, 1000), n))
        uppers.append(tuple((x / 100.0, rng.choice((0.0, 1.0, rng.random()))) for x in xs))
    terms = {f"p{k}": IntervalMF(PiecewiseLinear(tuple((x, y * rng.uniform(0.3, 1.0))
                                                         for x, y in pts)),
                                 PiecewiseLinear(pts))
             for k, pts in enumerate(uppers)}
    a = Variable("a", Domain(0.0, 10.0), terms)
    y = Variable("y", Domain(0.0, 1.0),
                 {"u": IntervalMF(Triangular(0.1, 0.5, 0.9), Triangular(0.0, 0.5, 1.0))})
    rules = [Rule(Relation("a", t), (Relation("y", "u"),)) for t in terms]
    rules += [Rule(Not(Relation("a", "p0")), (Relation("y", "u"),), 0.5),
              Rule(And(Relation("a", "p1"), Relation("a", "p7")), (Relation("y", "u"),))]
    fis = FuzzySystem("bands", SystemKind.MAMDANI_IT2, {"a": a}, {"y": y}, tuple(rules))
    assert {len(pts) > _emit.CHAIN_NODES for pts in uppers} == {False, True}
    probes = [-1.0, 0.0, -0.0, 10.0, 11.0]
    for pts in uppers:
        for x, _ in pts:
            probes += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
    probes += [rng.uniform(-0.5, 10.5) for _ in range(300)]
    for v in probes:
        want = helpers.it2_firing_oracle(fis, {"a": v})
        assert fire_rules_interval(fis, {"a": v}) == want, v


def test_it2_result_structure():
    fis = _band_system()
    res = infer_it2_mamdani(fis, {"a": 3.0})
    assert res.firing is None
    assert len(res.firing_intervals) == 2
    for lo, hi in res.firing_intervals:
        assert 0.0 <= lo <= hi <= 1.0
    y_l, y_r = res.intervals["y"]
    assert y_l <= y_r
    assert res.crisp["y"] == 0.5 * (y_l + y_r)
    band = res.aggregated["y"]
    assert np.all(band.lower.mus <= band.upper.mus)
    assert np.array_equal(band.lower.xs, band.upper.xs)


def test_it2_dispatch_and_t1_refusal():
    fis = _band_system()
    assert infer(fis, {"a": 3.0}).crisp["y"] == \
        infer_it2_mamdani(fis, {"a": 3.0}).crisp["y"]
    with pytest.raises(EvaluationError):
        fire_rules(fis, {"a": 3.0})
    with pytest.raises(EvaluationError):
        infer_mamdani(fis, {"a": 3.0})


def test_it2_symmetric_input_centers_output():
    fis = _band_system()
    res = infer_it2_mamdani(fis, {"a": 5.0})
    assert res.crisp["y"] == pytest.approx(15.0, abs=0.5)


def test_it2_zero_fire_default():
    a = Variable("a", Domain(0, 10),
                 {"band": IntervalMF(Triangular(4, 5, 6), Triangular(3, 5, 7))})
    y = Variable("y", Domain(0, 8),
                 {"t": IntervalMF(Triangular(1, 4, 7), Triangular(0, 4, 8))})
    fis = FuzzySystem("z", SystemKind.MAMDANI_IT2, {"a": a}, {"y": y},
                      (Rule(Relation("a", "band"), (Relation("y", "t"),)),))
    res = infer_it2_mamdani(fis, {"a": 9.5})
    assert res.crisp["y"] == 4.0
    assert res.intervals["y"] == (4.0, 4.0)
    assert res.degenerate == ("y",)


def test_it2_subnormal_band_is_not_degenerate():
    # Weight 5e-324 fires the upper bound (membership 0.6) at the smallest
    # subnormal and the lower one (0.2) at zero, so the aggregated band is
    # 0 below and 0 or 5e-324 above.  Its half-band mass rounds to zero, but
    # the band is not empty: type reduction yields the grid midpoint, as
    # km_oracle does, and the output is not degenerate.
    a = Variable("a", Domain(0, 10),
                 {"band": IntervalMF(Triangular(4, 5, 6), Triangular(3, 5, 7))})
    y = Variable("y", Domain(0, 8),
                 {"t": IntervalMF(Triangular(1, 4, 7), Triangular(0, 4, 8))})
    for implication in Implication:
        fis = FuzzySystem("sub", SystemKind.MAMDANI_IT2, {"a": a}, {"y": y},
                          (Rule(Relation("a", "band"), (Relation("y", "t"),), 5e-324),),
                          EngineSettings(implication=implication))
        res = infer_it2_mamdani(fis, {"a": 4.2})
        assert res.firing_intervals == ((0.0, 5e-324),)
        band = res.aggregated["y"]
        assert not band.lower.mus.any() and band.upper.mus.any()
        assert set(band.upper.mus.tolist()) == {0.0, 5e-324}
        assert res.intervals["y"] == helpers.km_oracle(band.lower.xs, band.lower.mus,
                                                       band.upper.mus) == (4.0, 4.0)
        assert res.crisp["y"] == 4.0
        assert res.degenerate == ()


def test_it2_matches_plain_float_reference():
    # Both aggregated bands against the plain-float reference, the interval
    # against the exhaustive oracle on the reference bands; inputs run past
    # the domains so that some calls fire no rule.
    rng = random.Random(83)
    degenerate = 0
    for i in range(60):
        fis = helpers.random_it2_system(rng, zero_width=(i % 4 == 0))
        var = fis.outputs["y"]
        for _ in range(5):
            res = infer_it2_mamdani(fis, helpers.random_inputs(rng, fis, pad=0.5))
            acts = res.firing_intervals
            lower = helpers.aggregate_reference(fis, "y", [a[0] for a in acts], "lower")
            upper = helpers.aggregate_reference(fis, "y", [a[1] for a in acts], "upper")
            band = res.aggregated["y"]
            assert band.lower.mus.tolist() == lower
            assert band.upper.mus.tolist() == upper
            if any(upper):
                assert res.degenerate == ()
                assert res.intervals["y"] == helpers.km_oracle(band.lower.xs, lower, upper)
            else:
                mid = 0.5 * (var.domain.low + var.domain.high)
                assert res.degenerate == ("y",)
                assert res.intervals["y"] == (mid, mid)
                degenerate += 1
    assert degenerate > 0


def test_it2_uneven_outputs_match_plain_float_reference():
    # The interval type-2 twin of the uneven-outputs type-1 test: both bands
    # of outputs with 2 and 5 terms, padded into one term matrix.
    rng = random.Random(506)
    one_sided = 0
    for agg, imp in itertools.product(SNorm, Implication):
        fis = helpers.uneven_outputs_system(
            rng, EngineSettings(implication=imp, aggregation=agg), interval=True)
        for a in np.linspace(-1.0, 11.0, 49).tolist():
            res = infer_it2_mamdani(fis, {"a": a})
            acts = res.firing_intervals
            degenerate = []
            for name, var in fis.outputs.items():
                lower = helpers.aggregate_reference(fis, name, [x[0] for x in acts], "lower")
                upper = helpers.aggregate_reference(fis, name, [x[1] for x in acts], "upper")
                band = res.aggregated[name]
                assert band.lower.mus.tolist() == lower
                assert band.upper.mus.tolist() == upper
                if any(upper):
                    want = helpers.km_oracle(band.lower.xs, lower, upper)
                else:
                    mid = 0.5 * (var.domain.low + var.domain.high)
                    want = (mid, mid)
                    degenerate.append(name)
                assert res.intervals[name] == want, (fis, a)
                assert res.crisp[name] == 0.5 * (want[0] + want[1])
            assert res.degenerate == tuple(degenerate)
            one_sided += len(degenerate) == 1
    assert one_sided > 0


def test_zero_width_it2_collapses_to_t1():
    rng = random.Random(81)
    for _ in range(100):
        fis = helpers.random_it2_system(rng, zero_width=True)
        t1 = helpers.t1_collapse(fis)
        for _ in range(5):
            inputs = helpers.random_inputs(rng, fis)
            got = infer_it2_mamdani(fis, inputs)
            want = infer_mamdani(t1, inputs)
            for name in fis.outputs:
                assert got.crisp[name] == pytest.approx(want.crisp[name],
                                                        abs=1e-9), fis.name


def test_it2_interval_properties():
    # The crisp value lies inside its own interval, both bounds inside the
    # output domain, and so do the centroids of the lower and upper curves,
    # which are two of the embedded curves the interval ranges over.  A
    # weighted mean of grid points may round past the domain by an ulp.
    rng = random.Random(82)
    for _ in range(60):
        fis = helpers.random_it2_system(rng)
        dom = fis.outputs["y"].domain
        for _ in range(5):
            res = infer_it2_mamdani(fis, helpers.random_inputs(rng, fis))
            y_l, y_r = res.intervals["y"]
            assert y_l - 1e-12 <= res.crisp["y"] <= y_r + 1e-12
            assert dom.low - 1e-12 <= y_l <= y_r <= dom.high + 1e-12
            band = res.aggregated["y"]
            for curve in (band.lower, band.upper):
                mass = float(np.sum(curve.mus))
                if mass > 0.0:
                    c = float(np.sum(curve.xs * curve.mus)) / mass
                    assert y_l - 1e-12 <= c <= y_r + 1e-12, (fis, c, y_l, y_r)


def test_row_sums_of_a_contiguous_block_round_like_np_sum():
    # The confirm step of km_reduce sums the rows of one C-contiguous
    # (2, r, n) block with np.add.reduce and takes each row's total for the
    # np.sum that the exhaustive oracle computes.  That holds while numpy
    # reduces each contiguous row pairwise, with its 8-way unrolled blocks
    # and 128-element leaves; a numpy that blocks a row differently fails
    # here, before any km_reduce test.
    rng = np.random.default_rng(23)
    base = rng.random((2, 3, 5000)) * 10.0 ** rng.integers(-3, 4, (2, 3, 5000))
    orders_differ = 0
    for n in range(1, 5001):
        block = np.ascontiguousarray(base[:, :, :n])
        got = np.add.reduce(block, axis=-1)
        assert got.tolist() == [[np.sum(row) for row in rows] for rows in block], n
        orders_differ += bool((got != np.add.accumulate(block, axis=-1)[..., -1]).any())
    assert orders_differ > 4000  # the data tell pairwise from sequential sums


def _with_settings(fis, settings):
    return FuzzySystem(fis.name, fis.kind, fis.inputs, fis.outputs, fis.rules, settings)


@pytest.mark.parametrize("resolution", [51, 101, 1001])
def test_it2_infer_equals_reference_bands_and_oracle(resolution):
    # infer's bands equal the plain-float aggregation, and its intervals the
    # exhaustive switch-point oracle on those bands and km_reduce on the
    # band it returns, with ==.  One- and two-output systems under max and
    # probabilistic-sum aggregation and min and product implication; inputs
    # run past the domains, so some outputs fire no rule.
    rng = random.Random(5200 + resolution)
    calls = 6 if resolution < 1001 else 2
    degenerate = 0
    for agg, imp in itertools.product((SNorm.MAX, SNorm.PROB_SUM), Implication):
        settings = EngineSettings(implication=imp, aggregation=agg, resolution=resolution)
        systems = [helpers.uneven_outputs_system(rng, settings, interval=True)]
        systems += [_with_settings(helpers.random_it2_system(rng), settings) for _ in range(3)]
        for fis in systems:
            for _ in range(calls):
                res = infer(fis, helpers.random_inputs(rng, fis, pad=0.4))
                acts = res.firing_intervals
                for name, var in fis.outputs.items():
                    band = res.aggregated[name]
                    lower = helpers.aggregate_reference(fis, name, [a[0] for a in acts], "lower")
                    upper = helpers.aggregate_reference(fis, name, [a[1] for a in acts], "upper")
                    assert band.lower.mus.tolist() == lower
                    assert band.upper.mus.tolist() == upper
                    if any(upper):
                        want = helpers.km_oracle(band.lower.xs, lower, upper)
                        assert name not in res.degenerate
                    else:
                        want = (var.domain.midpoint,) * 2
                        assert name in res.degenerate
                        degenerate += 1
                    assert res.intervals[name] == want, (fis, name)
                    assert res.crisp[name] == 0.5 * (want[0] + want[1])
                    if (band.lower.mus <= band.upper.mus).all():
                        assert km_reduce(band.lower.xs, band.lower.mus, band.upper.mus) == want
                    else:
                        # a + b - a*b rounds past its exact order: a lower
                        # band can top its upper one by an ulp, which
                        # km_reduce's input contract rejects
                        assert agg is SNorm.PROB_SUM
                        with pytest.raises(EvaluationError):
                            km_reduce(band.lower.xs, band.lower.mus, band.upper.mus)
    assert degenerate > 0


# ---------------------------------------------------------------------------
# Lazily built band curves

def test_it2_aggregated_is_built_on_first_read_only(monkeypatch):
    fis = corpus.load_system("tipper_it2")
    built = []
    band_type = engine.CurveBand

    def counting(lower, upper):
        built.append(lower)
        return band_type(lower, upper)

    monkeypatch.setattr(engine, "CurveBand", counting)
    res = infer(fis, {"service": 3.0, "food": 8.0})
    assert built == [] and list(res.aggregated) == ["tip"] and len(res.aggregated) == 1
    band = res.aggregated["tip"]
    assert res.aggregated["tip"] is band and len(built) == 1
    want = engine._aggregate(fis, res.firing_intervals)
    assert band.lower.mus.tobytes() == want[0, 0].tobytes()
    assert band.upper.mus.tobytes() == want[1, 0].tobytes()
    grids = engine._lower(fis).grids
    assert band.lower.xs is band.upper.xs and band.lower.xs.base is grids
    assert band.lower.xs.tobytes() == grids[0].tobytes()
    # both bounds are rows of the one aggregate the result kept
    assert band.lower.mus.base is band.upper.mus.base
    assert band.lower.mus.base.shape == (2, 1, 101)


def test_it2_aggregated_is_read_only_and_equals_its_dict():
    fis = helpers.uneven_outputs_system(random.Random(7), EngineSettings(), interval=True)
    res = infer(fis, {"a": 9.0})
    agg = res.aggregated
    with pytest.raises(TypeError):
        agg["p"] = None
    with pytest.raises(TypeError):
        del agg["p"]
    assert not hasattr(agg, "update") and not hasattr(agg, "pop")
    assert list(agg) == list(fis.outputs) and len(agg) == 2
    plain = dict(agg)
    assert agg == plain and plain == agg and agg == {name: agg[name] for name in plain}
    assert repr(agg) == repr(plain) and "aggregated={'" in repr(res)
    assert "CurveBand(lower=SampledCurve(" in repr(agg)
    assert "nope" not in agg and agg.get("nope") is None
    with pytest.raises(KeyError):
        agg["nope"]
    for band in agg.values():
        for curve in (band.lower, band.upper):
            assert not curve.mus.flags.writeable and not curve.xs.flags.writeable
            with pytest.raises(ValueError):
                curve.mus[0] = 1.0


def test_it2_aggregated_pickles_as_a_plain_dict():
    import pickle

    res = infer(corpus.load_system("tipper_it2"), {"service": 3.0, "food": 8.0})
    data = pickle.dumps(res)
    assert b"FuzzySystem" not in data and b"_LazyCurves" not in data
    back = pickle.loads(data)
    assert type(back.aggregated) is dict and back.crisp == res.crisp
    assert back.intervals == res.intervals
    for bound in ("lower", "upper"):
        assert getattr(back.aggregated["tip"], bound).mus.tobytes() == \
            getattr(res.aggregated["tip"], bound).mus.tobytes()
    assert type(pickle.loads(pickle.dumps(res.aggregated))) is dict
