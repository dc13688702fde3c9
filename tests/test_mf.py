"""Membership function behaviour against hand-written formulas."""

import math
import random
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

import helpers
from fuzzkit import (Gaussian, GeneralizedBell, IntervalMF, ModelError,
                     PiecewiseLinear, Sigmoid, Singleton, Trapezoidal,
                     Triangular)


def test_gaussian_peak_at_center():
    assert Gaussian(5.0, 1.5)(5.0) == 1.0


def test_triangular_rising_midpoint():
    assert Triangular(0, 5, 10)(2.5) == 0.5


def test_trapezoidal_plateau():
    assert Trapezoidal(-2, 0, 1, 3)(0.5) == 1.0


def test_triangular_matches_formula():
    rng = random.Random(1)
    mf = Triangular(-3.0, 1.0, 7.5)
    for _ in range(300):
        x = rng.uniform(-6, 10)
        assert mf(x) == helpers.tri(x, -3.0, 1.0, 7.5)


def test_trapezoidal_matches_formula():
    rng = random.Random(2)
    mf = Trapezoidal(0.0, 2.0, 5.0, 9.0)
    for _ in range(300):
        x = rng.uniform(-2, 11)
        assert mf(x) == helpers.trap(x, 0.0, 2.0, 5.0, 9.0)


def test_gaussian_matches_formula():
    rng = random.Random(3)
    mf = Gaussian(2.0, 0.7)
    for _ in range(300):
        x = rng.uniform(-3, 7)
        assert mf(x) == helpers.gauss(x, 2.0, 0.7)


def test_bell_matches_formula():
    rng = random.Random(4)
    mf = GeneralizedBell(2.0, 3.0, 5.0)
    for _ in range(300):
        x = rng.uniform(-5, 15)
        assert mf(x) == pytest.approx(helpers.bell(x, 2.0, 3.0, 5.0), abs=1e-12)
    assert mf(5.0) == 1.0


def test_sigmoid_matches_formula():
    rng = random.Random(5)
    mf = Sigmoid(-1.3, 4.0)
    for _ in range(300):
        x = rng.uniform(-10, 18)
        assert mf(x) == pytest.approx(helpers.logistic(x, -1.3, 4.0), abs=1e-12)


def test_sigmoid_direction():
    rising = Sigmoid(2.0, 0.0)
    falling = Sigmoid(-2.0, 0.0)
    assert rising(5.0) > 0.99 and rising(-5.0) < 0.01
    assert falling(5.0) < 0.01 and falling(-5.0) > 0.99


def test_extreme_arguments_do_not_overflow():
    # Clamped exponent paths saturate instead of raising.
    assert Sigmoid(1000.0, 0.0)(1e6) == 1.0
    assert Sigmoid(1000.0, 0.0)(-1e6) == 0.0
    assert GeneralizedBell(1e-3, 50.0, 0.0)(1e300) == 0.0
    assert GeneralizedBell(1e300, 50.0, 0.0)(1.0) == 1.0
    assert Gaussian(0.0, 1.0)(1e8) == 0.0


def test_singleton_exact_match_only():
    mf = Singleton(3.5)
    assert mf(3.5) == 1.0
    assert mf(3.5 + 1e-12) == 0.0
    assert mf(np.nextafter(3.5, 4.0)) == 0.0


def test_piecewise_linear_nodes_and_extension():
    mf = PiecewiseLinear(((0.0, 0.2), (1.0, 1.0), (3.0, 0.5)))
    assert mf(0.0) == 0.2
    assert mf(1.0) == 1.0
    assert mf(3.0) == 0.5
    assert mf(-100.0) == 0.2   # constant extension left
    assert mf(100.0) == 0.5    # constant extension right
    assert mf(2.0) == pytest.approx(0.75, abs=1e-15)


def test_piecewise_linear_replicates_triangular():
    tri = Triangular(0.0, 5.0, 10.0)
    pl = PiecewiseLinear(((0.0, 0.0), (5.0, 1.0), (10.0, 0.0)))
    for x in np.linspace(0.0, 10.0, 501):
        assert pl(float(x)) == pytest.approx(tri(float(x)), abs=1e-12)


def test_sample_agrees_with_scalar_calls():
    rng = random.Random(6)
    mfs = [Triangular(0, 2, 5), Trapezoidal(0, 1, 2, 4), Gaussian(1.0, 0.5),
           Singleton(2.0), GeneralizedBell(1.0, 2.0, 3.0), Sigmoid(1.5, 2.0),
           PiecewiseLinear(((0.0, 0.0), (2.0, 1.0), (4.0, 0.25)))]
    xs = np.array(sorted(rng.uniform(-1, 6) for _ in range(200)) + [2.0])
    for mf in mfs:
        sampled = mf.sample(xs)
        for x, v in zip(xs, sampled):
            assert v == pytest.approx(mf(float(x)), abs=1e-12)


@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50),
       st.floats(-60, 60))
def test_triangular_stays_in_unit_interval(a, b, c, x):
    lo, mid, hi = sorted((a, b, c))
    assert 0.0 <= Triangular(lo, mid, hi)(x) <= 1.0


@given(st.floats(-50, 50), st.floats(0.01, 20), st.floats(-60, 60))
def test_gaussian_stays_in_unit_interval(mu, sigma, x):
    assert 0.0 <= Gaussian(mu, sigma)(x) <= 1.0


def test_random_parameterizations_stay_in_unit_interval():
    rng = random.Random(7)
    for _ in range(200):
        lo = rng.uniform(-50, 20)
        hi = lo + rng.uniform(0.5, 60)
        mf = helpers.random_mf(rng, lo, hi)
        for _ in range(200):
            x = rng.uniform(lo - 10, hi + 10)
            v = mf(x)
            assert 0.0 <= v <= 1.0, (mf, x, v)


def test_parameter_validation():
    with pytest.raises(ModelError):
        Triangular(1.0, 0.0, 2.0)
    with pytest.raises(ModelError):
        Trapezoidal(0.0, 2.0, 1.0, 3.0)
    with pytest.raises(ModelError):
        Gaussian(0.0, 0.0)
    with pytest.raises(ModelError):
        Gaussian(0.0, -1.0)
    with pytest.raises(ModelError):
        GeneralizedBell(0.0, 1.0, 0.0)
    with pytest.raises(ModelError):
        GeneralizedBell(1.0, -2.0, 0.0)
    with pytest.raises(ModelError):
        Sigmoid(0.0, 1.0)
    with pytest.raises(ModelError):
        PiecewiseLinear(())
    with pytest.raises(ModelError):
        PiecewiseLinear(((0.0, 0.0), (0.0, 1.0)))  # non-increasing x
    with pytest.raises(ModelError):
        PiecewiseLinear(((0.0, 1.5),))  # y outside [0, 1]
    with pytest.raises(ModelError):
        Gaussian(float("nan"), 1.0)


def test_interval_mf_pairs():
    pair = IntervalMF(Triangular(1, 2, 3), Triangular(0, 2, 4))
    lo, hi = pair(2.5)
    assert lo == Triangular(1, 2, 3)(2.5)
    assert hi == Triangular(0, 2, 4)(2.5)
    assert lo <= hi
    with pytest.raises(ModelError):
        IntervalMF(Triangular(0, 1, 2), "not an mf")


def test_membership_functions_are_hashable_values():
    # Equal parameters compare and hash equal (used for helper deduplication).
    assert Gaussian(1.0, 2.0) == Gaussian(1.0, 2.0)
    assert hash(Triangular(0, 1, 2)) == hash(Triangular(0, 1, 2))
    pts = ((0.0, 0.0), (1.0, 1.0))
    assert PiecewiseLinear(pts) == PiecewiseLinear(pts)
    assert hash(PiecewiseLinear(pts)) == hash(PiecewiseLinear(pts))


def _same(a, b) -> bool:
    """Same type and bits, any NaN matching any NaN."""
    if type(a) is not type(b):
        return False
    return (a != a and b != b) or struct.pack("<d", a) == struct.pack("<d", b)


def test_calls_match_the_independent_oracle_bit_for_bit():
    # Every kind against the hand-written formulas of ``helpers``: random
    # points and each parameter or node (a branch point), points 10 past the
    # domain, NaN and +-inf, as floats, ints and numpy floats.
    rng = random.Random(14)
    mfs = [(Singleton(2.5), -1.0, 5.0), (PiecewiseLinear(((1.0, 0.25),)), -1.0, 3.0)]
    for family in ("tri", "trap", "gauss", "bell", "sig", "pl"):
        for _ in range(50):
            lo = rng.uniform(-50, 20)
            hi = lo + rng.uniform(0.5, 60)
            mfs.append((helpers.random_mf(rng, lo, hi, family), lo, hi))
    checked = 0
    for mf, lo, hi in mfs:
        knots = [x for x, _ in mf.points] if isinstance(mf, PiecewiseLinear) \
            else [getattr(mf, f.name) for f in fields(mf)]
        xs = [rng.uniform(lo - 10, hi + 10) for _ in range(20)]
        xs += knots + [lo - 10, hi + 10, math.nan, math.inf, -math.inf]
        xs += [np.nextafter(k, math.inf) for k in knots] + [round(x) for x in knots]
        xs += [np.float64(x) for x in xs]
        for x in xs:
            assert _same(mf(x), helpers.t1_degree(mf, x)), (mf, x)
            checked += 1
    assert checked > 15_000


@pytest.mark.parametrize("sigma", [1e-320, 1e-162, 5e-324])
def test_gaussian_sigma_whose_square_underflows_is_rejected(sigma):
    # 2 sigma^2 would round to 0.0, and the formula would divide by it.
    with pytest.raises(ModelError, match="gaussian sigma is too small"):
        Gaussian(0.5, sigma)


def test_smallest_accepted_gaussian_sigma_evaluates():
    mf = Gaussian(0.5, 1e-161)
    assert mf(0.5) == 1.0 and mf(0.6) == 0.0


def test_smallest_accepted_gaussian_sigma_samples_without_warning():
    # With sigma = 1e-161, (x - mu)^2 / (2 sigma^2) overflows to inf: the
    # sample is exp(-inf) = 0.0, and the overflow is no warning.
    import warnings

    mf = Gaussian(0.5, 1e-161)
    xs = np.array([0.6, 1.5, 0.5, -1e150])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="warn"):
            got = mf.sample(xs)
    assert got.tolist() == [0.0, 0.0, 1.0, 0.0]
    assert got.tolist() == [mf(x) for x in xs.tolist()]
    # An ordinary sigma samples as the unguarded formula does, bit for bit.
    rng = np.random.default_rng(5)
    xs = rng.uniform(-20.0, 20.0, 1000)
    for mu, sigma in ((0.0, 1e-3), (2.5, 1.5), (-7.0, 40.0)):
        d = xs - mu
        want = np.exp(-(d * d) / (2.0 * sigma * sigma))
        assert Gaussian(mu, sigma).sample(xs).tobytes() == want.tobytes()
