"""Axiom suite and spot values for the t-norm / s-norm families."""

import itertools
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzkit import SNorm, TNorm, snorm, tnorm
from fuzzkit.norms import Defuzzifier, Implication, implicate, snorm_arrays

import helpers

TOL = 1e-12
unit = st.floats(0.0, 1.0)


def test_spot_values():
    assert tnorm(TNorm.MIN, 0.3, 0.7) == 0.3
    assert tnorm(TNorm.PROD, 0.5, 0.5) == 0.25
    assert snorm(SNorm.MAX, 0.3, 0.7) == 0.7
    assert snorm(SNorm.PROB_SUM, 0.5, 0.5) == 0.75
    assert tnorm(TNorm.LUKASIEWICZ, 0.6, 0.7) == pytest.approx(0.3, abs=TOL)
    assert tnorm(TNorm.LUKASIEWICZ, 0.2, 0.3) == 0.0
    assert tnorm(TNorm.DRASTIC, 0.4, 0.9) == 0.0
    assert tnorm(TNorm.DRASTIC, 0.4, 1.0) == 0.4
    assert tnorm(TNorm.NILPOTENT, 0.6, 0.7) == 0.6
    assert tnorm(TNorm.NILPOTENT, 0.3, 0.4) == 0.0
    assert tnorm(TNorm.HAMACHER, 0.0, 0.0) == 0.0
    assert tnorm(TNorm.HAMACHER, 0.5, 0.5) == pytest.approx(1 / 3, abs=TOL)
    assert snorm(SNorm.BOUNDED_SUM, 0.6, 0.7) == 1.0
    assert snorm(SNorm.DRASTIC, 0.4, 0.9) == 1.0
    assert snorm(SNorm.DRASTIC, 0.0, 0.9) == 0.9
    assert snorm(SNorm.NILPOTENT, 0.2, 0.3) == 0.3
    assert snorm(SNorm.NILPOTENT, 0.6, 0.7) == 1.0
    assert snorm(SNorm.EINSTEIN, 0.5, 0.5) == pytest.approx(0.8, abs=TOL)


def test_identity_axiom_on_random_samples():
    rng = random.Random(11)
    xs = [rng.random() for _ in range(100)]
    for x in xs:
        for kind in TNorm:
            assert abs(tnorm(kind, x, 1.0) - x) <= TOL
        for kind in SNorm:
            assert abs(snorm(kind, x, 0.0) - x) <= TOL


@given(unit, unit)
def test_commutativity(a, b):
    for kind in TNorm:
        assert abs(tnorm(kind, a, b) - tnorm(kind, b, a)) <= TOL
    for kind in SNorm:
        assert abs(snorm(kind, a, b) - snorm(kind, b, a)) <= TOL


@given(unit, unit, unit)
def test_associativity(a, b, c):
    for kind in TNorm:
        left = tnorm(kind, tnorm(kind, a, b), c)
        right = tnorm(kind, a, tnorm(kind, b, c))
        assert abs(left - right) <= TOL
    for kind in SNorm:
        left = snorm(kind, snorm(kind, a, b), c)
        right = snorm(kind, a, snorm(kind, b, c))
        assert abs(left - right) <= TOL


@given(unit, unit, unit)
def test_monotonicity(a, a2, b):
    lo, hi = min(a, a2), max(a, a2)
    for kind in TNorm:
        assert tnorm(kind, lo, b) <= tnorm(kind, hi, b) + TOL
    for kind in SNorm:
        assert snorm(kind, lo, b) <= snorm(kind, hi, b) + TOL


@given(unit, unit)
def test_results_stay_in_unit_interval(a, b):
    for kind in TNorm:
        assert 0.0 <= tnorm(kind, a, b) <= 1.0
    for kind in SNorm:
        assert 0.0 <= snorm(kind, a, b) <= 1.0


@given(unit, unit)
def test_de_morgan_min_max_exact(a, b):
    assert 1.0 - tnorm(TNorm.MIN, a, b) == snorm(SNorm.MAX, 1.0 - a, 1.0 - b)


@pytest.mark.parametrize("kind", [*TNorm, *SNorm], ids=lambda k: f"{type(k).__name__}.{k.name}")
def test_scalar_forms_match_reference_bits(kind):
    # The compiled templates against formulas written out in tests/helpers,
    # bit for bit, on random degrees, signed zeros, 1, a subnormal and NaN.
    norm, ref = (tnorm, helpers._T_REF) if isinstance(kind, TNorm) else (snorm, helpers._S_REF)
    rng = random.Random(13)
    values = [0.0, -0.0, 1.0, 5e-324, math.nan, *(rng.random() for _ in range(30))]
    for a, b in itertools.product(values, repeat=2):
        got, want = norm(kind, a, b), ref[kind](a, b)
        assert struct.pack("<d", got) == struct.pack("<d", want), (a, b)


def test_array_forms_match_scalar_forms():
    rng = random.Random(12)
    a = np.array([rng.random() for _ in range(500)])
    b = np.array([rng.random() for _ in range(500)])
    for kind in SNorm:
        vec = snorm_arrays(kind, a, b)
        ref = np.array([snorm(kind, x, y) for x, y in zip(a, b)])
        assert np.array_equal(vec, ref), kind


def test_implicate_min_and_prod():
    curve = np.linspace(0.0, 1.0, 11)
    clipped = implicate(Implication.MIN, 0.4, curve)
    scaled = implicate(Implication.PROD, 0.4, curve)
    assert np.array_equal(clipped, np.minimum(curve, 0.4))
    assert np.array_equal(scaled, 0.4 * curve)
    assert clipped.max() == 0.4
    assert scaled[-1] == 0.4


def test_kind_enums_are_complete():
    assert {k.value for k in TNorm} == {"min", "prod", "lukasiewicz",
                                        "drastic", "nilpotent", "hamacher"}
    assert {k.value for k in SNorm} == {"max", "prob_sum", "bounded_sum",
                                        "drastic", "nilpotent", "einstein"}
    assert {k.value for k in Implication} == {"min", "prod"}
    assert {k.value for k in Defuzzifier} == {"centroid", "bisector",
                                              "mean_of_maxima",
                                              "first_of_maxima",
                                              "last_of_maxima"}
