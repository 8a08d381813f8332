import math
from fractions import Fraction

import pytest

from perturbalg import (
    GaussianRational,
    LaurentScalar,
    NonUnitError,
    RingMismatchError,
    SeriesRing,
    classify,
    divide_univariate,
    univariate_ring,
)
from perturbalg.errors import DomainError

from conftest import random_series, random_unit, seeded


def test_difference_of_squares(ring, t):
    assert (1 + t) * (1 - t) == 1 - t * t


def test_addition_cancels(ring, t):
    assert (2 + 3 * t) + ring.constant(-2) == 3 * t


def test_truncation_boundary(ring, t):
    assert (t ** ring.truncation) * t == ring.zero()


def test_incompatible_rings_rejected(ring, t):
    other = SeriesRing(("t",), 4)
    with pytest.raises(RingMismatchError):
        t + other.generator("t")
    with pytest.raises(RingMismatchError):
        t * SeriesRing(("t", "e1"), 8).generator("t")


def test_valuation(ring, t):
    assert (t**2 + t**3).valuation() == 2
    assert ring.constant(5).valuation() == 0
    assert ring.zero().valuation() == math.inf


def test_invert_constant(ring):
    assert ring.constant(2).invert() == ring.constant(Fraction(1, 2))


def test_invert_geometric(ring, t):
    expected = ring.zero()
    for k in range(ring.truncation + 1):
        expected = expected + t**k
    assert (1 - t).invert() == expected


def test_invert_non_unit(ring, t):
    with pytest.raises(NonUnitError):
        t.invert()


def test_standard_part(ring, t):
    assert (2 + 3 * t).standard_part() == GaussianRational(2)
    assert (t * t).standard_part() == GaussianRational(0)
    assert (1 - t).invert().standard_part() == GaussianRational(1)


def test_classify(ring, t):
    assert classify(t) == "infinitesimal"
    assert classify(1 + t) == "appreciable"
    assert classify(LaurentScalar(-1, ring.one())) == "infinitely_large"
    assert classify(ring.zero()) == "zero"


def test_specialize(ring, t):
    multi = SeriesRing(("e1", "e2"), 8)
    e1, e2 = multi.generator("e1"), multi.generator("e2")
    assert (e1 + e2).specialize({"e1": t, "e2": t**2}) == t + t**2
    assert (e1 * e2).specialize({"e1": t, "e2": 3 * t}) == 3 * t**2
    with pytest.raises(DomainError):
        e1.specialize({"e1": 1 + t, "e2": t})
    with pytest.raises(DomainError):
        e1.specialize({"e2": t})


def test_numeric_sample(ring, t):
    assert (1 + t).numeric_sample(0.01) == pytest.approx(1.01)
    assert (t * t).numeric_sample(1e-3) == pytest.approx(1e-6)
    assert ring.zero().numeric_sample(0.5) == 0
    multi = SeriesRing(("e1", "e2"), 8)
    value = (multi.generator("e1") * multi.generator("e2")).numeric_sample(
        {"e1": 0.1, "e2": 0.2}
    )
    assert value == pytest.approx(0.02)


def test_ring_laws_random():
    rng = seeded(11)
    ring = SeriesRing(("t", "e1"), 5)
    for _ in range(100):
        a = random_series(rng, ring)
        b = random_series(rng, ring)
        c = random_series(rng, ring)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_multiplicative_valuation():
    rng = seeded(12)
    ring = univariate_ring(8)
    checked = 0
    while checked < 60:
        a = random_series(rng, ring, max_degree=4)
        b = random_series(rng, ring, max_degree=4)
        if a.is_zero() or b.is_zero():
            continue
        if a.valuation() + b.valuation() > ring.truncation:
            continue
        assert (a * b).valuation() == a.valuation() + b.valuation()
        checked += 1


def test_invert_round_trip():
    rng = seeded(13)
    ring = SeriesRing(("t", "e1"), 6)
    for _ in range(50):
        unit = random_unit(rng, ring)
        assert unit * unit.invert() == ring.one()


def test_standard_part_is_ring_hom():
    rng = seeded(14)
    ring = univariate_ring(8)
    for _ in range(50):
        a = random_series(rng, ring)
        b = random_series(rng, ring)
        assert (a + b).standard_part() == a.standard_part() + b.standard_part()
        assert (a * b).standard_part() == a.standard_part() * b.standard_part()


def test_laurent_inversion_swaps_classes():
    rng = seeded(15)
    ring = univariate_ring(8)
    for _ in range(40):
        x = random_series(rng, ring)
        if x.is_zero():
            continue
        laurent = LaurentScalar.from_series(x)
        inverted = laurent.invert()
        assert (classify(inverted) == "infinitely_large") == (
            classify(x) == "infinitesimal"
        )


def test_divide_univariate(ring, t):
    assert divide_univariate(3 * t**2, t + 2 * t**2) * (t + 2 * t**2) == 3 * t**2
    assert divide_univariate(ring.zero(), t) == ring.zero()
    with pytest.raises(NonUnitError):
        divide_univariate(t, t**2)  # quotient would be infinitely large


def test_constant_series_hash_agrees_with_equality(ring, t):
    multi = SeriesRing(("e1", "e2"), 4)
    for value in (0, 1, Fraction(-5, 2)):
        for series_ring in (ring, multi):
            members = {series_ring.constant(value), GaussianRational(value), value, Fraction(value)}
            assert len(members) == 1
    z = GaussianRational(1, 2)
    assert len({ring.constant(z), z}) == 1
    assert len({1 + t, t + 1}) == 1
