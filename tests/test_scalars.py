import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturbalg import (
    ConstantMatrix,
    ExactPolynomial,
    ExactRationalFunction,
    GaussianRational,
    PerturbedMatrix,
    PerturbedPolynomial,
    univariate_ring,
)
from perturbalg.scalars import _reduced
from perturbalg.series import _row

from conftest import assert_round_trips


def test_construction_normalizes():
    z = GaussianRational(Fraction(2, 4), Fraction(-3, -6))
    assert z.re == Fraction(1, 2) and z.im == Fraction(1, 2)


def test_field_operations():
    a = GaussianRational(1, 2)
    b = GaussianRational(3, -1)
    assert a + b == GaussianRational(4, 1)
    assert a - b == GaussianRational(-2, 3)
    assert a * b == GaussianRational(5, 5)  # (1+2i)(3-i)
    assert (a / b) * b == a
    assert a * a.conjugate() == GaussianRational(a.norm2())


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_power_and_parity():
    i = GaussianRational(0, 1)
    assert i**2 == GaussianRational(-1)
    assert i**3 == GaussianRational(0, -1)
    assert (GaussianRational(2) ** 5).re == 32


def test_int_interop():
    assert GaussianRational(2) + 3 == GaussianRational(5)
    assert 3 - GaussianRational(1, 1) == GaussianRational(2, -1)
    assert 2 * GaussianRational(0, 1) == GaussianRational(0, 2)


def test_complex_conversion():
    assert complex(GaussianRational(Fraction(1, 2), Fraction(-1, 4))) == 0.5 - 0.25j


@pytest.mark.parametrize(
    "value,text",
    [
        (GaussianRational(0), "0"),
        (GaussianRational(Fraction(-2, 3)), "-2/3"),
        (GaussianRational(0, 1), "i"),
        (GaussianRational(0, -1), "-i"),
        (GaussianRational(0, Fraction(2, 3)), "2/3*i"),
        (GaussianRational(1, -2), "1 - 2*i"),
    ],
)
def test_formatting(value, text):
    assert str(value) == text


def test_hash_agrees_with_equality():
    for value in (0, 1, -3, Fraction(1, 2), Fraction(-7, 3)):
        assert len({GaussianRational(value), value, Fraction(value)}) == 1
        # a constant exact polynomial equals its coefficient and hashes like it
        assert len({ExactPolynomial.constant(value), GaussianRational(value), value}) == 1
    assert len({ExactPolynomial.zero(), ExactPolynomial.constant(0, "p"), 0}) == 1
    # polynomials of degree >= 1 in different indeterminates are unequal,
    # exact and perturbed alike; a constant compares like its coefficient
    assert ExactPolynomial([1, 2]) != ExactPolynomial([1, 2], "p")
    assert len({ExactPolynomial([1, 2]), ExactPolynomial([1, 2], "p")}) == 2
    ring = univariate_ring(4)
    assert PerturbedPolynomial(ring, [1, 2]) != PerturbedPolynomial(ring, [1, 2], "p")
    assert PerturbedPolynomial(ring, [3]) == PerturbedPolynomial(ring, [3], "p")
    assert PerturbedPolynomial(ring, [3], "p") == ExactPolynomial.constant(3)
    assert PerturbedPolynomial(univariate_ring(6), [3]) == PerturbedPolynomial(ring, [3])
    with pytest.raises(TypeError):  # perturbed polynomials stay unhashable
        hash(PerturbedPolynomial(univariate_ring(4), [1]))
    assert len({GaussianRational(1, 2), GaussianRational(Fraction(2, 2), 2)}) == 1


# -- the integer form (a + b*i)/d, against Fraction pairs ------------------------------

parts = st.one_of(
    st.integers(-60, 60),
    st.fractions(min_value=-60, max_value=60, max_denominator=40),
    # large parts exercise the float rounding of complex()
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**25)),
)
gaussians = st.builds(GaussianRational, parts, parts)
operands = st.one_of(gaussians, parts)


def assert_canonical(z):
    assert type(z.a) is int and type(z.b) is int and type(z.d) is int
    assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1
    if not z:
        assert (z.a, z.b, z.d) == (0, 0, 1)


def pair(z):
    """(re, im) as Fractions; ints and Fractions are real."""
    if isinstance(z, GaussianRational):
        return z.re, z.im
    return Fraction(z), Fraction(0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gaussians, operands, operands)
def test_arithmetic_matches_fraction_pairs(x, y, z):
    (xr, xi), (yr, yi) = pair(x), pair(y)
    expected = {
        "add": (xr + yr, xi + yi),
        "sub": (xr - yr, xi - yi),
        "mul": (xr * yr - xi * yi, xr * yi + xi * yr),
        "neg": (-xr, -xi),
        "conjugate": (xr, -xi),
    }
    results = {
        "add": (x + y, y + x),
        "sub": (x - y, -(y - x)),
        "mul": (x * y, y * x),
        "neg": (-x,),
        "conjugate": (x.conjugate(),),
    }
    for name, values in results.items():
        for value in values:
            assert_canonical(value)
            assert (value.re, value.im) == expected[name], name
    # ring laws
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x and x - x == 0 and x * 0 == 0
    assert x * x.conjugate() == GaussianRational(x.norm2())
    assert x.norm2() == xr * xr + xi * xi
    if y:
        quotient = x / y
        assert_canonical(quotient)
        assert quotient * y == x
        assert_canonical(1 / GaussianRational.coerce(y))
        assert (1 / GaussianRational.coerce(y)) * y == 1
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@settings(max_examples=150, deadline=None, derandomize=True)
@given(parts, parts)
def test_form_round_trips_and_hashes(re, im):
    z = GaussianRational(re, im)
    assert_canonical(z)
    assert (z.re, z.im) == (re, im)
    again = GaussianRational(z.re, z.im)
    assert (again.a, again.b, again.d) == (z.a, z.b, z.d) and again == z
    assert GaussianRational.coerce(z) is z
    # complex() rounds each part once, as float(Fraction) does
    value = complex(z)
    expected = complex(float(Fraction(re)), float(Fraction(im)))
    assert (value.real.hex(), value.imag.hex()) == (expected.real.hex(), expected.imag.hex())
    # a real value is equal to, and hashes like, the equal Fraction (and int)
    real = GaussianRational(re)
    assert real == Fraction(re) and Fraction(re) == real
    assert hash(real) == hash(Fraction(re))
    if Fraction(re).denominator == 1:
        assert real == int(re) and hash(real) == hash(int(re))
    assert len({real, Fraction(re), GaussianRational(Fraction(re), 0)}) == 1
    assert (z == re) == (Fraction(im) == 0)
    assert hash(z) == hash(GaussianRational(Fraction(re), Fraction(im)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(gaussians, st.integers(1, 10**6), st.integers(0, 8))
def test_series_row_round_trip(z, scale, degree):
    den = z.d * scale  # any denominator that z.d divides
    row = _row(degree, z, den)
    assert row[0] == degree
    assert Fraction(row[1], den) == z.re and Fraction(row[2], den) == z.im
    back = _reduced(row[1], row[2], den)
    assert_canonical(back)
    assert (back.a, back.b, back.d) == (z.a, z.b, z.d)
    constant = univariate_ring(4).constant(z)
    assert (constant.den, constant.rows) == ((z.d, {0: (0, z.a, z.b)}) if z else (1, {}))
    assert constant.standard_part() == z


def test_gaussian_rationals_pickle_and_copy():
    for z in (0, -7, GaussianRational(Fraction(1, 3), Fraction(-5, 6)), GaussianRational(0, 1)):
        assert_round_trips(GaussianRational.coerce(z))


def _immutable_values():
    """One value of each immutable class, keyed by class name, with an attribute it has."""
    ring = univariate_ring(4)
    t = ring.generator("t")
    base = ConstantMatrix([[1, 2], [3, 4]])
    return {
        "GaussianRational": (GaussianRational(3), "a"),
        "TruncatedSeries": (1 + t, "rows"),
        "ExactPolynomial": (ExactPolynomial([1, 2]), "coeffs"),
        "ExactRationalFunction": (
            ExactRationalFunction(ExactPolynomial([1]), ExactPolynomial([1, 1])),
            "num",
        ),
        "ConstantMatrix": (base, "rows"),
        "PerturbedMatrix": (PerturbedMatrix(base, [[t, t], [t, t]]), "pert"),
    }


@pytest.mark.parametrize("kind", sorted(_immutable_values()))
def test_immutable_values_refuse_to_set_or_delete_an_attribute(kind):
    value, attribute = _immutable_values()[kind]
    before, text = getattr(value, attribute), str(value)
    with pytest.raises(AttributeError, match=f"^{kind} is immutable$"):
        setattr(value, attribute, None)
    with pytest.raises(AttributeError, match=f"^{kind} is immutable$"):
        delattr(value, attribute)
    assert getattr(value, attribute) is before and str(value) == text
