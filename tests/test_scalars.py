from fractions import Fraction

import pytest

from perturbalg import GaussianRational


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
    assert len({GaussianRational(1, 2), GaussianRational(Fraction(2, 2), 2)}) == 1
