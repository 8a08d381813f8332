"""Exact complex scalars: a Gaussian integer over one positive denominator.

A GaussianRational stores three ints (a, b, d) for the value (a + b*i)/d,
with d > 0 and gcd(a, b, d) = 1; zero is (0, 0, 1).  That form is canonical,
so two values are equal exactly when their triples are.  A product is one
Gaussian-integer product and one gcd, and an int operand is (n, 0, 1) without
a Fraction.  It is the form a series row uses (see series.py).  The parts
`re` and `im`, and `norm2()`, are Fractions for the few readers that want
them: formatting (`_scalar_pieces`, which str() and series.py's term
formatter share), hashing of a real value with a denominator, and tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def _power(one, base, exponent: int, times=mul):
    """base**exponent by square-and-multiply, `one` at exponent 0; callers validate it.

    Scalar, series and polynomial powers share it, and so do the parser's
    values and rows, whose products `times` makes: all multiply in one order.
    It squares only up to the top bit and never multiplies by `one`, so ** 1
    costs no product, ** 2 one and ** 8 three.
    """
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else times(result, base)
        exponent >>= 1
        if exponent:
            base = times(base, base)
    return one if result is None else result


class _Immutable:
    """Base of every immutable value: only its constructor sets its slots, and none is deleted."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class GaussianRational(_Immutable):
    """Number (a + b*i)/d with integers a, b and d > 0, gcd(a, b, d) = 1.

    Instances are immutable.  The form is canonical, so equality and hashing
    are structural; a real value hashes like the equal int or Fraction.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            for part in (re, im):
                if not isinstance(part, (int, Fraction)):
                    raise TypeError(f"cannot build an exact rational from {part!r}")
            # both parts are reduced, so over the lcm of their denominators
            # the triple shares no factor
            d = lcm(re.denominator, im.denominator)
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __reduce__(self):
        return _of, (self.a, self.b, self.d)

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if type(value) is GaussianRational:
            return value
        if type(value) is int:
            return _of(value, 0, 1)
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {value!r} to a Gaussian rational")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return _sum(self, other.a, other.b, other.d)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return _sum(self, -other.a, -other.b, other.d)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        a, b, d = other.a, other.b, other.d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        # 1/((a + b*i)/d) = d*(a - b*i)/(a^2 + b^2)
        return self * _reduced(d * a, -d * b, n)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __neg__(self):
        return _of(-self.a, -self.b, self.d)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _power(_of(1, 0, 1), self, exponent)

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return _of(self.a, -self.b, self.d)

    def norm2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    @property
    def is_real(self) -> bool:
        return self.b == 0

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        # equal to int and Fraction values when real, so it must hash like them
        if self.b == 0:
            return hash(self.a) if self.d == 1 else hash(self.re)
        return hash((self.a, self.b, self.d))

    def __complex__(self):
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self.a / self.d, self.b / self.d)

    # -- formatting (matches the expression grammar) -------------------------

    def __str__(self):
        if self.a and self.b:
            # re, then the signed pieces of the imaginary part
            sign, text = _scalar_pieces(_reduced(0, self.b, self.d), with_monomial=False)
            return f"{self.re} {sign} {text}"
        sign, text = _scalar_pieces(self, with_monomial=False)
        return text if sign == "+" else f"-{text}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_set_a = GaussianRational.a.__set__
_set_b = GaussianRational.b.__set__
_set_d = GaussianRational.d.__set__
_new = object.__new__


def _of(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d of a canonical triple, without the checks of __init__."""
    value = _new(GaussianRational)
    _set_a(value, a)
    _set_b(value, b)
    _set_d(value, d)
    return value


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d for any d > 0: the triple divided by its gcd."""
    if d == 1:
        return _of(a, b, 1)
    g = gcd(a, b, d)
    if g == 1:
        return _of(a, b, d)
    return _of(a // g, b // g, d // g)


def _scalar_pieces(coeff: GaussianRational, with_monomial: bool):
    """Return (sign, factor_text) for one term; factor_text may be empty."""
    if coeff.a and coeff.b:
        return "+", f"({coeff})"
    # at most one part is nonzero, so a + b carries its sign
    sign = "-" if coeff.a + coeff.b < 0 else "+"
    magnitude = abs(coeff.im if coeff.b else coeff.re)
    if coeff.b == 0:
        return sign, "" if with_monomial and magnitude == 1 else str(magnitude)
    return sign, "i" if magnitude == 1 else f"{magnitude}*i"


def _sum(x: GaussianRational, a: int, b: int, d: int) -> GaussianRational:
    """x + (a + b*i)/d for a canonical triple, over lcm(x.d, d).

    As for Fraction (Knuth, TAOCP 4.5.1): with g = gcd(x.d, d), the sum's
    numerators share with lcm(x.d, d) only factors of g.
    """
    g = gcd(x.d, d)
    if g == 1:
        return _of(x.a * d + a * x.d, x.b * d + b * x.d, x.d * d)
    s, t = d // g, x.d // g
    a = x.a * s + a * t
    b = x.b * s + b * t
    g = gcd(a, b, g)
    if g == 1:
        return _of(a, b, x.d * s)
    return _of(a // g, b // g, x.d // g * s)
