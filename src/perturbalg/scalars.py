"""Exact complex scalars with rational real and imaginary parts."""

from __future__ import annotations

from fractions import Fraction


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot build an exact rational from {value!r}")


def _power(one, base, exponent: int):
    """base**exponent by square-and-multiply, `one` at exponent 0; callers validate it.

    Scalar, series and polynomial powers share it, so all multiply in one order.
    It squares only up to the top bit and never multiplies by `one`, so ** 1
    costs no product, ** 2 one and ** 8 three.
    """
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return one if result is None else result


class GaussianRational:
    """Number re + im*i where both parts are arbitrary-precision rationals.

    Instances are immutable.  Fraction keeps each part fully reduced with a
    positive denominator, so equality and hashing are structural; a real
    value hashes like the equal int or Fraction.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def _of(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        """Value from two Fractions, without the checks of __init__."""
        self = object.__new__(cls)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        return self

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {value!r} to a Gaussian rational")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational._of(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational._of(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational._of(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        n = other.norm2()
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        return self * GaussianRational._of(other.re / n, -other.im / n)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __neg__(self):
        return GaussianRational._of(-self.re, -self.im)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _power(GaussianRational(1), self, exponent)

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._of(self.re, -self.im)

    def norm2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # equal to int and Fraction values when real, so it must hash like them
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    # -- formatting (matches the expression grammar) -------------------------

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        im = self.im
        sign = "-" if im < 0 else "+"
        im_text = "i" if abs(im) == 1 else f"{abs(im)}*i"
        return f"{self.re} {sign} {im_text}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

