"""Dense polynomials, and polynomials and rational functions over Q(i).

`Polynomial` holds the arithmetic, Euclidean division and printing that
exact and perturbed polynomials share.  `ExactPolynomial` and
`ExactRationalFunction` carry the shadow (standard-part) side of every
computation: shadows of perturbed polynomials, reduced transfer functions,
and the base polynomials whose roots get corrected.
"""

from __future__ import annotations

from .errors import DomainError, RingMismatchError
from .scalars import GaussianRational, _power
from .series import _monomial_text, format_terms


class Polynomial:
    """Dense polynomial in one indeterminate, low degree first; immutable.

    The arithmetic, Horner evaluation, Euclidean division and printing
    shared by both coefficient domains: Gaussian rationals (ExactPolynomial)
    and truncated series (ppoly.PerturbedPolynomial).  A subclass supplies
    `_lift` (one coefficient into its domain), `_coerce` (an operand into a
    polynomial of its own kind, TypeError for an operand it does not take),
    `_invert` (the inverse of a divisor's leading coefficient) and `_like` (a
    polynomial of its own kind, ring and indeterminate with the given
    coefficients).
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs, var: str = "X"):
        cleaned = [self._lift(c) for c in coeffs]
        while cleaned and not cleaned[-1]:
            cleaned.pop()
        object.__setattr__(self, "coeffs", tuple(cleaned))
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def degree(self) -> int:
        """Degree, with the usual -1 convention for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def leading(self):
        if not self.coeffs:
            return self._lift(0)
        return self.coeffs[-1]

    def coefficient(self, degree: int):
        if 0 <= degree < len(self.coeffs):
            return self.coeffs[degree]
        return self._lift(0)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            if self.degree < 1 and other.degree < 1:
                # a constant equals its coefficient, whatever its indeterminate
                return self.coefficient(0) == other.coefficient(0)
            if other.var != self.var:
                return False
        try:
            other = self._coerce(other)
        except (TypeError, RingMismatchError):
            return NotImplemented
        return self.coeffs == other.coeffs

    def _same_var(self, other: "Polynomial") -> "Polynomial":
        """`other`, once it is in this polynomial's indeterminate."""
        if other.var != self.var:
            raise DomainError(f"indeterminates differ: {other.var!r} vs {self.var!r}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        size = max(len(self.coeffs), len(other.coeffs))
        return self._like(
            [self.coefficient(k) + other.coefficient(k) for k in range(size)]
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return self._like([-c for c in self.coeffs])

    def __mul__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return self._like(())
        out = [self._lift(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return self._like(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Euclidean division self = other*q + r with deg r < deg other.

        The divisor's leading coefficient must be invertible in the
        coefficient domain; `_invert` raises when it is not.
        """
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead_inv = self._invert(other.leading)
        if self.degree < other.degree:
            return self._like(()), self
        quotient = [None] * (self.degree - other.degree + 1)
        rest = list(self.coeffs)
        for k in range(self.degree - other.degree, -1, -1):
            factor = rest[k + other.degree] * lead_inv
            quotient[k] = factor
            if factor:
                # rest[k + other.degree] - factor * leading is 0 and never read again
                for j in range(other.degree):
                    rest[k + j] = rest[k + j] - factor * other.coeffs[j]
        return self._like(quotient), self._like(rest[: other.degree])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative polynomial power")
        return _power(self._like((1,)), self, exponent)

    def derivative(self, order: int = 1):
        poly = self
        for _ in range(order):
            poly = poly._like([poly.coeffs[k] * k for k in range(1, len(poly.coeffs))])
        return poly

    def evaluate(self, point):
        """P(point), by Horner: pass 0 of `taylor_coefficients` (scalars are lifted)."""
        return next(self.taylor_coefficients(point), self._lift(0))

    def taylor_coefficients(self, point):
        """P^(j)(point)/j! for j = 0, 1, ..., deg P: the coefficients of P(X + point).

        Pass j of the repeated synthetic division by X - point leaves the
        remainder P^(j)(point)/j! in place j and the next quotient above it; a
        caller that stops early skips the remaining passes.
        """
        point = self._lift(point)
        shifted = list(self.coeffs)
        for j in range(len(shifted)):
            for k in range(len(shifted) - 2, j - 1, -1):
                shifted[k] = shifted[k] + shifted[k + 1] * point
            yield shifted[j]

    def __str__(self):
        return format_terms(
            (self.coeffs[degree], _monomial_text((self.var,), (degree,)))
            for degree in range(self.degree, -1, -1)
            if self.coeffs[degree]
        )


class ExactPolynomial(Polynomial):
    """Dense polynomial with GaussianRational coefficients, low degree first."""

    __slots__ = ()

    def _lift(self, value) -> GaussianRational:
        return GaussianRational.coerce(value)

    def _like(self, coeffs) -> "ExactPolynomial":
        return ExactPolynomial(coeffs, self.var)

    def _coerce(self, other) -> "ExactPolynomial":
        if isinstance(other, ExactPolynomial):
            return self._same_var(other)
        return self._like((other,))

    @staticmethod
    def _invert(lead: GaussianRational) -> GaussianRational:
        return GaussianRational(1) / lead

    @staticmethod
    def zero(var: str = "X") -> "ExactPolynomial":
        return ExactPolynomial((), var)

    @staticmethod
    def constant(value, var: str = "X") -> "ExactPolynomial":
        return ExactPolynomial((value,), var)

    def __reduce__(self):
        return ExactPolynomial, (self.coeffs, self.var)

    def __hash__(self):
        # a constant polynomial equals its coefficient, so it must hash like it
        if self.degree < 1:
            return hash(self.leading)
        return hash(self.coeffs)

    def monic(self) -> "ExactPolynomial":
        if self.is_zero():
            return self
        return self * self._invert(self.leading)

    def multiplicity(self, root) -> int:
        """Exact multiplicity of `root` (0 when it is not a root, or P is zero)."""
        return next((j for j, c in enumerate(self.taylor_coefficients(root)) if c), 0)

    def numeric_coeffs(self) -> list[complex]:
        return [complex(c) for c in self.coeffs]

    def __repr__(self):
        return f"<exact poly {self}>"


def poly_gcd(a: ExactPolynomial, b: ExactPolynomial) -> ExactPolynomial:
    """Monic greatest common divisor by the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def from_roots(roots) -> ExactPolynomial:
    poly = ExactPolynomial.constant(1)
    for r in roots:
        poly = poly * ExactPolynomial([-GaussianRational.coerce(r), 1])
    return poly


class ExactRationalFunction:
    """Quotient of exact polynomials, kept coprime with a monic denominator.

    A normalized value with equality and printing, and no arithmetic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: ExactPolynomial, den: ExactPolynomial):
        if den.is_zero():
            raise DomainError("rational function with zero denominator")
        if num.is_zero():
            num = ExactPolynomial.zero(num.var)
            den = ExactPolynomial.constant(1, den.var)
        else:
            common = poly_gcd(num, den)
            if common.degree > 0:
                num = num // common
                den = den // common
            lead_inv = GaussianRational(1) / den.leading
            num = num * lead_inv
            den = den * lead_inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("ExactRationalFunction is immutable")

    def __reduce__(self):
        return ExactRationalFunction, (self.num, self.den)

    def __eq__(self, other):
        if not isinstance(other, ExactRationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den.degree == 0 and self.den.leading == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"<rational function {self}>"
