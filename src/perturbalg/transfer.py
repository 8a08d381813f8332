"""Simplification of transfer functions with uncertain coefficients.

A rational function num/den whose polynomial coefficients carry infinitesimal
uncertainty is reduced by the perturbed GCD; what remains is an exact reduced
rational function plus an infinitesimal correction.  The correction's
first-order part is the derivative of num/den at the shadow, reported per
uncertainty symbol as an exact rational function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError
from .exactpoly import ExactPolynomial, ExactRationalFunction
from .ppoly import PerturbedPolynomial, pgcd
from .series import _leading_ratios


@dataclass
class RationalFunction:
    """Perturbed rational function num/den in one indeterminate (default p)."""

    num: PerturbedPolynomial
    den: PerturbedPolynomial

    def __post_init__(self):
        if self.num.ring != self.den.ring:
            raise DomainError("numerator and denominator from different rings")
        if self.num.var != self.den.var:
            raise DomainError("numerator and denominator in different variables")
        if self.den.is_zero() or self.den.is_infinitesimal():
            raise DomainError("denominator must not be wholly infinitesimal")


@dataclass
class SimplificationReport:
    """What the reduction produced.

    reduced_shadow   exact reduced rational function Y1/X1 (coprime, monic den)
    pgcd             the perturbed GCD of num and den, with a unit leading
                     coefficient
    first_order      symbol -> exact rational coefficient of that symbol in
                     the correction num/den - reduced_shadow (zeros omitted)

    Dividing num and den by pgcd leaves infinitesimal residuals, which a
    reader that wants them takes as `num % pgcd` and `den % pgcd`.
    """

    reduced_shadow: ExactRationalFunction
    pgcd: PerturbedPolynomial
    first_order: dict = field(default_factory=dict)


def simplify(function: RationalFunction) -> SimplificationReport:
    """Reduce num/den by their perturbed GCD and extract the correction.

    The reduced shadow is read off the shadows: num = pgcd*q_n + r_n and
    den = pgcd*q_d + r_d with infinitesimal r_n, r_d, so num0/den0 equals
    q_n0/q_d0, and ExactRationalFunction reduces it by the exact GCD.  Exact
    coprime inputs come back unchanged (constant PGCD, empty first-order map).
    """
    first_order = first_order_correction(function)
    divisor, _ = pgcd(function.num, function.den)
    return SimplificationReport(
        reduced_shadow=ExactRationalFunction(function.num.shadow(), function.den.shadow()),
        pgcd=divisor,
        first_order=first_order,
    )


def first_order_correction(function: RationalFunction) -> dict:
    """Coefficient of each uncertainty symbol in num/den - reduced_shadow.

    The reduced shadow equals num0/den0, the quotient of the shadows, so the
    coefficient of e_g is the derivative of num/den at the shadow:
    (num_g*den0 - num0*den_g)/den0^2, num_g and den_g being the coefficients
    of e_g.  It needs no PGCD.  Symbols with a zero derivative are omitted.
    """
    if function.num.is_zero():
        raise DomainError("zero numerator; nothing to simplify")
    num0, den0 = function.num.shadow(), function.den.shadow()
    den0_squared = den0 * den0
    out = {}
    ring, var = function.num.ring, function.num.var
    for generator in ring.generators:
        unit = ring.generator(generator)
        numerator = (
            ExactPolynomial(_leading_ratios(unit, function.num.coeffs), var) * den0
            - num0 * ExactPolynomial(_leading_ratios(unit, function.den.coeffs), var)
        )
        if not numerator.is_zero():
            out[generator] = ExactRationalFunction(numerator, den0_squared)
    return out
