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
from .ppoly import PerturbedPolynomial, euclid_divide, pgcd
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
    """Everything the reduction produced.

    reduced_shadow   exact reduced rational function Y1/X1 (coprime, monic den)
    pgcd             the perturbed GCD used as divisor
    num_quotient     quotient of num by the (unit-normalized) pgcd
    den_quotient     quotient of den by the (unit-normalized) pgcd
    num_residual     infinitesimal remainder of the num division
    den_residual     infinitesimal remainder of the den division
    first_order      symbol -> exact rational coefficient of that symbol in
                     the correction num/den - reduced_shadow (zeros omitted)
    trace            Euclidean remainder chain from the PGCD computation
    """

    reduced_shadow: ExactRationalFunction
    pgcd: PerturbedPolynomial
    num_quotient: PerturbedPolynomial
    den_quotient: PerturbedPolynomial
    num_residual: PerturbedPolynomial
    den_residual: PerturbedPolynomial
    first_order: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)


def simplify(function: RationalFunction) -> SimplificationReport:
    """Reduce num/den by their perturbed GCD and extract the correction.

    Exact coprime inputs come back unchanged (constant PGCD, zero residuals,
    empty first-order map).
    """
    first_order = first_order_correction(function)
    # den is not wholly infinitesimal, so pgcd takes a step and returns a stripped divisor
    divisor, trace = pgcd(function.num, function.den)
    num_quotient, num_residual = euclid_divide(function.num, divisor)
    den_quotient, den_residual = euclid_divide(function.den, divisor)
    reduced = ExactRationalFunction(num_quotient.shadow(), den_quotient.shadow())
    return SimplificationReport(
        reduced_shadow=reduced,
        pgcd=divisor,
        num_quotient=num_quotient,
        den_quotient=den_quotient,
        num_residual=num_residual,
        den_residual=den_residual,
        first_order=first_order,
        trace=trace,
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
