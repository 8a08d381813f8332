"""Simplification of transfer functions with uncertain coefficients.

A rational function num/den whose polynomial coefficients carry infinitesimal
uncertainty is reduced by the perturbed GCD; what remains is an exact reduced
rational function plus an infinitesimal correction, whose first-order part is
reported per uncertainty symbol as an exact rational function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError
from .exactpoly import ExactPolynomial, ExactRationalFunction
from .ppoly import PerturbedPolynomial, euclid_divide, pgcd


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
    if function.num.is_zero():
        raise DomainError("zero numerator; nothing to simplify")
    # den is not wholly infinitesimal, so pgcd takes a step and returns a stripped divisor
    divisor, trace = pgcd(function.num, function.den)
    num_quotient, num_residual = euclid_divide(function.num, divisor)
    den_quotient, den_residual = euclid_divide(function.den, divisor)
    reduced = ExactRationalFunction(num_quotient.shadow(), den_quotient.shadow())
    report = SimplificationReport(
        reduced_shadow=reduced,
        pgcd=divisor,
        num_quotient=num_quotient,
        den_quotient=den_quotient,
        num_residual=num_residual,
        den_residual=den_residual,
        trace=trace,
    )
    report.first_order = _first_order_map(function, report)
    return report


def _degree_one_slice(poly: PerturbedPolynomial, generator: str) -> ExactPolynomial:
    """Exact polynomial of the coefficients of one generator at total degree 1."""
    position = poly.ring.generators.index(generator)
    unit = tuple(
        1 if i == position else 0 for i in range(len(poly.ring.generators))
    )
    return ExactPolynomial(
        [c.terms.get(unit, 0) for c in poly.coeffs], poly.var
    )


def _first_order_map(function: RationalFunction, report: SimplificationReport) -> dict:
    """Coefficient of each uncertainty symbol in num/den - reduced_shadow.

    With Y1/X1 the quotient shadows, num/den - Y1/X1 = N/(den*X1) where
    N = num*X1 - Y1*den is wholly infinitesimal; slicing N at total degree 1
    and dividing by the exact denominator shadow(den)*X1 gives the per-symbol
    corrections, exact to first order.
    """
    ring = function.num.ring
    num_shadow_quotient = report.num_quotient.shadow()
    den_shadow_quotient = report.den_quotient.shadow()
    difference = (
        function.num * PerturbedPolynomial.from_exact(den_shadow_quotient, ring)
        - PerturbedPolynomial.from_exact(num_shadow_quotient, ring) * function.den
    )
    denominator = function.den.shadow() * den_shadow_quotient
    out = {}
    for generator in ring.generators:
        numerator = _degree_one_slice(difference, generator)
        if numerator.is_zero():
            continue
        out[generator] = ExactRationalFunction(numerator, denominator)
    return out


def first_order_correction(function: RationalFunction) -> dict:
    """Per-symbol first-order correction map (see simplify)."""
    return simplify(function).first_order
