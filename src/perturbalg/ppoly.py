"""Polynomials with truncated-series coefficients.

Implements the perturbation side of polynomial algebra on top of the dense
arithmetic of `exactpoly.Polynomial`: Euclidean division by a unit leading
coefficient, the perturbed GCD (last remainder that is not wholly
infinitesimal), and the leading-order root corrections

    xi^k ~ -k! * Xi(u) / P^(k)(u)

for a root u of multiplicity k of the exact base polynomial P perturbed by an
infinitesimal polynomial Xi, together with the dominant-balance case analysis
at a double root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    DegenerateError,
    DomainError,
    NonUnitError,
    RingMismatchError,
    UnsupportedOrderError,
)
from .exactpoly import ExactPolynomial, Polynomial
from .goze import GozeDecomposition
from .scalars import GaussianRational
from .series import SeriesRing, TruncatedSeries, divide_univariate


class PerturbedPolynomial(Polynomial):
    """Dense polynomial over a series ring, low degree first."""

    __slots__ = ("ring",)

    def __init__(self, ring: SeriesRing, coeffs, var: str = "X"):
        object.__setattr__(self, "ring", ring)
        super().__init__(coeffs, var)

    def _lift(self, value) -> TruncatedSeries:
        if isinstance(value, TruncatedSeries):
            if value.ring != self.ring:
                raise RingMismatchError("coefficient from a different ring")
            return value
        return self.ring.constant(value)

    def _like(self, coeffs) -> "PerturbedPolynomial":
        return PerturbedPolynomial(self.ring, coeffs, self.var)

    def _coerce(self, other) -> "PerturbedPolynomial":
        if isinstance(other, PerturbedPolynomial):
            if other.ring != self.ring:
                raise RingMismatchError("polynomials from different rings")
            return self._same_var(other)
        if isinstance(other, (TruncatedSeries, GaussianRational, Fraction, int)):
            return self._like((other,))
        raise TypeError(f"cannot coerce {other!r} to a perturbed polynomial")

    @staticmethod
    def _invert(lead: TruncatedSeries) -> TruncatedSeries:
        if not lead.is_unit():
            raise NonUnitError("divisor has a non-unit leading coefficient")
        return lead.invert()

    @staticmethod
    def from_exact(poly: ExactPolynomial, ring: SeriesRing, var: Optional[str] = None):
        return PerturbedPolynomial(ring, list(poly.coeffs), var or poly.var)

    @staticmethod
    def zero(ring: SeriesRing, var: str = "X") -> "PerturbedPolynomial":
        return PerturbedPolynomial(ring, (), var)

    def evaluate(self, point) -> TruncatedSeries:
        """Horner evaluation at a series (scalars are lifted to constants)."""
        if not isinstance(point, TruncatedSeries):
            point = self.ring.constant(point)
        elif point.ring != self.ring:
            raise RingMismatchError("evaluation point from a different ring")
        acc = self.ring.zero()
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def shadow(self) -> ExactPolynomial:
        """Coefficient-wise standard part; the degree may drop."""
        return ExactPolynomial([c.standard_part() for c in self.coeffs], self.var)

    def is_infinitesimal(self) -> bool:
        """True when every coefficient has valuation >= 1 (0 included)."""
        return all(c.is_infinitesimal() for c in self.coeffs)

    def numeric_coeffs(self, values) -> list[complex]:
        return [c.numeric_sample(values) for c in self.coeffs]

    def evaluate_numeric(self, point: complex, values) -> complex:
        """Horner evaluation with generators sampled at complex values."""
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * complex(point) + c.numeric_sample(values)
        return acc

    def strip_infinitesimal_leading(self):
        """Drop leading coefficients of valuation >= 1.

        Returns (polynomial, stripped_degrees).  Used before a Euclidean
        division step so the divisor keeps a unit leading coefficient; a
        wholly infinitesimal polynomial strips to zero.
        """
        coeffs = list(self.coeffs)
        stripped = []
        while coeffs and coeffs[-1].is_infinitesimal():
            stripped.append(len(coeffs) - 1)
            coeffs.pop()
        return self._like(coeffs), tuple(stripped)

    def __repr__(self):
        return f"<perturbed poly {self}>"


def euclid_divide(a: PerturbedPolynomial, b: PerturbedPolynomial):
    """Euclidean division a = b*q + r with deg r < deg b, exact in the ring.

    The leading coefficient of b must be a unit; otherwise the division is
    singular and NonUnitError is raised (the PGCD machinery strips such
    leading terms instead of dividing by them).
    """
    return divmod(a, b)


@dataclass(frozen=True)
class RemainderStep:
    """One Euclidean step in the PGCD chain."""

    remainder: PerturbedPolynomial
    divisor_stripped_degrees: tuple = ()
    wholly_infinitesimal: bool = False
    exact_zero: bool = False


def pgcd(a: PerturbedPolynomial, b: PerturbedPolynomial):
    """Perturbed GCD: last Euclidean remainder not wholly infinitesimal.

    Returns (pgcd, trace).  A remainder that is exactly zero ends the chain
    and the preceding remainder is returned, matching the classical GCD on
    exact inputs.  Divisors whose leading coefficients are infinitesimal but
    which are not wholly infinitesimal have those terms stripped (recorded in
    the trace) so every division is by a unit leading coefficient.
    """
    if a.is_zero() or b.is_zero():
        raise DomainError("PGCD requires two nonzero polynomials")
    b = a._coerce(b)
    trace: list[RemainderStep] = []
    previous, current = a, b
    if previous.is_infinitesimal() and current.is_infinitesimal():
        raise DomainError("both inputs are wholly infinitesimal; no PGCD exists")
    while True:
        if current.is_zero():
            return previous, trace
        if current.is_infinitesimal():
            return previous, trace
        divisor, stripped = current.strip_infinitesimal_leading()
        if divisor.is_zero():  # unreachable: current not wholly infinitesimal
            return previous, trace
        _, remainder = euclid_divide(previous, divisor)
        trace.append(
            RemainderStep(
                remainder=remainder,
                divisor_stripped_degrees=stripped,
                wholly_infinitesimal=remainder.is_infinitesimal()
                and not remainder.is_zero(),
                exact_zero=remainder.is_zero(),
            )
        )
        previous, current = divisor, remainder


def monic_shadow(poly: PerturbedPolynomial) -> ExactPolynomial:
    """Shadow of the polynomial, normalized monic (for GCD comparisons)."""
    return poly.shadow().monic()


@dataclass(frozen=True)
class RootAsymptotics:
    """The statement xi^k ~ rhs for a perturbed root u + xi.

    `leading_level` is the 0-based index of the first decomposition level
    whose direction polynomial does not vanish at u, when a decomposition was
    supplied to root_correction.
    """

    base_root: GaussianRational
    order: int
    rhs: TruncatedSeries
    leading_level: Optional[int] = None

    def __post_init__(self):
        if self.order < 1:
            raise DomainError("branch count must be at least 1")
        if not self.rhs.is_infinitesimal():
            raise DomainError("the asserted xi^k value must be infinitesimal")

    def __str__(self):
        power = "" if self.order == 1 else f"^{self.order}"
        return f"xi{power} ~ {self.rhs} (at root {self.base_root})"


@dataclass(frozen=True)
class BalanceQuadratic:
    """Balanced double-root case: quad_coeff*xi^2 + linear*xi + constant ~ 0.

    Returned when the two branch magnitudes coincide and the correction is a
    root of a genuine quadratic whose roots need not live in the coefficient
    ring.
    """

    base_root: GaussianRational
    quad_coeff: GaussianRational
    linear: TruncatedSeries
    constant: TruncatedSeries

    def __str__(self):
        return (
            f"{self.quad_coeff}*xi^2 + ({self.linear})*xi + ({self.constant}) ~ 0 "
            f"(at root {self.base_root})"
        )


def _sensitivity(base: ExactPolynomial, root):
    """(u, r, -r!/P^(r)(u)) for an exact root u of multiplicity r of P."""
    root = GaussianRational.coerce(root)
    mult = base.multiplicity(root)
    if mult == 0:
        raise DomainError(f"{root} is not a root of {base}")
    denominator = base.derivative(mult).evaluate(root)
    if not denominator:  # cannot happen once mult is exact; guard anyway
        raise DomainError("multiplicity misdeclared: P^(k)(u) = 0")
    return root, mult, GaussianRational(-math.factorial(mult)) / denominator


def apply_root_sensitivity(
    base: ExactPolynomial, root, shift_poly: PerturbedPolynomial
) -> TruncatedSeries:
    """Sensitivity map L(H) = -r! * H(u) / P^(r)(u) at a root u of multiplicity r.

    For any perturbed root xi of P + H with shadow u, xi^r differs from L(H)
    by an infinitesimal multiple of the perturbation size.
    """
    root, _, scale = _sensitivity(base, root)
    return shift_poly.evaluate(root) * scale


def root_correction(
    base: ExactPolynomial,
    shift_poly: PerturbedPolynomial,
    root,
    order: Optional[int] = None,
    decomposition: Optional[GozeDecomposition] = None,
) -> RootAsymptotics:
    """Leading asymptotics of a root of multiplicity k under perturbation.

    Computes xi^k ~ -k! * Xi(u) / P^(k)(u), keeping the leading-valuation
    part.  With a decomposition of Xi's coefficient vector the right-hand
    side is expressed through the first level whose direction polynomial does
    not vanish at u.
    """
    if not shift_poly.is_infinitesimal():
        raise DomainError("the perturbation polynomial must be wholly infinitesimal")
    root, mult, scale = _sensitivity(base, root)
    if order is not None and order != mult:
        raise DomainError(
            f"declared multiplicity {order} but {root} has multiplicity {mult}"
        )
    order = mult

    level_index = None
    if decomposition is not None:
        rhs = None
        prefix = decomposition.ring.one()
        for index, (alpha, direction) in enumerate(decomposition.levels):
            prefix = prefix * alpha
            value = ExactPolynomial(direction, shift_poly.var).evaluate(root)
            if value:
                rhs = prefix * (value * scale)
                level_index = index
                break
        if rhs is None:
            raise DegenerateError(
                "every direction polynomial vanishes at the root; "
                "use dominant_balance"
            )
    else:
        shifted = shift_poly.evaluate(root)
        if shifted.is_zero():
            raise DegenerateError(
                "Xi(u) vanishes up to the truncation bound; use dominant_balance"
            )
        rhs = (shifted * scale).leading_part()
    return RootAsymptotics(root, order, rhs, level_index)


def dominant_balance(base: ExactPolynomial, shift_poly: PerturbedPolynomial, root):
    """Branch analysis at a double root: Xi(u) + xi*Xi'(u) + xi^2*P''(u)/2 ~ 0.

    Returns a list of RootAsymptotics, or a single-element list holding a
    BalanceQuadratic when the two scales coincide and neither term dominates.
    """
    root = GaussianRational.coerce(root)
    if base.evaluate(root):
        raise DomainError(f"{root} is not a root of {base}")
    if base.derivative().evaluate(root):
        raise DomainError("simple root: use root_correction instead")
    curvature = base.derivative(2).evaluate(root)
    if not curvature:
        raise UnsupportedOrderError(
            "root of multiplicity three or higher; not supported by the balance"
        )
    half_curv = curvature / 2
    value = shift_poly.evaluate(root)
    slope = shift_poly.derivative().evaluate(root)

    if value.is_zero():
        ring = shift_poly.ring
        still = RootAsymptotics(root, 1, ring.zero())
        if slope.is_zero():
            return [still, still]
        moved = (slope * (GaussianRational(-1) / half_curv)).leading_part()
        return [still, RootAsymptotics(root, 1, moved)]
    if slope.is_zero():
        rhs = (value * (GaussianRational(-1) / half_curv)).leading_part()
        return [RootAsymptotics(root, 2, rhs)]

    value_val = value.valuation()
    slope_val = slope.valuation()
    if value_val < 2 * slope_val:
        rhs = (value * (GaussianRational(-1) / half_curv)).leading_part()
        return [RootAsymptotics(root, 2, rhs)]
    if value_val > 2 * slope_val:
        if not shift_poly.ring.is_univariate:
            raise DomainError(
                "mixed-scale balance needs the univariate ring; specialize first"
            )
        small = (-divide_univariate(value, slope)).leading_part()
        large = (slope * (GaussianRational(-1) / half_curv)).leading_part()
        return [
            RootAsymptotics(root, 1, small),
            RootAsymptotics(root, 1, large),
        ]
    return [
        BalanceQuadratic(
            base_root=root,
            quad_coeff=half_curv,
            linear=slope.leading_part(),
            constant=value.leading_part(),
        )
    ]
