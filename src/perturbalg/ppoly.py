"""Polynomials with truncated-series coefficients.

Implements the perturbation side of polynomial algebra on top of the dense
arithmetic of `exactpoly.Polynomial`: Euclidean division by a unit leading
coefficient, the perturbed GCD (last remainder that is not wholly
infinitesimal), and the leading-order root corrections

    xi^k ~ -k! * Xi(u) / P^(k)(u)

for a root u of multiplicity k of the exact base polynomial P perturbed by an
infinitesimal polynomial Xi.  One pass over the Newton polygon of P + Xi at u
(Kato, ch. II), `_newton_polygon`, reads m, c_m and c_0..c_{m-1} and decides
every claim: `root_correction` answers where that polygon is one clean edge,
and `dominant_balance` reads off the branches of any hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import ClassVar, Optional

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
from .series import SeriesRing, TruncatedSeries, _check_bits, divide_univariate


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

    def __reduce__(self):
        return PerturbedPolynomial, (self.ring, self.coeffs, self.var)

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
    def from_exact(poly: ExactPolynomial, ring: SeriesRing):
        return PerturbedPolynomial(ring, list(poly.coeffs), poly.var)

    @staticmethod
    def zero(ring: SeriesRing, var: str = "X") -> "PerturbedPolynomial":
        return PerturbedPolynomial(ring, (), var)

    def shadow(self) -> ExactPolynomial:
        """Coefficient-wise standard part; the degree may drop."""
        return ExactPolynomial([c.standard_part() for c in self.coeffs], self.var)

    def is_infinitesimal(self) -> bool:
        """True when every coefficient has valuation >= 1 (0 included)."""
        return all(c.is_infinitesimal() for c in self.coeffs)

    def numeric_coeffs(self, values) -> list[complex]:
        return [c.numeric_sample(values) for c in self.coeffs]

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

    @property
    def wholly_infinitesimal(self) -> bool:
        return self.remainder.is_infinitesimal() and not self.remainder.is_zero()

    @property
    def exact_zero(self) -> bool:
        return self.remainder.is_zero()


def pgcd(a: PerturbedPolynomial, b: PerturbedPolynomial):
    """Perturbed GCD: last Euclidean remainder not wholly infinitesimal.

    Returns (pgcd, trace).  A remainder that is exactly zero ends the chain
    and the preceding remainder is returned, matching the classical GCD on
    exact inputs.  Divisors whose leading coefficients are infinitesimal but
    which are not wholly infinitesimal have those terms stripped (recorded in
    the trace) so every division is by a unit leading coefficient.  A remainder
    that stores an integer of more than MAX_POWER_BITS bits, a coefficient's
    common denominator or a numerator over it, raises DomainError.
    """
    if a.is_zero() or b.is_zero():
        raise DomainError("PGCD requires two nonzero polynomials")
    b = a._coerce(b)
    trace: list[RemainderStep] = []
    previous, current = a, b
    if previous.is_infinitesimal() and current.is_infinitesimal():
        raise DomainError("both inputs are wholly infinitesimal; no PGCD exists")
    while not current.is_infinitesimal():  # a zero remainder is infinitesimal too
        divisor, stripped = current.strip_infinitesimal_leading()
        _, remainder = euclid_divide(previous, divisor)
        _check_bits(remainder.coeffs, "PGCD remainder coefficient")
        trace.append(RemainderStep(remainder, stripped))
        previous, current = divisor, remainder
    return previous, trace


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

    Returned for the three-point Newton-polygon edge of a double root, where
    the two branch magnitudes coincide and the correction is a root of a
    genuine quadratic whose roots need not live in the coefficient ring.
    `order` is its count of branches, as for a RootAsymptotics.
    """

    order: ClassVar[int] = 2
    base_root: GaussianRational
    quad_coeff: GaussianRational
    linear: TruncatedSeries
    constant: TruncatedSeries

    def __str__(self):
        return (
            f"{self.quad_coeff}*xi^2 + ({self.linear})*xi + ({self.constant}) ~ 0 "
            f"(at root {self.base_root})"
        )


def _newton_polygon(base: ExactPolynomial, shift_poly: PerturbedPolynomial, root):
    """(u, m, scale, c, stills, edges): the lower hull of P + Xi at a root u.

    The multiplicity m of u is the index of the first nonzero Taylor
    coefficient c_m = P^(m)(u)/m! of P at u, and scale = -1/c_m.  The zero P
    has every point as a root and no nonzero coefficient to read, so it
    raises DomainError.  c lists c_j = [P^(j)(u) + Xi^(j)(u)]/j! for j < m up
    to the degree of Xi (the rest vanish), and its first `stills` entries
    vanish.  Each edge (i, k, inside) joins hull vertices i < k of the points
    (j, val c_j) and (m, 0); `inside` tells whether a third point lies on it.
    Only valuations are read, so no two series are divided.  A c_j or c_m
    that stores more than MAX_POWER_BITS bits raises DomainError.
    """
    if not shift_poly.is_infinitesimal():
        raise DomainError("the perturbation polynomial must be wholly infinitesimal")
    root = GaussianRational.coerce(root)
    mult, lead = next(
        ((j, c) for j, c in enumerate(base.taylor_coefficients(root)) if c), (0, None)
    )
    if lead is None:
        raise DomainError("the base polynomial is zero")
    if mult == 0:
        raise DomainError(f"{root} is not a root of {base}")
    scale = GaussianRational(-1) / lead
    coeffs = list(islice(shift_poly.taylor_coefficients(root), mult))
    _check_bits([*coeffs, scale], "Newton-polygon coefficient")
    points = [(j, c.valuation()) for j, c in enumerate(coeffs) if not c.is_zero()]
    points.append((mult, 0))  # c_m is P^(m)(u)/m! = -1/scale at leading order
    stills, v_i = points[0]
    i, edges = stills, []
    while i < mult:
        # the next hull vertex has the least slope; on a tie, the farthest
        k, v_k = min(
            (p for p in points if p[0] > i),
            key=lambda p: (Fraction(p[1] - v_i, p[0] - i), -p[0]),
        )
        inside = any(i < j < k and (v - v_i) * (k - i) == (v_k - v_i) * (j - i) for j, v in points)
        edges.append((i, k, inside))
        i, v_i = k, v_k
    return root, mult, scale, coeffs, stills, edges


def root_correction(
    base: ExactPolynomial,
    shift_poly: PerturbedPolynomial,
    root,
    decomposition: Optional[GozeDecomposition] = None,
) -> RootAsymptotics:
    """Leading asymptotics of a root of multiplicity k under perturbation.

    Computes xi^k ~ -k! * Xi(u) / P^(k)(u), keeping the leading-valuation
    part.  The claim holds only where the Newton polygon of P + Xi at u is
    one edge from (0, val Xi(u)) to (k, 0) with every other point strictly
    above it; any other hull, Xi(u) = 0 included, raises DegenerateError
    (dominant_balance gives its branches).  With a decomposition of Xi's
    coefficient vector the right-hand side is expressed through the first
    level whose direction polynomial does not vanish at u; only the levels
    up to it are built.  Later levels have higher valuation, so a
    decomposition of Xi gives that level's term the leading part of Xi(u);
    any other decomposition raises DomainError.
    """
    root, mult, scale, coeffs, _, edges = _newton_polygon(base, shift_poly, root)
    if edges != [(0, mult, False)]:
        raise DegenerateError(
            "the Newton polygon is not one edge from (0, val Xi(u)) to "
            f"({mult}, 0); use dominant_balance"
        )
    rhs = (coeffs[0] * scale).leading_part()
    if decomposition is None:
        return RootAsymptotics(root, mult, rhs)
    prefix = decomposition.ring.one()
    for level_index, (alpha, direction) in enumerate(decomposition):
        prefix = prefix * alpha
        value = ExactPolynomial(direction, shift_poly.var).evaluate(root)
        if value:
            claim = prefix * (value * scale)
            if claim.leading_part() != rhs:
                break
            return RootAsymptotics(root, mult, claim, level_index)
    raise DomainError("the decomposition does not match Xi at the root")


def dominant_balance(base: ExactPolynomial, shift_poly: PerturbedPolynomial, root):
    """Branches of P + Xi at a root u of multiplicity m, by the Newton polygon.

    Let c_j = [P^(j)(u) + Xi^(j)(u)]/j! for j = 0..m.  Each leading zero c_j is
    a root that stays put, xi ~ 0.  Each edge from i to k of the lower hull of
    the other points (j, val c_j) gives xi^(k-i) ~ -c_i/c_k at leading order;
    an edge short of m divides two series, so it needs the univariate ring.
    The three-point edge of a double root is a BalanceQuadratic; any other
    edge with a point inside raises UnsupportedOrderError.  As in
    root_correction, Xi must be wholly infinitesimal (DomainError otherwise).
    """
    root, mult, scale, coeffs, stills, edges = _newton_polygon(base, shift_poly, root)
    branches = [RootAsymptotics(root, 1, shift_poly.ring.zero())] * stills
    for i, k, inside in edges:
        if inside:
            if mult != 2:
                raise UnsupportedOrderError(
                    f"Newton-polygon edge from {i} to {k} has a point inside; "
                    "only the double-root balance is supported"
                )
            quad = GaussianRational(-1) / scale
            linear, constant = coeffs[1].leading_part(), coeffs[0].leading_part()
            branches.append(BalanceQuadratic(root, quad, linear, constant))
        elif k == mult:
            branches.append(RootAsymptotics(root, k - i, (coeffs[i] * scale).leading_part()))
        elif not shift_poly.ring.is_univariate:
            raise DomainError("mixed-scale balance needs the univariate ring; specialize first")
        else:
            rhs = (-divide_univariate(coeffs[i], coeffs[k])).leading_part()
            branches.append(RootAsymptotics(root, k - i, rhs))
    return branches
