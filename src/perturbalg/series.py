"""Truncated multivariate power series over the Gaussian rationals.

A series lives in a ring fixed by an ordered tuple of generator names and a
total-degree truncation bound T.  Every generator is treated as an
infinitesimal: terms whose total degree exceeds T are discarded by every
operation, so the ring is K[eps_1, ..., eps_m] / (total degree > T) with
K = Q(i).  Elements of valuation >= 1 form the maximal ideal; elements with a
nonzero constant term are units.

`LaurentScalar` adjoins negative powers of the single canonical generator,
which is enough to classify finite / infinitesimal / infinitely large values
and to divide univariate series exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .errors import DomainError, NonUnitError, RingMismatchError
from .scalars import GaussianRational

INFINITE = math.inf

CoefficientLike = Union[GaussianRational, Fraction, int]

INFINITESIMAL = "infinitesimal"
APPRECIABLE = "appreciable"
INFINITELY_LARGE = "infinitely_large"
ZERO = "zero"


@dataclass(frozen=True)
class SeriesRing:
    """Ambient ring: generator names plus the total-degree truncation T."""

    generators: tuple[str, ...]
    truncation: int = 8

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation bound must be >= 1")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("generator names must be distinct")

    @property
    def is_univariate(self) -> bool:
        return len(self.generators) == 1

    def zero(self) -> "TruncatedSeries":
        return TruncatedSeries(self, {})

    def one(self) -> "TruncatedSeries":
        return self.constant(1)

    def constant(self, value: CoefficientLike) -> "TruncatedSeries":
        value = GaussianRational.coerce(value)
        zero_index = (0,) * len(self.generators)
        return TruncatedSeries(self, {zero_index: value} if value else {})

    def generator(self, name: str) -> "TruncatedSeries":
        if name not in self.generators:
            raise ValueError(f"{name!r} is not a generator of this ring")
        index = tuple(1 if g == name else 0 for g in self.generators)
        return TruncatedSeries(self, {index: GaussianRational(1)})


def univariate_ring(truncation: int = 8, name: str = "t") -> SeriesRing:
    return SeriesRing((name,), truncation)


class TruncatedSeries:
    """Immutable sparse series; exponent tuples map to exact coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: SeriesRing, terms: Mapping[tuple, GaussianRational]):
        width = len(ring.generators)
        bound = ring.truncation
        clean = {}
        for index, coeff in terms.items():
            if len(index) != width:
                raise ValueError("exponent width does not match the generators")
            if any(e < 0 for e in index):
                raise ValueError("negative exponent in a series term")
            if sum(index) > bound:
                continue  # silent truncation, per the ring rules
            coeff = GaussianRational.coerce(coeff)
            if coeff:
                clean[index] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- plumbing -------------------------------------------------------------

    def _coerce(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            if other.ring != self.ring:
                raise RingMismatchError(
                    f"incompatible rings: {other.ring} vs {self.ring}"
                )
            return other
        if isinstance(other, (GaussianRational, Fraction, int)):
            return self.ring.constant(other)
        raise TypeError(f"cannot coerce {other!r} into {self.ring}")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except (TypeError, RingMismatchError):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant series equals its coefficient, so it must hash like it
        if not any(any(index) for index in self.terms):
            return hash(self.standard_part())
        return hash((self.ring, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        terms = dict(self.terms)
        for index, coeff in other.terms.items():
            total = terms.get(index, 0) + coeff
            if total:
                terms[index] = total
            else:
                terms.pop(index, None)
        return TruncatedSeries(self.ring, terms)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return TruncatedSeries(
            self.ring, {index: -coeff for index, coeff in self.terms.items()}
        )

    def __mul__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        bound = self.ring.truncation
        terms: dict = {}
        for ia, ca in self.terms.items():
            da = sum(ia)
            for ib, cb in other.terms.items():
                if da + sum(ib) > bound:
                    continue
                index = tuple(x + y for x, y in zip(ia, ib))
                total = terms.get(index, 0) + ca * cb
                if total:
                    terms[index] = total
                else:
                    terms.pop(index, None)
        return TruncatedSeries(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series exponent must be a nonnegative integer")
        if exponent == 0:
            return self.ring.one()
        if self.valuation() >= 1 and exponent > self.ring.truncation:
            return self.ring.zero()  # infinitesimal^e vanishes beyond T
        result = self.ring.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __truediv__(self, other):
        """Division by an exact scalar (series division goes through invert)."""
        if isinstance(other, (GaussianRational, Fraction, int)):
            scalar = GaussianRational.coerce(other)
            if not scalar:
                raise ZeroDivisionError("division by zero scalar")
            inv = GaussianRational(1) / scalar
            return self * inv
        return NotImplemented

    # -- valuation-ring structure ----------------------------------------------

    def valuation(self):
        """Minimal total degree of a nonzero term; +inf for the zero series."""
        if not self.terms:
            return INFINITE
        return min(sum(index) for index in self.terms)

    def standard_part(self) -> GaussianRational:
        """The degree-0 coefficient (the shadow of a finite element)."""
        zero_index = (0,) * len(self.ring.generators)
        return self.terms.get(zero_index, GaussianRational(0))

    def is_infinitesimal(self) -> bool:
        return self.valuation() >= 1

    def is_unit(self) -> bool:
        return self.valuation() == 0

    def invert(self) -> "TruncatedSeries":
        """Inverse of a unit, by geometric expansion of (c0*(1+m))^-1.

        Raises NonUnitError when the constant term vanishes; univariate
        callers may fall back to LaurentScalar division instead.
        """
        c0 = self.standard_part()
        if not c0:
            raise NonUnitError("series with zero constant term has no inverse")
        c0_inv = GaussianRational(1) / c0
        tail = self * c0_inv - 1  # valuation >= 1
        acc = self.ring.one()
        power = self.ring.one()
        for _ in range(self.ring.truncation):
            power = power * (-tail)
            if power.is_zero():
                break
            acc = acc + power
        return acc * c0_inv

    def leading_part(self) -> "TruncatedSeries":
        """Terms of minimal total degree only (0 for the zero series)."""
        if not self.terms:
            return self
        v = self.valuation()
        return TruncatedSeries(
            self.ring,
            {i: c for i, c in self.terms.items() if sum(i) == v},
        )

    # -- maps out of the ring ----------------------------------------------------

    def specialize(self, images: Mapping[str, "TruncatedSeries"]) -> "TruncatedSeries":
        """Substitute an infinitesimal series for every generator.

        All image series must share one ring (typically univariate in t) and
        have valuation >= 1, so that substitution preserves infinitesimality.
        """
        for name in self.ring.generators:
            if name not in images:
                raise DomainError(f"no image supplied for generator {name!r}")
        target = None
        for name, image in images.items():
            if target is None:
                target = image.ring
            elif image.ring != target:
                raise RingMismatchError("specialization images live in different rings")
            if image.valuation() < 1:
                raise DomainError(
                    f"image of {name!r} has valuation 0; it must stay infinitesimal"
                )
        if target is None:
            raise DomainError("empty specialization map")
        result = target.zero()
        for index, coeff in self.terms.items():
            term = target.constant(coeff)
            for name, exponent in zip(self.ring.generators, index):
                if exponent:
                    term = term * (images[name] ** exponent)
                if term.is_zero():
                    break
            result = result + term
        return result

    def numeric_sample(self, values) -> complex:
        """Evaluate at small complex generator values.

        `values` is either one complex number (used for every generator) or a
        mapping from generator name to complex value.  Univariate series are
        evaluated Horner-style; multivariate ones term by term.
        """
        if isinstance(values, Mapping):
            point = [complex(values[g]) for g in self.ring.generators]
        else:
            point = [complex(values)] * len(self.ring.generators)
        if self.ring.is_univariate:
            degree = max((i[0] for i in self.terms), default=0)
            dense = [0j] * (degree + 1)
            for index, coeff in self.terms.items():
                dense[index[0]] = complex(coeff)
            acc = 0j
            for c in reversed(dense):
                acc = acc * point[0] + c
            return acc
        acc = 0j
        for index, coeff in self.terms.items():
            monomial = 1.0 + 0j
            for value, exponent in zip(point, index):
                monomial *= value**exponent
            acc += complex(coeff) * monomial
        return acc

    # -- display -------------------------------------------------------------------

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"<series {self} @T={self.ring.truncation}>"


# -- Laurent layer ---------------------------------------------------------------


class LaurentScalar:
    """t^shift * body with a unit body, over the single canonical generator.

    Negative shifts represent infinitely large elements; the zero value is
    stored as shift 0 with a zero body.
    """

    __slots__ = ("shift", "body")

    def __init__(self, shift: int, body: TruncatedSeries):
        if not body.ring.is_univariate:
            raise DomainError("Laurent scalars exist only over a univariate ring")
        if body.is_zero():
            shift = 0
        else:
            v = body.valuation()
            if v:
                body = _shift_down(body, v)
                shift += v
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "body", body)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentScalar is immutable")

    @staticmethod
    def from_series(series: TruncatedSeries) -> "LaurentScalar":
        return LaurentScalar(0, series)

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def order(self):
        """Valuation of the represented value (shift + body valuation)."""
        if self.is_zero():
            return INFINITE
        return self.shift

    def invert(self) -> "LaurentScalar":
        if self.is_zero():
            raise ZeroDivisionError("zero has no Laurent inverse")
        return LaurentScalar(-self.shift, self.body.invert())

    def __mul__(self, other: "LaurentScalar") -> "LaurentScalar":
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        return LaurentScalar(self.shift + other.shift, self.body * other.body)

    def to_series(self) -> TruncatedSeries:
        """Re-enter the series ring; requires a nonnegative shift."""
        if self.is_zero():
            return self.body
        if self.shift < 0:
            raise NonUnitError("negative Laurent shift is not a series")
        return _shift_up(self.body, self.shift)

    def __eq__(self, other):
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        return self.shift == other.shift and self.body == other.body

    def __str__(self):
        if self.is_zero():
            return "0"
        gen = self.body.ring.generators[0]
        if self.shift == 0:
            return str(self.body)
        return f"{gen}^{self.shift}*({self.body})"


def classify(value) -> str:
    """Sort a scalar into zero / infinitesimal / appreciable / infinitely_large."""
    if isinstance(value, TruncatedSeries):
        value = LaurentScalar.from_series(value)
    if not isinstance(value, LaurentScalar):
        raise TypeError("classify expects a series or a Laurent scalar")
    if value.is_zero():
        return ZERO
    if value.shift >= 1:
        return INFINITESIMAL
    if value.shift == 0:
        return APPRECIABLE
    return INFINITELY_LARGE


def _shift_down(series: TruncatedSeries, amount: int) -> TruncatedSeries:
    return TruncatedSeries(
        series.ring, {(i[0] - amount,): c for i, c in series.terms.items()}
    )


def _shift_up(series: TruncatedSeries, amount: int) -> TruncatedSeries:
    return TruncatedSeries(
        series.ring, {(i[0] + amount,): c for i, c in series.terms.items()}
    )


def divide_univariate(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """Exact division in the univariate ring via the Laurent layer.

    Requires valuation(num) >= valuation(den); the quotient is expanded out to
    the truncation bound.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero series")
    if num.is_zero():
        return num
    quotient = LaurentScalar.from_series(num) * LaurentScalar.from_series(den).invert()
    return quotient.to_series()


# -- grammar-compatible formatting --------------------------------------------------


def _scalar_pieces(coeff: GaussianRational, with_monomial: bool):
    """Return (sign, factor_text) for one term; factor_text may be empty."""
    if coeff.im == 0:
        sign = "-" if coeff.re < 0 else "+"
        magnitude = abs(coeff.re)
        if with_monomial and magnitude == 1:
            return sign, ""
        return sign, str(magnitude)
    if coeff.re == 0:
        sign = "-" if coeff.im < 0 else "+"
        magnitude = abs(coeff.im)
        text = "i" if magnitude == 1 else f"{magnitude}*i"
        return sign, text
    return "+", f"({coeff})"


def _monomial_text(generators, index) -> str:
    parts = []
    for name, exponent in zip(generators, index):
        if exponent == 1:
            parts.append(name)
        elif exponent > 1:
            parts.append(f"{name}^{exponent}")
    return "*".join(parts)


def format_series(series: TruncatedSeries) -> str:
    if series.is_zero():
        return "0"
    ordered = sorted(series.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    chunks = []
    for index, coeff in ordered:
        monomial = _monomial_text(series.ring.generators, index)
        sign, factor = _scalar_pieces(coeff, with_monomial=bool(monomial))
        if monomial and factor:
            body = f"{factor}*{monomial}"
        else:
            body = monomial or factor or "1"
        chunks.append((sign, body))
    first_sign, first_body = chunks[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text
