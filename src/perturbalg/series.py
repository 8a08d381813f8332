"""Truncated multivariate power series over the Gaussian rationals.

A series lives in a ring fixed by an ordered tuple of generator names and a
total-degree truncation bound T.  Every generator is treated as an
infinitesimal: terms whose total degree exceeds T are discarded by every
operation, so the ring is K[eps_1, ..., eps_m] / (total degree > T) with
K = Q(i).  Elements of valuation >= 1 form the maximal ideal; elements with a
nonzero constant term are units.

A series stores its terms over one common denominator D: `rows` maps each
exponent vector, packed into one int in base T+1, to its total degree and the
Gaussian-integer numerators of its coefficient times D (Monagan and Pearce,
*Sparse polynomial division using a heap*, JSC 46, 2011).  The form is
canonical, so gcd(D, every numerator) = 1 and the zero series has D = 1.
A GaussianRational (a + b*i)/d is the same form for one coefficient, so a row
over D is (a, b) scaled by D/d, and a row (re, im) over D is the scalar
(re, im, D) divided by its gcd.  `terms`, the exponent-tuple ->
GaussianRational dict, is a view of the rows built on first read, and
`invert` keeps the inverse it computes.  `sum_of_products` sums x*y over
many pairs in one row map, which it normalises once.

`divide_univariate` divides exactly in the univariate ring: it shifts both
operands down by the valuation of the divisor, which leaves a unit to invert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .errors import DomainError, NonUnitError, RingMismatchError
from .scalars import GaussianRational, _power, _reduced

INFINITE = math.inf

# The ring budget.  Euclid over a univariate ring costs about T^3 (one series
# inversion per step), and a multivariate ring's cost grows with its count of
# monomials of total degree <= T, C(m + T, m) in m generators; past either
# bound a computation may run for minutes, so no ring is built there.
MAX_TRUNCATION = 128
MAX_MONOMIALS = 512

CoefficientLike = Union[GaussianRational, Fraction, int]

INFINITESIMAL = "infinitesimal"
APPRECIABLE = "appreciable"
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
        monomials = math.comb(len(self.generators) + self.truncation, self.truncation)
        if self.truncation > MAX_TRUNCATION or monomials > MAX_MONOMIALS:
            raise DomainError(
                f"ring budget exceeded: truncation {self.truncation} (at most "
                f"{MAX_TRUNCATION}), {monomials} monomials (at most {MAX_MONOMIALS})"
            )

    @property
    def is_univariate(self) -> bool:
        return len(self.generators) == 1

    def zero(self) -> "TruncatedSeries":
        return TruncatedSeries(self, {})

    def one(self) -> "TruncatedSeries":
        return self.constant(1)

    def constant(self, value: CoefficientLike) -> "TruncatedSeries":
        value = GaussianRational.coerce(value)
        if not value:
            return TruncatedSeries._of_rows(self, 1, {})
        return TruncatedSeries._of_rows(self, value.d, {0: (0, value.a, value.b)})

    def generator(self, name: str) -> "TruncatedSeries":
        if name not in self.generators:
            raise ValueError(f"{name!r} is not a generator of this ring")
        index = tuple(1 if g == name else 0 for g in self.generators)
        return TruncatedSeries(self, {index: GaussianRational(1)})


def univariate_ring(truncation: int = 8, name: str = "t") -> SeriesRing:
    return SeriesRing((name,), truncation)


class TruncatedSeries:
    """Immutable sparse series: packed exponent -> (degree, re*D, im*D) over one D."""

    __slots__ = ("ring", "den", "rows", "_terms", "_inverse")

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
        # over the lcm of the canonical denominators the numerators share no
        # factor with it, so the form is canonical without a gcd
        den = math.lcm(*(c.d for c in clean.values()))
        base = bound + 1
        rows = {}
        for index, coeff in clean.items():
            key = 0
            for exponent in index:
                key = key * base + exponent
            rows[key] = _row(sum(index), coeff, den)
        _set_ring(self, ring)
        _set_den(self, den)
        _set_rows(self, rows)
        _set_terms(self, clean)
        _set_inverse(self, None)

    @classmethod
    def _of_rows(cls, ring: SeriesRing, den: int, rows: dict) -> "TruncatedSeries":
        """Series of canonical rows over `den`, without the checks of __init__."""
        self = _new(cls)
        _set_ring(self, ring)
        _set_den(self, den)
        _set_rows(self, rows)
        _set_terms(self, None)
        _set_inverse(self, None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __reduce__(self):
        return TruncatedSeries._of_rows, (self.ring, self.den, self.rows)

    @property
    def terms(self) -> dict:
        """Exponent tuple -> GaussianRational, in row order; built once, on first read."""
        terms = self._terms
        if terms is None:
            base = self.ring.truncation + 1
            width = len(self.ring.generators)
            terms = {
                _unpack(key, base, width): _reduced(re, im, self.den)
                for key, (_, re, im) in self.rows.items()
            }
            _set_terms(self, terms)
        return terms

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
        return not self.rows

    def __bool__(self):
        return bool(self.rows)

    def is_constant(self) -> bool:
        """True when no term has positive degree (the zero series included)."""
        # the packed key 0 is the exponent (0, ..., 0)
        return not self.rows or (len(self.rows) == 1 and 0 in self.rows)

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries) and other.ring != self.ring:
            # a constant equals its coefficient, so constants of two rings
            # compare by value; other series of two rings are unequal
            return (
                self.is_constant()
                and other.is_constant()
                and self.standard_part() == other.standard_part()
            )
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.den == other.den and self.rows == other.rows  # the form is canonical

    def __hash__(self):
        # a constant series equals its coefficient, so it must hash like it
        if self.is_constant():
            return hash(self.standard_part())
        return hash((self.ring, self.den, frozenset(self.rows.items())))

    # -- ring operations ------------------------------------------------------
    #
    # Sums and products run on the rows: a sum scales both operands to the
    # lcm of their denominators, a product works over the product of them
    # (a product by one term, such as an exact scalar, scales each row), and
    # `_from_ints` divides the result by the gcd of its denominator and
    # numerators.  A term enters the result at its first nonzero contribution
    # and leaves it when it cancels, so results keep the term order of the
    # GaussianRational loop; multivariate `numeric_sample` sums in that order.
    # A sum of products may not: a key that cancels part-way re-enters at the end.

    def __add__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self._add(other, -1)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return TruncatedSeries._of_rows(self.ring, self.den, _scaled(self.rows, -1))

    def _add(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        """self + sign*other."""
        common, acc = _sum_rows(self.den, self.rows, other.den, other.rows, sign)
        return _from_ints(self.ring, acc, common)

    def __mul__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        acc = _mul_rows(self.rows, other.rows, self.ring.truncation)
        return _from_ints(self.ring, acc, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series exponent must be a nonnegative integer")
        return _power(self.ring.one(), self, exponent)

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
        if not self.rows:
            return INFINITE
        return min(degree for degree, _, _ in self.rows.values())

    def standard_part(self) -> GaussianRational:
        """The degree-0 coefficient (the shadow of a finite element)."""
        row = self.rows.get(0)  # the packed key of the exponent (0, ..., 0)
        if row is None:
            return GaussianRational(0)
        return _reduced(row[1], row[2], self.den)

    def is_infinitesimal(self) -> bool:
        return self.valuation() >= 1

    def is_unit(self) -> bool:
        return self.valuation() == 0

    def invert(self) -> "TruncatedSeries":
        """Inverse of a unit, by geometric expansion of (c0*(1+m))^-1; cached.

        Raises NonUnitError when the constant term vanishes; to divide by a
        univariate non-unit, use divide_univariate.
        """
        if self._inverse is not None:
            return self._inverse
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
        _set_inverse(self, acc * c0_inv)
        return self._inverse

    def leading_part(self) -> "TruncatedSeries":
        """Terms of minimal total degree only (0 for the zero series)."""
        if not self.rows:
            return self
        v = self.valuation()
        return _from_ints(
            self.ring, {key: row for key, row in self.rows.items() if row[0] == v}, self.den
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
        den = self.den
        if self.ring.is_univariate:
            # a univariate packed key is the exponent itself
            dense = [0j] * (max(self.rows, default=0) + 1)
            for key, (_, re, im) in self.rows.items():
                dense[key] = complex(re / den, im / den)
            acc = 0j
            for c in reversed(dense):
                acc = acc * point[0] + c
            return acc
        base = self.ring.truncation + 1
        acc = 0j
        for key, (_, re, im) in self.rows.items():
            monomial = 1.0 + 0j
            for value, exponent in zip(point, _unpack(key, base, len(point))):
                monomial *= value**exponent
            acc += complex(re / den, im / den) * monomial
        return acc

    # -- display -------------------------------------------------------------------

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"<series {self} @T={self.ring.truncation}>"


# the slot setters, which skip the __setattr__ that keeps a series immutable
_new = object.__new__
_set_ring = TruncatedSeries.ring.__set__
_set_den = TruncatedSeries.den.__set__
_set_rows = TruncatedSeries.rows.__set__
_set_terms = TruncatedSeries._terms.__set__
_set_inverse = TruncatedSeries._inverse.__set__


# -- integer kernel --------------------------------------------------------------
#
# An exponent tuple packs into one int in base T+1, so the packed keys of two
# terms add to the packed key of their product whenever that product has total
# degree <= T.  The parser adds the degree in the polynomial indeterminate as
# one more digit above them, and runs these row functions on that form too.

def _unpack(key: int, base: int, width: int) -> tuple:
    """The exponent tuple of a packed key."""
    index = [0] * width
    for position in range(width - 1, -1, -1):
        key, index[position] = divmod(key, base)
    return tuple(index)


def _scaled(rows: dict, scale: int) -> dict:
    """A copy of `rows` with every numerator times the int `scale`."""
    return {key: (degree, re * scale, im * scale) for key, (degree, re, im) in rows.items()}


def _merge(acc: dict, rows: dict, scale: int) -> None:
    """Add `rows` times the int `scale` into `acc` in place.

    A new key enters at the end and a key that cancels leaves, as in a sum
    of series.
    """
    for key, (degree, re, im) in rows.items():
        re *= scale
        im *= scale
        cell = acc.get(key)
        if cell is None:
            acc[key] = (degree, re, im)
            continue
        re += cell[1]
        im += cell[2]
        if re or im:
            acc[key] = (degree, re, im)
        else:
            del acc[key]


def _sum_rows(den_a: int, rows_a: dict, den_b: int, rows_b: dict, sign: int):
    """(common, acc): rows_a/den_a + sign*rows_b/den_b as new rows over the lcm, unreduced."""
    common = math.lcm(den_a, den_b)
    acc = _scaled(rows_a, common // den_a)
    _merge(acc, rows_b, sign * (common // den_b))
    return common, acc


def _mul_rows(rows_a: dict, rows_b: dict, bound: int, acc=None, scale: int = 1) -> dict:
    """`acc` plus `scale` times the product of two row maps, truncated past degree `bound`.

    The product is over the product of the operands' denominators; without
    `acc` it goes into a new map.  A key enters at its first nonzero
    contribution, in the order of a's rows then b's, and leaves when it
    cancels.
    """
    if acc is None:
        if len(rows_b) == 1:
            ((kb, (degb, br, bi)),) = rows_b.items()
            return _times_term(rows_a, kb, degb, br * scale, bi * scale, bound)
        if len(rows_a) == 1:
            ((ka, (dega, ar, ai)),) = rows_a.items()
            return _times_term(rows_b, ka, dega, ar * scale, ai * scale, bound)
        acc = {}
    rows_b = [(key, *row) for key, row in rows_b.items()]
    capped = {}  # degree cap -> the rows of b within it, in b's order
    for ka, (dega, ar, ai) in rows_a.items():
        ar *= scale
        ai *= scale
        cap = bound - dega
        within = capped.get(cap)
        if within is None:
            within = capped[cap] = [row for row in rows_b if row[1] <= cap]
        for kb, degb, br, bi in within:
            key = ka + kb  # no carry: the product term has degree <= T
            re = ar * br - ai * bi
            im = ar * bi + ai * br
            cell = acc.get(key)
            if cell is None:
                acc[key] = (dega + degb, re, im)
                continue
            re += cell[1]
            im += cell[2]
            if re or im:
                acc[key] = (cell[0], re, im)
            else:
                del acc[key]
    return acc


def sum_of_products(start: TruncatedSeries, pairs) -> TruncatedSeries:
    """start + the sum of x*y over the (x, y) pairs of series of start's ring.

    Every product goes into one row map over the lcm of the denominators,
    normalised once.  A key that cancels part-way through re-enters at the
    end, so the rows may come in another order than those of a loop of sums.
    """
    pairs = [(x, y) for x, y in pairs if x.rows and y.rows]
    common = math.lcm(start.den, *(x.den * y.den for x, y in pairs))
    acc = _scaled(start.rows, common // start.den)
    for x, y in pairs:
        _mul_rows(x.rows, y.rows, start.ring.truncation, acc, common // (x.den * y.den))
    return _from_ints(start.ring, acc, common)


def _times_term(rows: dict, key: int, degree: int, re: int, im: int, bound: int) -> dict:
    """`rows` times the one row (key, degree, re, im), truncated past degree `bound`.

    Distinct keys stay distinct and a product of nonzero Gaussian integers
    is nonzero, so the rows keep their order and none cancels.
    """
    cap = bound - degree
    return {
        k + key: (d + degree, r * re - i * im, r * im + i * re)
        for k, (d, r, i) in rows.items()
        if d <= cap
    }


def _row(degree: int, coeff: GaussianRational, den: int) -> tuple:
    """(degree, re*den, im*den) for a coefficient whose denominator divides den."""
    scale = den // coeff.d
    return degree, coeff.a * scale, coeff.b * scale


def _from_ints(ring: SeriesRing, acc: dict, common: int) -> TruncatedSeries:
    """Series of the nonzero rows `acc` over `common`, divided by their gcd."""
    return TruncatedSeries._of_rows(ring, *_reduced_rows(common, acc))


def _reduced_rows(common: int, acc: dict):
    """(den, rows): the nonzero rows `acc` over `common`, divided by the gcd of all."""
    divisor = common
    for _, re, im in acc.values():
        divisor = math.gcd(divisor, re, im)
        if divisor == 1:
            break
    if divisor == 1:
        return common, acc
    return common // divisor, {
        key: (degree, re // divisor, im // divisor) for key, (degree, re, im) in acc.items()
    }


# The most bits an integer a value stores may have: 1234 decimal digits,
# within Python's 4300-digit limit on converting an int to or from text.  The
# parser bounds what it builds by it, and pgcd bounds its remainders.
MAX_POWER_BITS = 4096


def _stored_bits(pairs) -> int:
    """ceil(log2 |n|) for the largest den or row part n of the (den, rows) pairs.

    Each integer counts as stored, not as a fraction reduced by a gcd.
    """
    largest = 1
    for den, rows in pairs:
        largest = max(largest, den)
        for _, re, im in rows.values():
            largest = max(largest, abs(re), abs(im))
    return (largest - 1).bit_length()


# -- valuation shift -------------------------------------------------------------


def classify(value: TruncatedSeries) -> str:
    """Sort a series into zero / infinitesimal / appreciable by its valuation."""
    if not isinstance(value, TruncatedSeries):
        raise TypeError("classify expects a series")
    if value.is_zero():
        return ZERO
    return INFINITESIMAL if value.valuation() >= 1 else APPRECIABLE


def _shift(series: TruncatedSeries, amount: int) -> TruncatedSeries:
    """series * t^amount in its univariate ring; a negative amount divides."""
    bound = series.ring.truncation
    return _from_ints(
        series.ring,
        {
            key + amount: (degree + amount, re, im)  # a univariate packed key is the exponent
            for key, (degree, re, im) in series.rows.items()
            if degree + amount <= bound
        },
        series.den,
    )


def divide_univariate(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """Exact division in the univariate ring, by the valuation v of `den`.

    num/den = (num/t^v) * (den/t^v)^-1, where den/t^v is a unit.  Requires
    valuation(num) >= v (NonUnitError otherwise); the quotient is expanded out
    to the truncation bound.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero series")
    if num.is_zero():
        return num
    if not (num.ring.is_univariate and den.ring.is_univariate):
        raise DomainError("exact division by a non-unit needs a univariate ring")
    v = den.valuation()
    if num.valuation() < v:
        raise NonUnitError("the quotient has a negative power of the generator")
    return _shift(num, -v) * _shift(den, -v).invert()


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


def format_terms(terms) -> str:
    """Join (coefficient, monomial) pairs into a signed sum, in the given order.

    A coefficient is a Gaussian rational or a series.  A series of one term
    folds into the monomial; any other series is put in parentheses.  Callers
    leave out zero coefficients; no pairs at all print as 0.
    """
    chunks = []
    for coeff, monomial in terms:
        if isinstance(coeff, TruncatedSeries):
            if len(coeff.terms) != 1:
                text = f"({format_series(coeff)})"
                chunks.append(("+", f"{text}*{monomial}" if monomial else text))
                continue
            ((index, scalar),) = coeff.terms.items()
            inner = _monomial_text(coeff.ring.generators, index)
            monomial = "*".join(part for part in (inner, monomial) if part)
            coeff = scalar
        sign, factor = _scalar_pieces(coeff, with_monomial=bool(monomial))
        if monomial and factor:
            body = f"{factor}*{monomial}"
        else:
            body = monomial or factor or "1"
        chunks.append((sign, body))
    if not chunks:
        return "0"
    first_sign, first_body = chunks[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text


def format_series(series: TruncatedSeries) -> str:
    generators = series.ring.generators
    ordered = sorted(series.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    return format_terms(
        (coeff, _monomial_text(generators, index)) for index, coeff in ordered
    )
