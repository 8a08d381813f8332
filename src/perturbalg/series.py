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
(re, im, D) divided by its gcd.  A series holds nothing but that form:
`terms`, the exponent-tuple -> GaussianRational dict, is built from the
rows on each read, and `invert` expands the inverse on each call.
`_mul_rows` is every merge of rows that can cancel, in one loop: each row of
a meets b's rows within its degree cap, and a b of more than _FILTER_ROWS
rows is filtered once per cap, since a multivariate product wastes most of
its pairs past the truncation.  A sum adds b times the constant row
+-common/den_b to a copy of a.  `sum_of_products` is every sum of products,
start + sum of x*y, normalised once: over series it works in one row map,
over exact scalars in one Gaussian integer over one running denominator.
`taylor_shift` is every Taylor shift of a polynomial, on integers over one
denominator per place.

`divide_univariate` divides exactly in the univariate ring: it shifts both
operands down by the valuation of the divisor, which leaves a unit to invert.
`_leading_ratios` is every first-order read: coefficients at a pivot's
lowest-degree term over the pivot's.  No module reads `terms`: the printers
and `specialize` read the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .errors import DomainError, NonUnitError, RingMismatchError
from .scalars import GaussianRational, _Immutable, _power, _reduced, _scalar_pieces

INFINITE = math.inf

# The ring budget.  Euclid over a univariate ring costs about T^3 (one series
# inversion per step), and a multivariate ring's cost grows with its count of
# monomials of total degree <= T, C(m + T, m) in m generators; past either
# bound a computation may run for minutes, so no ring is built there.
MAX_TRUNCATION = 128
MAX_MONOMIALS = 512
DEFAULT_TRUNCATION = 8

CoefficientLike = Union[GaussianRational, Fraction, int]

INFINITESIMAL = "infinitesimal"
APPRECIABLE = "appreciable"
ZERO = "zero"


@dataclass(frozen=True)
class SeriesRing:
    """Ambient ring: generator names plus the total-degree truncation T."""

    generators: tuple[str, ...]
    truncation: int = DEFAULT_TRUNCATION

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
        return TruncatedSeries._of_rows(self, 1, {})

    def one(self) -> "TruncatedSeries":
        return self.constant(1)

    def constant(self, value: CoefficientLike) -> "TruncatedSeries":
        value = GaussianRational.coerce(value)
        if not value:
            return self.zero()
        return TruncatedSeries._of_rows(self, value.d, {0: (0, value.a, value.b)})

    def generator(self, name: str) -> "TruncatedSeries":
        return TruncatedSeries._of_rows(self, 1, {self.generator_key(name): (1, 1, 0)})

    def generator_key(self, name: str) -> int:
        """The packed key of the exponent vector with a 1 in the place of `name`."""
        if name not in self.generators:
            raise ValueError(f"{name!r} is not a generator of this ring")
        return (self.truncation + 1) ** (len(self.generators) - 1 - self.generators.index(name))


def univariate_ring(truncation: int = DEFAULT_TRUNCATION, name: str = "t") -> SeriesRing:
    return SeriesRing((name,), truncation)


class TruncatedSeries(_Immutable):
    """Immutable sparse series: packed exponent -> (degree, re*D, im*D) over one D."""

    __slots__ = ("ring", "den", "rows")

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

    @classmethod
    def _of_rows(cls, ring: SeriesRing, den: int, rows: dict) -> "TruncatedSeries":
        """Series of canonical rows over `den`, without the checks of __init__."""
        self = _new(cls)
        _set_ring(self, ring)
        _set_den(self, den)
        _set_rows(self, rows)
        return self

    def __reduce__(self):
        return TruncatedSeries._of_rows, (self.ring, self.den, self.rows)

    @property
    def terms(self) -> dict:
        """Exponent tuple -> GaussianRational: a new dict, built from the rows on each read."""
        return dict(_terms(self, self.rows.items()))

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
        """Inverse of a unit, by geometric expansion of (c0*(1+m))^-1.

        Raises NonUnitError when the constant term vanishes; to divide by a
        univariate non-unit, use divide_univariate.
        """
        c0 = self.standard_part()
        if not c0:
            raise NonUnitError("series with zero constant term has no inverse")
        c0_inv = GaussianRational(1) / c0
        step = 1 - self * c0_inv  # -m, valuation >= 1
        acc = self.ring.one()
        power = self.ring.one()
        for _ in range(self.ring.truncation):
            power = power * step
            if power.is_zero():
                break
            acc = acc + power
        return acc * c0_inv

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
        for index, coeff in _terms(self, self.rows.items()):
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
        evaluated Horner-style; multivariate ones term by term, in ascending
        packed key: row order carries no meaning, so the sample depends on the
        value alone.
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
        for key, (_, re, im) in sorted(self.rows.items()):
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


# -- integer kernel --------------------------------------------------------------
#
# An exponent tuple packs into one int in base T+1, so the packed keys of two
# terms add to the packed key of their product whenever that product has total
# degree <= T.  The parser adds the degree in the polynomial indeterminate as
# one more digit above them, and runs these row functions on that form too.

# `_mul_rows` filters a b of more rows than this once per degree cap.  On the
# benchmark's corpora 8 to 16 rows measured alike; 4 gave back part of the
# univariate gain of testing rows one by one, and never filtering slowed pgcd.
_FILTER_ROWS = 8


def _unpack(key: int, base: int, width: int) -> tuple:
    """The exponent tuple of a packed key."""
    index = [0] * width
    for position in range(width - 1, -1, -1):
        key, index[position] = divmod(key, base)
    return tuple(index)


def _terms(series: TruncatedSeries, items):
    """(exponent tuple, coefficient) of each (packed key, row) in `items`, rows of `series`."""
    base = series.ring.truncation + 1
    width = len(series.ring.generators)
    for key, (_, re, im) in items:
        yield _unpack(key, base, width), _reduced(re, im, series.den)


def _scaled(rows: dict, scale: int) -> dict:
    """A copy of `rows` with every numerator times the int `scale`."""
    return {key: (degree, re * scale, im * scale) for key, (degree, re, im) in rows.items()}


def _sum_rows(den_a: int, rows_a: dict, den_b: int, rows_b: dict, sign: int):
    """(common, acc): rows_a/den_a + sign*rows_b/den_b as nonzero rows over the lcm, unreduced.

    A scaled copy of a, plus b times the constant row sign*common/den_b, untruncated.
    """
    common = math.lcm(den_a, den_b)
    acc = _scaled(rows_a, common // den_a)
    return common, _mul_rows(rows_b, {0: (0, sign * (common // den_b), 0)}, INFINITE, acc)


def _mul_rows(rows_a: dict, rows_b: dict, bound: int, acc=None, scale: int = 1) -> dict:
    """`acc` plus `scale` times the product of two row maps, truncated past degree `bound`.

    The product is over the product of the operands' denominators; without
    `acc` it goes into a new map.  A key that cancels leaves.  The one loop
    is every merge that can cancel: each row of a, in a's order, meets the
    rows of b within its degree cap, in b's order.  A b of more than
    _FILTER_ROWS rows is filtered once per cap: a multivariate product
    wastes most of its pairs past the truncation.
    """
    if acc is None:
        acc = {}
    rows_b = rows_b.items()
    capped = {} if len(rows_b) > _FILTER_ROWS else None  # degree cap -> b's rows within it
    for ka, (dega, ar, ai) in rows_a.items():
        ar *= scale
        ai *= scale
        cap = bound - dega
        within = rows_b
        if capped is not None:
            within = capped.get(cap)
            if within is None:
                within = capped[cap] = [row for row in rows_b if row[1][0] <= cap]
        for kb, (degb, br, bi) in within:
            if degb > cap:
                continue
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


def sum_of_products(start, pairs):
    """start + the sum of x*y over the (x, y) pairs, skipping pairs with a zero factor.

    Every product goes into one sum over one running denominator, normalised
    once.  For a series `start` the pairs are series of its ring and the sum
    is one row map over the lcm of the denominators.  For an exact scalar the
    pairs are exact scalars and the sum is one Gaussian integer re + im*i
    over `common`, which grows by d/gcd(common, d) only when a pair's
    denominator d = x.d*y.d does not divide it.
    """
    if not isinstance(start, TruncatedSeries):
        re, im, common = start.a, start.b, start.d
        for x, y in pairs:
            xa, xb, ya, yb = x.a, x.b, y.a, y.b
            if (xa or xb) and (ya or yb):
                d = x.d * y.d
                if common % d:
                    lift = d // math.gcd(common, d)
                    common *= lift
                    re *= lift
                    im *= lift
                scale = common // d
                re += (xa * ya - xb * yb) * scale
                im += (xa * yb + xb * ya) * scale
        return _reduced(re, im, common)
    pairs = [(x, y) for x, y in pairs if x.rows and y.rows]
    common = math.lcm(start.den, *(x.den * y.den for x, y in pairs))
    acc = _scaled(start.rows, common // start.den)
    for x, y in pairs:
        _mul_rows(x.rows, y.rows, start.ring.truncation, acc, common // (x.den * y.den))
    return _from_ints(start.ring, acc, common)


def taylor_shift(coeffs, point):
    """Yield P^(j)(point)/j! for j = 0..n: the coefficients of P(X + point).

    `coeffs` are P's, low degree first: exact scalars with an exact `point`,
    or series of one ring with a `point` of that ring.  Repeated synthetic
    division by X - point, on integers (von zur Gathen and Gerhard, ISSAC
    1997): with point = w/q and the coefficients over one common
    denominator D, place k holds its value times D*q^(n-k), so a step
    s_k += s_(k+1)*w divides nothing.  Pass j leaves place j final and
    reduces it once; a caller that stops early skips the other passes.
    """
    if not coeffs:
        return
    n = len(coeffs) - 1
    dens = []  # dens[k] = D*q^(n-k)
    if isinstance(point, TruncatedSeries):
        ring, q, w = point.ring, point.den, point.rows
        scale = math.lcm(*[c.den for c in coeffs]) * q**n
        places = []
        for c in coeffs:
            dens.append(scale)
            places.append(_scaled(c.rows, scale // c.den))
            scale //= q
        for j in range(n + 1):
            for k in range(n - 1, j - 1, -1):
                # the point first: the package shifts by constants, at most
                # one row of a, so each step is one pass over the place's rows
                _mul_rows(w, places[k + 1], ring.truncation, places[k])
            yield _from_ints(ring, places[j], dens[j])
        return
    q, wr, wi = point.d, point.a, point.b
    scale = math.lcm(*[c.d for c in coeffs]) * q**n
    re, im = [], []
    for c in coeffs:
        dens.append(scale)
        re.append(c.a * (scale // c.d))
        im.append(c.b * (scale // c.d))
        scale //= q
    for j in range(n + 1):
        for k in range(n - 1, j - 1, -1):
            r, i = re[k + 1], im[k + 1]
            re[k] += r * wr - i * wi
            im[k] += r * wi + i * wr
        yield _reduced(re[j], im[j], dens[j])


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
# parser bounds what it builds by it, and `_check_bits` what is computed from
# parsed input and printed: PGCD remainders, characteristic polynomials, Goze
# levels and Newton-polygon coefficients.
MAX_POWER_BITS = 4096


def _bits_of(den: int, rows: dict) -> int:
    """ceil(log2 |n|) for the largest of `den` and the row parts n of `rows`."""
    largest = den
    for _, re, im in rows.values():
        # comparisons, not calls of max and abs: the parser sizes every value it builds
        if re > largest or -re > largest:
            largest = abs(re)
        if im > largest or -im > largest:
            largest = abs(im)
    return (largest - 1).bit_length()


def _check_bits(values, what: str) -> None:
    """Raise DomainError, "`what` passes ... bits", past MAX_POWER_BITS.

    That is, if one of the series or exact scalars `values` stores an integer
    of more bits: a series' denominator or a numerator over it, a scalar's
    a, b or d.  Each integer counts as stored, not as a fraction reduced by a gcd.
    """
    stored = (
        (v.den, v.rows) if isinstance(v, TruncatedSeries) else (v.d, {0: (0, v.a, v.b)})
        for v in values
    )
    if max((_bits_of(den, rows) for den, rows in stored), default=0) > MAX_POWER_BITS:
        raise DomainError(f"{what} passes {MAX_POWER_BITS} bits")


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


def _leading_ratios(pivot: TruncatedSeries, values) -> tuple[GaussianRational, ...]:
    """Each value's coefficient at the lowest-degree term of `pivot`, over pivot's there.

    The one first-order read: Goze directions, the first-order forms of a
    characteristic polynomial and the first-order slices of a transfer
    function.  `pivot` is nonzero with a single term of least total degree
    (a univariate series or a generator); `values` are series of its ring.
    """
    v = pivot.valuation()
    ((key, (_, re, im)),) = [(k, row) for k, row in pivot.rows.items() if row[0] == v]
    lead = _reduced(re, im, pivot.den)
    zero = GaussianRational(0)
    return tuple(
        zero if (row := value.rows.get(key)) is None else _reduced(row[1], row[2], value.den) / lead
        for value in values
    )


# -- grammar-compatible formatting --------------------------------------------------


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
            if len(coeff.rows) != 1:
                text = f"({format_series(coeff)})"
                chunks.append(("+", f"{text}*{monomial}" if monomial else text))
                continue
            ((index, scalar),) = _terms(coeff, coeff.rows.items())
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
    """The terms by total degree, then by exponent tuple: a packed key orders the tuples."""
    generators = series.ring.generators
    ordered = sorted(series.rows.items(), key=lambda item: (item[1][0], item[0]))
    return format_terms(
        (coeff, _monomial_text(generators, index)) for index, coeff in _terms(series, ordered)
    )
