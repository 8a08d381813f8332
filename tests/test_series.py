import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturbalg import (
    GaussianRational,
    NonUnitError,
    PerturbedPolynomial,
    RingMismatchError,
    SeriesRing,
    TruncatedSeries,
    classify,
    divide_univariate,
    univariate_ring,
)
from perturbalg.errors import DomainError
from perturbalg.scalars import _scalar_pieces
from perturbalg.series import (
    MAX_MONOMIALS,
    MAX_TRUNCATION,
    _FILTER_ROWS,
    _monomial_text,
    _mul_rows,
    _sum_rows,
    sum_of_products,
)

from conftest import (
    assert_round_trips,
    gaussian_scalars,
    gaussian_series,
    random_series,
    seeded,
)


def test_difference_of_squares(ring, t):
    assert (1 + t) * (1 - t) == 1 - t * t


def test_addition_cancels(ring, t):
    assert (2 + 3 * t) + ring.constant(-2) == 3 * t


def test_truncation_boundary(ring, t):
    assert (t ** ring.truncation) * t == ring.zero()


def test_ring_budget():
    assert SeriesRing(("t",), MAX_TRUNCATION).truncation == MAX_TRUNCATION
    with pytest.raises(DomainError, match="ring budget exceeded"):
        SeriesRing(("t",), MAX_TRUNCATION + 1)
    for width in range(2, 11):
        generators = tuple(f"e{k}" for k in range(width))
        largest = max(
            t for t in range(1, MAX_TRUNCATION + 1)
            if math.comb(width + t, width) <= MAX_MONOMIALS
        )
        assert SeriesRing(generators, largest).truncation == largest
        with pytest.raises(DomainError, match=f"{math.comb(width + largest + 1, width)} monomials"):
            SeriesRing(generators, largest + 1)
    # the rings of the tests, the README and the benchmark workloads fit
    SeriesRing(("t",), 12)
    SeriesRing(("e1", "e2", "e3"), 8)
    SeriesRing(("t", "e1", "e2", "e3"), 8)


def test_incompatible_rings_rejected(ring, t):
    other = SeriesRing(("t",), 4)
    with pytest.raises(RingMismatchError):
        t + other.generator("t")
    with pytest.raises(RingMismatchError):
        t * SeriesRing(("t", "e1"), 8).generator("t")


def test_valuation(ring, t):
    assert (t**2 + t**3).valuation() == 2
    assert ring.constant(5).valuation() == 0
    assert ring.zero().valuation() == math.inf


def test_invert_constant(ring):
    assert ring.constant(2).invert() == ring.constant(Fraction(1, 2))


def test_invert_geometric(ring, t):
    expected = ring.zero()
    for k in range(ring.truncation + 1):
        expected = expected + t**k
    assert (1 - t).invert() == expected


def test_invert_non_unit(ring, t):
    with pytest.raises(NonUnitError):
        t.invert()


def test_standard_part(ring, t):
    assert (2 + 3 * t).standard_part() == GaussianRational(2)
    assert (t * t).standard_part() == GaussianRational(0)
    assert (1 - t).invert().standard_part() == GaussianRational(1)


def test_classify(ring, t):
    assert classify(t) == "infinitesimal"
    assert classify(1 + t) == "appreciable"
    assert classify(ring.zero()) == "zero"


def test_power_product_count(ring, t, monkeypatch):
    # square-and-multiply squares only up to the top bit and never starts
    # from one times the base
    count = 0
    multiply = TruncatedSeries.__mul__

    def counted(a, b):
        nonlocal count
        count += 1
        return multiply(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    for exponent, products in ((0, 0), (1, 0), (2, 1), (3, 2), (8, 3)):
        count = 0
        power = (1 + t) ** exponent
        assert count == products
        expected = ring.one()
        for _ in range(exponent):
            expected = expected * (1 + t)
        assert power == expected


def test_specialize(ring, t):
    multi = SeriesRing(("e1", "e2"), 8)
    e1, e2 = multi.generator("e1"), multi.generator("e2")
    assert (e1 + e2).specialize({"e1": t, "e2": t**2}) == t + t**2
    assert (e1 * e2).specialize({"e1": t, "e2": 3 * t}) == 3 * t**2
    with pytest.raises(DomainError):
        e1.specialize({"e1": 1 + t, "e2": t})
    with pytest.raises(DomainError):
        e1.specialize({"e2": t})


def test_numeric_sample(ring, t):
    assert (1 + t).numeric_sample(0.01) == pytest.approx(1.01)
    assert (t * t).numeric_sample(1e-3) == pytest.approx(1e-6)
    assert ring.zero().numeric_sample(0.5) == 0
    multi = SeriesRing(("e1", "e2"), 8)
    value = (multi.generator("e1") * multi.generator("e2")).numeric_sample(
        {"e1": 0.1, "e2": 0.2}
    )
    assert value == pytest.approx(0.02)


def test_ring_laws_random():
    rng = seeded(11)
    ring = SeriesRing(("t", "e1"), 5)
    for _ in range(100):
        a = random_series(rng, ring)
        b = random_series(rng, ring)
        c = random_series(rng, ring)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_multiplicative_valuation():
    rng = seeded(12)
    ring = univariate_ring(8)
    checked = 0
    while checked < 60:
        a = random_series(rng, ring, max_degree=4)
        b = random_series(rng, ring, max_degree=4)
        if a.is_zero() or b.is_zero():
            continue
        if a.valuation() + b.valuation() > ring.truncation:
            continue
        assert (a * b).valuation() == a.valuation() + b.valuation()
        checked += 1


# units over two generators at T=6: a series whose constant term is replaced
# by a nonzero Gaussian rational
_units = st.tuples(
    gaussian_series(SeriesRing(("t", "e1"), 6)), gaussian_scalars.filter(bool)
).map(lambda pair: pair[0] + (pair[1] - pair[0].standard_part()))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_units)
def test_invert_round_trip(unit):
    assert unit * unit.invert() == unit.ring.one()


# rings of 1 to 3 generators at T = 1..8, every one within MAX_MONOMIALS
INVERT_RINGS = tuple(
    SeriesRing(generators, bound)
    for generators in (("t",), ("e1", "e2"), ("e1", "e2", "e3"))
    for bound in range(1, 9)
)
MERSENNE_61 = 2**61 - 1
# parts over small denominators or over the prime 2^61 - 1
_unit_parts = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.integers(-9, 9).map(lambda n: Fraction(n, MERSENNE_61)),
)
_unit_coefficients = st.builds(GaussianRational, _unit_parts, _unit_parts)


@st.composite
def units_and_multipliers(draw):
    """(unit, a): a unit with a nonzero, often non-real, constant term, and a series a."""
    ring = draw(st.sampled_from(INVERT_RINGS))
    width, bound = len(ring.generators), ring.truncation

    def terms(lowest):
        exponents = st.tuples(*[st.integers(0, bound)] * width).filter(
            lambda index: lowest <= sum(index) <= bound
        )
        return draw(st.dictionaries(exponents, _unit_coefficients, max_size=8))

    constant = draw(_unit_coefficients.filter(bool))
    unit = TruncatedSeries(ring, {**terms(1), (0,) * width: constant})
    return unit, TruncatedSeries(ring, terms(0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(units_and_multipliers())
def test_invert_and_divide_match_the_references(case):
    unit, a = case
    ring = unit.ring
    inverse = unit.invert()
    assert unit * inverse == 1
    assert inverse.terms == reference_invert(ring, unit.terms)
    assert_ascending_degrees(inverse)
    assert_stored_form(inverse)
    tail = unit - unit.standard_part()
    with pytest.raises(NonUnitError, match="^series with zero constant term has no inverse$"):
        tail.invert()
    if not ring.is_univariate:
        return
    assert divide_univariate(a * unit, unit) == a
    if tail:
        with pytest.raises(
            NonUnitError, match="^the quotient has a negative power of the generator$"
        ):
            divide_univariate(unit, tail)


def test_standard_part_is_ring_hom():
    rng = seeded(14)
    ring = univariate_ring(8)
    for _ in range(50):
        a = random_series(rng, ring)
        b = random_series(rng, ring)
        assert (a + b).standard_part() == a.standard_part() + b.standard_part()
        assert (a * b).standard_part() == a.standard_part() * b.standard_part()


def test_reciprocal_is_a_series_unless_infinitesimal():
    rng = seeded(15)
    ring = univariate_ring(8)
    for _ in range(40):
        x = random_series(rng, ring)
        if x.is_zero():
            continue
        try:
            divide_univariate(ring.one(), x)
        except NonUnitError:
            assert classify(x) == "infinitesimal"
        else:
            assert classify(x) == "appreciable"


def test_divide_univariate(ring, t):
    assert divide_univariate(3 * t**2, t + 2 * t**2) * (t + 2 * t**2) == 3 * t**2
    assert divide_univariate(ring.zero(), t) == ring.zero()
    with pytest.raises(NonUnitError):
        divide_univariate(t, t**2)  # quotient would be infinitely large


class ReferenceLaurent:
    """t^shift * body with a unit body: the Laurent scalar division once went through."""

    def __init__(self, shift, body):
        if not body.ring.is_univariate:
            raise DomainError("Laurent scalars exist only over a univariate ring")
        if body.is_zero():
            shift = 0
        elif body.valuation():
            v = body.valuation()
            body, shift = reference_shift(body, -v), shift + v
        self.shift, self.body = shift, body

    def invert(self):
        if self.body.is_zero():
            raise ZeroDivisionError("zero has no Laurent inverse")
        return ReferenceLaurent(-self.shift, self.body.invert())

    def __mul__(self, other):
        return ReferenceLaurent(self.shift + other.shift, self.body * other.body)

    def to_series(self):
        if self.body.is_zero():
            return self.body
        if self.shift < 0:
            raise NonUnitError("negative Laurent shift is not a series")
        return reference_shift(self.body, self.shift)


def reference_shift(series, amount):
    bound = series.ring.truncation
    return TruncatedSeries(
        series.ring,
        {(e + amount,): c for (e,), c in series.terms.items() if e + amount <= bound},
    )


def reference_divide(num, den):
    if den.is_zero():
        raise ZeroDivisionError("division by the zero series")
    if num.is_zero():
        return num
    return (ReferenceLaurent(0, num) * ReferenceLaurent(0, den).invert()).to_series()


def outcome(call):
    try:
        series = call()
    except (ZeroDivisionError, NonUnitError, DomainError) as exc:
        return type(exc)
    return series, series.den, list(series.rows.items())


def test_divide_univariate_matches_laurent_reference():
    rng = seeded(18)
    for ring in (univariate_ring(8), univariate_ring(3)):
        for _ in range(150):
            num, den = (
                ring.zero()
                if rng.random() < 0.1
                else random_series(rng, ring, min_valuation=rng.randint(0, 3))
                for _ in range(2)
            )
            expected = outcome(lambda: reference_divide(num, den))
            assert outcome(lambda: divide_univariate(num, den)) == expected
    multi = SeriesRing(("e1", "e2"), 4)
    e1 = multi.generator("e1")
    for num, den in ((e1, e1), (1 + e1, e1), (multi.zero(), e1), (e1, multi.zero())):
        expected = outcome(lambda: reference_divide(num, den))
        assert outcome(lambda: divide_univariate(num, den)) == expected


def test_constant_series_hash_agrees_with_equality(ring, t):
    multi = SeriesRing(("e1", "e2"), 4)
    for value in (0, 1, Fraction(-5, 2)):
        for series_ring in (ring, multi):
            members = {series_ring.constant(value), GaussianRational(value), value, Fraction(value)}
            assert len(members) == 1
    z = GaussianRational(1, 2)
    assert len({ring.constant(z), z}) == 1
    assert len({1 + t, t + 1}) == 1
    # constants of two rings equal the int they hold, so they equal each other
    assert len({univariate_ring(8).constant(1), SeriesRing(("e1", "e2"), 4).constant(1), 1}) == 1
    assert ring.constant(2) != multi.constant(3)
    assert t != SeriesRing(("t",), 4).generator("t")
    assert 1 + t != multi.constant(1)


# -- integer kernel against the GaussianRational pair loop ----------------------------
#
# The reference functions below are the term loops the ring operations ran
# before they moved onto integers.  They take and return term dicts, and the
# checks compare both the coefficients and the order of the terms, the order
# the kernel's one merge loop leaves.  No value reads that order: multivariate
# `numeric_sample` sums in packed-key order
# (test_numeric_sample_ignores_row_order).  `invert` builds its rows one total
# degree at a time, so its check compares the coefficients with the
# reference's geometric series, and the order with ascending total degree.


def reference_add(a: dict, b: dict) -> dict:
    terms = dict(a)
    for index, coeff in b.items():
        total = terms.get(index, 0) + coeff
        if total:
            terms[index] = total
        else:
            terms.pop(index, None)
    return terms


def reference_neg(a: dict) -> dict:
    return {index: -coeff for index, coeff in a.items()}


def reference_sub(a: dict, b: dict) -> dict:
    return reference_add(a, reference_neg(b))


def reference_mul(a: dict, b: dict, bound: int) -> dict:
    terms: dict = {}
    for ia, ca in a.items():
        da = sum(ia)
        for ib, cb in b.items():
            if da + sum(ib) > bound:
                continue
            index = tuple(x + y for x, y in zip(ia, ib))
            total = terms.get(index, 0) + ca * cb
            if total:
                terms[index] = total
            else:
                terms.pop(index, None)
    return terms


def reference_constant(ring, value) -> dict:
    value = GaussianRational.coerce(value)
    return {(0,) * len(ring.generators): value} if value else {}


def reference_invert(ring, a: dict) -> dict:
    one = reference_constant(ring, 1)
    c0_inv = reference_constant(ring, GaussianRational(1) / a[(0,) * len(ring.generators)])
    tail = reference_sub(reference_mul(a, c0_inv, ring.truncation), one)
    acc, power = one, one
    for _ in range(ring.truncation):
        power = reference_mul(power, reference_neg(tail), ring.truncation)
        if not power:
            break
        acc = reference_add(acc, power)
    return reference_mul(acc, c0_inv, ring.truncation)


def reference_pow(ring, a: dict, exponent: int) -> dict:
    result, base = reference_constant(ring, 1), a
    while exponent:
        if exponent & 1:
            result = reference_mul(result, base, ring.truncation)
        base = reference_mul(base, base, ring.truncation)
        exponent >>= 1
    return result


def random_gaussian(rng):
    """Gaussian rational with unlike denominators; about a third are real."""
    im = Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.7 else 0
    return GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 12)), im)


def random_gaussian_series(rng, ring):
    width = len(ring.generators)
    terms = {}
    for _ in range(rng.randint(0, 12)):
        index = tuple(rng.randint(0, ring.truncation) for _ in range(width))
        if sum(index) <= ring.truncation:
            terms[index] = random_gaussian(rng)
    return TruncatedSeries(ring, terms)


def assert_same_terms(series, expected: dict):
    assert list(series.terms.items()) == list(expected.items())


def assert_ascending_degrees(series):
    degrees = [degree for degree, _, _ in series.rows.values()]
    assert degrees == sorted(degrees)


KERNEL_RINGS = (univariate_ring(8), SeriesRing(("e1", "e2", "e3"), 6))


@pytest.mark.parametrize("kernel_ring", KERNEL_RINGS, ids=("t@8", "e1e2e3@6"))
def test_kernel_matches_reference_loop(kernel_ring):
    ring = kernel_ring
    rng = seeded(16)
    bound = ring.truncation
    for _ in range(120):
        a = random_gaussian_series(rng, ring)
        b = random_gaussian_series(rng, ring)
        if rng.random() < 0.3:
            # share terms with a, so that some cancel exactly
            b = b - a.leading_part() if rng.random() < 0.5 else -a + b * b
        assert_same_terms(a + b, reference_add(a.terms, b.terms))
        assert_same_terms(a - b, reference_sub(a.terms, b.terms))
        assert_same_terms(-a, reference_neg(a.terms))
        assert_same_terms(a * b, reference_mul(a.terms, b.terms, bound))
        assert_same_terms(b * a, reference_mul(b.terms, a.terms, bound))
        assert (a - a).is_zero() and (a + (-a)).is_zero()
        for scalar in (0, 3, Fraction(-2, 7), random_gaussian(rng)):
            c = reference_constant(ring, scalar)
            assert_same_terms(a + scalar, reference_add(a.terms, c))
            assert_same_terms(scalar + a, reference_add(a.terms, c))
            assert_same_terms(a - scalar, reference_sub(a.terms, c))
            assert_same_terms(scalar - a, reference_sub(c, a.terms))
            assert_same_terms(a * scalar, reference_mul(a.terms, c, bound))
            assert_same_terms(scalar * a, reference_mul(a.terms, c, bound))
        exponent = rng.randint(0, 4)
        assert_same_terms(a**exponent, reference_pow(ring, a.terms, exponent))
        unit = a + (random_gaussian(rng) or 1) - a.standard_part()
        if unit.is_unit():
            inverse = unit.invert()
            assert inverse.terms == reference_invert(ring, unit.terms)
            assert_ascending_degrees(inverse)


def test_kernel_term_order_after_cancellation(ring, t):
    # the t^2 coefficient cancels midway and comes back with the last pair,
    # so it is the last term, after t^4
    a = ring.one() + t + t**2
    b = TruncatedSeries(ring, {(2,): 1, (1,): -1, (0,): 1})
    product = a * b
    assert product == 1 + t**2 + t**4
    assert list(product.terms) == [(0,), (4,), (2,)]
    assert_same_terms(product, reference_mul(a.terms, b.terms, ring.truncation))


@pytest.mark.parametrize("kernel_ring", KERNEL_RINGS, ids=("t@8", "e1e2e3@6"))
def test_kernel_zero_series(kernel_ring):
    ring = kernel_ring
    rng = seeded(17)
    zero = ring.zero()
    for _ in range(10):
        a = random_gaussian_series(rng, ring)
        assert (a * zero).is_zero() and (zero * a).is_zero()
        assert_same_terms(a + zero, a.terms)
        assert_same_terms(zero - a, reference_neg(a.terms))
    assert (-zero).is_zero() and (zero * zero).is_zero() and (zero + zero).is_zero()
    assert zero**0 == 1 and (zero**3).is_zero()


# -- the row kernel on the parser's rows ---------------------------------------------
#
# The parser keys a row by x*top + k: the degree x in the indeterminate is one
# more digit above the packed exponent k of the generators, and the row's
# degree is k's total degree alone.


def parser_rows(rng, bound, width=2):
    """Random nonzero rows keyed x*top + k, x <= 3, with top = (bound + 1)^width."""
    base = bound + 1
    top = base**width
    rows = {}
    for _ in range(rng.randint(0, 9)):
        index = [rng.randint(0, bound) for _ in range(width)]
        if sum(index) > bound:
            continue
        k = 0
        for exponent in index:
            k = k * base + exponent
        re, im = rng.randint(-9, 9), (rng.randint(-9, 9) if rng.random() < 0.6 else 0)
        if re or im:
            rows[rng.randint(0, 3) * top + k] = (sum(index), re, im)
    return rows


def reference_sum_rows(den_a, rows_a, den_b, rows_b, sign) -> dict:
    """rows_a/den_a + sign*rows_b/den_b as Fraction rows, merged into a copy of a."""
    rows = {key: (d, Fraction(re, den_a), Fraction(im, den_a)) for key, (d, re, im) in rows_a.items()}
    for key, (d, re, im) in rows_b.items():
        _, old_re, old_im = rows.get(key, (d, 0, 0))
        re, im = old_re + sign * Fraction(re, den_b), old_im + sign * Fraction(im, den_b)
        if re or im:
            rows[key] = (d, re, im)
        else:
            rows.pop(key, None)
    return rows


def test_sum_rows_on_parser_rows():
    rng = seeded(35)
    bound = 4
    partial = 0
    for _ in range(300):
        den_a, rows_a = rng.randint(1, 12), parser_rows(rng, bound)
        den_b, rows_b = rng.randint(1, 12), parser_rows(rng, bound)
        sign = rng.choice((1, -1))
        if rng.random() < 0.4:
            # b cancels some rows of a: a/den_a + sign*(-sign*r*a)/(r*den_a) = 0
            r = rng.randint(1, 3)
            den_b = r * den_a
            for key, (d, re, im) in rows_a.items():
                if rng.random() < 0.5:
                    rows_b[key] = (d, -sign * r * re, -sign * r * im)
        expected = reference_sum_rows(den_a, rows_a, den_b, rows_b, sign)
        common, acc = _sum_rows(den_a, rows_a, den_b, rows_b, sign)
        assert common == math.lcm(den_a, den_b)
        assert list(acc.items()) == [
            (key, (d, re * common, im * common)) for key, (d, re, im) in expected.items()
        ]
        partial += 0 < len(acc) < len(rows_a.keys() | rows_b.keys())
        # a - a, over equal or unequal denominators, has no rows
        assert _sum_rows(den_a, rows_a, den_a, rows_a, -1) == (den_a, {})
        doubled = {key: (d, 2 * re, 2 * im) for key, (d, re, im) in rows_a.items()}
        assert _sum_rows(den_a, rows_a, 2 * den_a, doubled, -1) == (2 * den_a, {})
    assert partial > 20


def reference_times_term(rows, key, degree, re, im, bound) -> dict:
    """`rows` times the one row (key, degree, re, im), truncated past degree `bound`.

    Distinct keys stay distinct and a product of nonzero Gaussian integers is
    nonzero, so no row cancels.
    """
    cap = bound - degree
    return {
        k + key: (d + degree, r * re - i * im, r * im + i * re)
        for k, (d, r, i) in rows.items()
        if d <= cap
    }


def test_one_row_product_without_acc():
    rng = seeded(36)
    bound = 4
    truncated = 0
    for _ in range(300):
        rows = parser_rows(rng, bound)
        one = {}
        while not one:
            one = dict(list(parser_rows(rng, bound).items())[:1])
        ((key, row),) = one.items()
        expected = reference_times_term(rows, key, *row, bound)
        assert list(_mul_rows(rows, one, bound).items()) == list(expected.items())
        assert list(_mul_rows(one, rows, bound).items()) == list(expected.items())
        truncated += len(expected) < len(rows)
    assert truncated > 20


def reference_mul_rows(rows_a, rows_b, bound, acc, scale) -> dict:
    """A copy of `acc` plus `scale` times each pair of rows within `bound`, a's rows outer."""
    acc = dict(acc)
    for ka, (da, ar, ai) in rows_a.items():
        for kb, (db, br, bi) in rows_b.items():
            if da + db > bound:
                continue
            key = ka + kb
            d, re, im = acc.get(key, (da + db, 0, 0))
            re += scale * (ar * br - ai * bi)
            im += scale * (ar * bi + ai * br)
            if re or im:
                acc[key] = (d, re, im)
            else:
                acc.pop(key)
    return acc


def sized_rows(rng, keys, size) -> dict:
    """`size` nonzero rows at distinct keys drawn from the (key, degree) pairs `keys`."""
    rows = {}
    for key, degree in rng.sample(keys, size):
        re, im = rng.randint(-9, 9), (rng.randint(-9, 9) if rng.random() < 0.6 else 0)
        rows[key] = (degree, re or 1, im)
    return rows


def packed_keys(bound, width, digits):
    """(key, degree) of each exponent of total degree <= bound in `width` generators,
    under each of `digits` values of the parser's digit for the indeterminate."""
    base = bound + 1
    return [
        (x * base**width + k, sum(index))
        for x in range(digits)
        for k, index in enumerate(itertools.product(range(base), repeat=width))
        if sum(index) <= bound
    ]


# univariate keys at T=8 (36 with the parser's digit) and three generators at T=4 (35)
@pytest.mark.parametrize("bound, width, digits", ((8, 1, 4), (4, 3, 1)), ids=("t@8", "e1e2e3@4"))
def test_mul_rows_matches_double_loop(bound, width, digits):
    rng = seeded(37)
    keys = packed_keys(bound, width, digits)
    sizes = sorted({0, 1, 2, 8, 9, 20, _FILTER_ROWS, _FILTER_ROWS + 1})
    cancelled = 0
    for size_a, size_b in itertools.product(sizes, repeat=2):
        for scale in (1, -2, 3):
            rows_a, rows_b = sized_rows(rng, keys, size_a), sized_rows(rng, keys, size_b)
            product = reference_mul_rows(rows_a, rows_b, bound, {}, scale)
            # acc cancels some of the product's rows and holds rows of its own
            acc = sized_rows(rng, keys, rng.randint(0, 6))
            for key, (d, re, im) in product.items():
                if rng.random() < 0.4:
                    acc[key] = (d, -re, -im)
            for a, b in ((rows_a, rows_b), (rows_b, rows_a)):
                expected = reference_mul_rows(a, b, bound, acc, scale)
                filled = dict(acc)
                assert _mul_rows(a, b, bound, filled, scale) is filled
                assert list(filled.items()) == list(expected.items())
                cancelled += len(expected) < len(acc.keys() | product.keys())
    assert cancelled > 50


# -- the stored form: rows over one denominator, and the terms view -------------------


def decode_rows(series) -> dict:
    """The terms the stored rows stand for, decoded here independently of the package."""
    ring = series.ring
    base = ring.truncation + 1
    terms = {}
    for key, (degree, re, im) in series.rows.items():
        digits = []
        for _ in ring.generators:
            key, digit = divmod(key, base)
            digits.append(digit)
        assert key == 0
        index = tuple(reversed(digits))
        assert degree == sum(index)
        terms[index] = GaussianRational(Fraction(re, series.den), Fraction(im, series.den))
    return terms


def assert_stored_form(series):
    numerators = [part for _, re, im in series.rows.values() for part in (re, im)]
    assert series.den >= 1
    assert math.gcd(series.den, *numerators) == 1  # canonical, and D = 1 for zero
    assert all(re or im for _, re, im in series.rows.values())
    assert list(decode_rows(series).items()) == list(series.terms.items())
    rebuilt = TruncatedSeries(series.ring, series.terms)
    assert (rebuilt.den, rebuilt.rows) == (series.den, series.rows)
    assert list(rebuilt.terms) == list(series.terms)
    assert rebuilt == series and hash(rebuilt) == hash(series)


coefficients = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(
        GaussianRational,
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
    ),
)


@st.composite
def series_pairs(draw):
    ring = draw(st.sampled_from(KERNEL_RINGS))
    width, bound = len(ring.generators), ring.truncation

    def one():
        exponents = st.tuples(*[st.integers(0, bound)] * width)
        return TruncatedSeries(ring, draw(st.dictionaries(exponents, coefficients, max_size=8)))

    return ring, one(), one()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(series_pairs(), coefficients)
def test_stored_form_matches_terms(pair, scalar):
    ring, a, b = pair
    bound = ring.truncation
    assert_stored_form(a)
    assert_stored_form(b)
    results = [
        (a + b, reference_add(a.terms, b.terms)),
        (a - b, reference_sub(a.terms, b.terms)),
        (-a, reference_neg(a.terms)),
        (a * b, reference_mul(a.terms, b.terms, bound)),
        (a * scalar, reference_mul(a.terms, reference_constant(ring, scalar), bound)),
        (a * a, reference_mul(a.terms, a.terms, bound)),
    ]
    for series, expected in results:
        assert_stored_form(series)
        assert_same_terms(series, expected)
    lead = a.leading_part()
    assert_stored_form(lead)
    assert lead == TruncatedSeries(
        ring, {i: c for i, c in a.terms.items() if sum(i) == a.valuation()}
    )
    # a constant hashes like its coefficient, whichever way it was built
    constant = a - a + scalar
    assert constant == scalar and hash(constant) == hash(GaussianRational.coerce(scalar))


@st.composite
def product_sums(draw):
    """A start series and (x, y) pairs, some cancelling a pair or the start."""
    ring = draw(st.sampled_from(KERNEL_RINGS))
    width, bound = len(ring.generators), ring.truncation

    def one():
        exponents = st.tuples(*[st.integers(0, bound)] * width)
        return TruncatedSeries(ring, draw(st.dictionaries(exponents, coefficients, max_size=6)))

    start, pairs = one(), []
    for _ in range(draw(st.integers(0, 5))):
        x, y = one(), one()
        pairs.append((x, y))
        if draw(st.booleans()):
            pairs.append((-x, y))
        if draw(st.booleans()):
            start = start - x * y
    return start, pairs


@settings(max_examples=80, deadline=None, derandomize=True)
@given(product_sums())
def test_sum_of_products_matches_the_loop(case):
    start, pairs = case
    total = start
    for x, y in pairs:
        total = total + x * y
    result = sum_of_products(start, pairs)
    assert result == total and str(result) == str(total)
    assert_stored_form(result)


def test_sum_of_products_row_order(ring, t):
    # the product's first t cancels the start's and its second comes back at
    # the end; a loop of sums adds (1 + t)^2 = 1 + 2*t + t^2 in one piece
    start = -t + 5
    pairs = [(1 + t, t + 1)]
    total = start + (1 + t) * (t + 1)
    result = sum_of_products(start, pairs)
    assert result == total == 6 + t + t**2
    assert list(total.terms) == [(1,), (0,), (2,)]
    assert list(result.terms) == [(0,), (2,), (1,)]
    assert sum_of_products(start, []) == start


# exact scalars over equal, coprime and large denominators; zero and
# pure-imaginary values are drawn on purpose
_denominators = st.sampled_from([1, 1, 2, 6, 6, 7, 11, 12, 35, 2**61 - 1])
_exact_parts = st.builds(Fraction, st.integers(-9, 9), _denominators)
_exact_values = st.one_of(
    st.just(GaussianRational(0)),
    st.builds(GaussianRational, _exact_parts, _exact_parts),
    st.builds(GaussianRational, st.just(0), _exact_parts),
)


def _gaussian_fractions(z):
    return Fraction(z.a, z.d), Fraction(z.b, z.d)


@st.composite
def exact_product_sums(draw):
    """A start scalar and (x, y) pairs; some pairs cancel, and some sums cancel to zero."""
    start = draw(_exact_values)
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        x, y = draw(_exact_values), draw(_exact_values)
        pairs.append((x, y))
        if draw(st.booleans()):
            pairs.append((-x, y))
    if draw(st.booleans()):
        start = -sum((x * y for x, y in pairs), GaussianRational(0))
    return start, pairs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(exact_product_sums())
def test_exact_sum_of_products_matches_fractions(case):
    start, pairs = case
    re, im = _gaussian_fractions(start)
    for x, y in pairs:
        (xr, xi), (yr, yi) = _gaussian_fractions(x), _gaussian_fractions(y)
        re += xr * yr - xi * yi
        im += xr * yi + xi * yr
    result = sum_of_products(start, pairs)
    assert type(result) is GaussianRational
    assert _gaussian_fractions(result) == (re, im)
    # canonical: d > 0 and gcd(a, b, d) = 1, so zero is (0, 0, 1)
    assert result.d > 0 and math.gcd(result.a, result.b, result.d) == 1
    if not (re or im):
        assert (result.a, result.b, result.d) == (0, 0, 1)


def test_exact_sum_of_products_edge_cases():
    half, third = GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(1, 3))
    i_sixth = GaussianRational(0, Fraction(1, 6))
    # a sum that cancels to zero over a running denominator of 36
    assert sum_of_products(GaussianRational(0), [(half, third), (-third, half)]) == 0
    zero = sum_of_products(GaussianRational(Fraction(-1, 6)), [(half, third)])
    assert (zero.a, zero.b, zero.d) == (0, 0, 1)
    # zero factors are skipped, whatever the other factor's denominator
    assert sum_of_products(half, [(GaussianRational(0), i_sixth), (third, 0 * i_sixth)]) == half
    # pure imaginary: i/6 * i/6 = -1/36, and 1/2 + (-1/36) = 17/36
    total = sum_of_products(half, [(i_sixth, i_sixth)])
    assert (total.a, total.b, total.d) == (17, 0, 36)
    # equal denominators need no lift, and the result is reduced: 3 * (1/2 * 1/2) = 3/4
    total = sum_of_products(GaussianRational(0), [(half, half)] * 3)
    assert (total.a, total.b, total.d) == (3, 0, 4)
    assert sum_of_products(third, []) == third


def test_char_poly_of_rational_matrices_matches_sympy():
    import sympy

    from perturbalg import ConstantMatrix
    from perturbalg.matrices import char_poly

    def exact(z):
        return sympy.Rational(z.a, z.d) + sympy.I * sympy.Rational(z.b, z.d)

    primes = [p for p in range(2, 400) if all(p % q for q in range(2, p))]
    rng = seeded(37)
    x = sympy.Symbol("X")
    for n in range(1, 6):
        # a distinct prime denominator in each entry; some entries are Gaussian
        denominators = iter(rng.sample(primes, 2 * n * n))
        matrix = ConstantMatrix(
            [
                [
                    GaussianRational(
                        Fraction(rng.randint(-9, 9), next(denominators)),
                        Fraction(rng.choice([0, 0, rng.randint(-9, 9)]), next(denominators)),
                    )
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
        )
        reference = sympy.Matrix([[exact(z) for z in row] for row in matrix.rows])
        expected = reference.charpoly(x).all_coeffs()[::-1]
        got = char_poly(matrix).coeffs
        assert len(got) == len(expected) == n + 1
        assert all(sympy.expand(exact(a) - b) == 0 for a, b in zip(got, expected))


def test_numeric_sample_ignores_row_order():
    # start + x*y in one row map and as a loop of sums: the product's t cancels
    # the start's, so the two store their rows in different orders; summed in
    # row order, their floats differed in the last digit
    ring = SeriesRing(("t", "e1"), 3)
    t, e1 = ring.generator("t"), ring.generator("e1")
    start = Fraction(1, 3) - Fraction(3, 2) * t - 2 * t * e1
    x, y = 1 + t + 5 * e1, 1 + t / 2 + 2 * e1
    one_map, loop = sum_of_products(start, [(x, y)]), start + x * y
    assert one_map == loop
    assert list(one_map.rows) != list(loop.rows)
    point = {"t": 0.1, "e1": 0.3}
    assert repr(one_map.numeric_sample(point)) == repr(loop.numeric_sample(point))


def test_invert_of_a_pickled_copy(ring, t):
    unit = 2 + t - 3 * t**2
    assert unit * unit.invert() == 1
    copied = pickle.loads(pickle.dumps(unit))
    assert copied.invert() == unit.invert()


def test_terms_is_a_read_only_view(ring, t):
    product = (1 + t) * (1 - 2 * t)
    assert product.terms == product.terms
    with pytest.raises(AttributeError):
        product.terms = {}


def reference_format_terms(pairs):
    """The term printer over `terms`: a single-term series coefficient folds into the monomial."""
    chunks = []
    for coeff, monomial in pairs:
        if isinstance(coeff, TruncatedSeries):
            if len(coeff.terms) != 1:
                text = f"({reference_format_series(coeff)})"
                chunks.append(("+", f"{text}*{monomial}" if monomial else text))
                continue
            ((index, scalar),) = coeff.terms.items()
            inner = _monomial_text(coeff.ring.generators, index)
            monomial = "*".join(part for part in (inner, monomial) if part)
            coeff = scalar
        sign, factor = _scalar_pieces(coeff, with_monomial=bool(monomial))
        body = f"{factor}*{monomial}" if monomial and factor else monomial or factor or "1"
        chunks.append((sign, body))
    if not chunks:
        return "0"
    text = ("-" if chunks[0][0] == "-" else "") + chunks[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in chunks[1:])


def reference_format_series(series):
    """The terms of `series` sorted by (total degree, exponent tuple)."""
    ordered = sorted(series.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    return reference_format_terms(
        (coeff, _monomial_text(series.ring.generators, index)) for index, coeff in ordered
    )


PRINTED_RINGS = [univariate_ring(8), SeriesRing(("e1", "e2"), 3), SeriesRing(("e1", "e2", "e3"), 4)]


def printed_coefficients(ring):
    """Strategy: a series of up to 6 terms, zero, or one term (which prints folded)."""
    bound = ring.truncation
    exponents = st.tuples(*[st.integers(0, bound)] * len(ring.generators)).filter(
        lambda index: sum(index) <= bound
    )
    return st.one_of(
        gaussian_series(ring),
        st.just(ring.zero()),
        st.builds(lambda index, c: TruncatedSeries(ring, {index: c}), exponents, gaussian_scalars),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_str_matches_the_terms_printer(data):
    # str prints from the rows, sorted by (degree, packed key); a packed key
    # orders exponent tuples as the tuples do
    ring = data.draw(st.sampled_from(PRINTED_RINGS))
    value = data.draw(printed_coefficients(ring))
    assert str(value) == reference_format_series(value)
    poly = PerturbedPolynomial(ring, data.draw(st.lists(printed_coefficients(ring), max_size=4)))
    assert str(poly) == reference_format_terms(
        (poly.coeffs[degree], _monomial_text(("X",), (degree,)))
        for degree in range(poly.degree, -1, -1)
        if poly.coeffs[degree]
    )


def test_series_pickle_and_copy(ring, t):
    multi = SeriesRing(("e1", "e2"), 3)
    for series in (
        ring.zero(),
        ring.one(),
        (1 + t) ** 3 * Fraction(1, 7),
        multi.generator("e2") * GaussianRational(0, 2) + Fraction(1, 3),
    ):
        assert_round_trips(series)
        assert list(pickle.loads(pickle.dumps(series)).terms) == list(series.terms)
