from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perturbalg import (
    GaussianRational,
    SeriesRing,
    TruncatedSeries,
    decompose,
    goze,
    univariate_ring,
)
from perturbalg.errors import DomainError
from perturbalg.goze import rank_of_rows, row_reduce

from conftest import random_infinitesimal, seeded


def test_two_scales(ring, t):
    result = decompose([t, t**2])
    assert [(a, list(u)) for a, u in result.levels] == [
        (t, [GaussianRational(1), GaussianRational(0)]),
        (t, [GaussianRational(0), GaussianRational(1)]),
    ]
    assert result.rank() == 2
    assert result.reconstruct() == [t, t**2]


def test_nontrivial_alpha_chain(ring, t):
    result = decompose([t + 2 * t**2, 3 * t**2])
    alpha1, u1 = result.levels[0]
    alpha2, u2 = result.levels[1]
    assert alpha1 == t + 2 * t**2
    assert list(u1) == [GaussianRational(1), GaussianRational(0)]
    assert alpha2 == divide_univariate_expansion(ring, t)
    assert list(u2) == [GaussianRational(0), GaussianRational(1)]
    assert alpha1 * alpha2 == 3 * t**2
    assert result.reconstruct() == [t + 2 * t**2, 3 * t**2]


def divide_univariate_expansion(ring, t):
    # 3t * (1 + 2t)^-1, the expected second-level alpha
    return (3 * t) * (1 + 2 * t).invert()


def test_proportional_entries_collapse(ring, t):
    result = decompose([2 * t, 6 * t])
    assert result.rank() == 1
    alpha, direction = result.levels[0]
    assert alpha == 2 * t
    assert list(direction) == [GaussianRational(1), GaussianRational(3)]


def test_zero_vector(ring):
    result = decompose([ring.zero(), ring.zero()])
    assert result.rank() == 0
    assert result.reconstruct() == [ring.zero(), ring.zero()]


def test_non_infinitesimal_rejected(ring, t):
    with pytest.raises(DomainError):
        decompose([1 + t, t])


def test_multivariate_rejected():
    multi = SeriesRing(("t", "e1"), 8)
    with pytest.raises(DomainError):
        decompose([multi.generator("e1")])


def test_reconstruction_random():
    rng = seeded(21)
    ring = univariate_ring(8)
    for _ in range(100):
        dimension = rng.randint(1, 5)
        vector = [random_infinitesimal(rng, ring) for _ in range(dimension)]
        result = decompose(vector)
        assert result.reconstruct() == vector
        assert result.rank() <= dimension


def test_direction_independence_random():
    rng = seeded(22)
    ring = univariate_ring(8)
    for _ in range(50):
        vector = [random_infinitesimal(rng, ring) for _ in range(rng.randint(1, 4))]
        result = decompose(vector)
        assert rank_of_rows(result.direction_rows()) == result.rank()


def test_determinism(ring, t):
    vector = [t + t**3, t**2, 5 * t]
    first = decompose(vector)
    second = decompose(list(vector))
    assert first.levels == second.levels


def test_leading_alpha_valuation():
    rng = seeded(23)
    ring = univariate_ring(8)
    for _ in range(50):
        vector = [random_infinitesimal(rng, ring) for _ in range(rng.randint(1, 4))]
        if all(v.is_zero() for v in vector):
            continue
        result = decompose(vector)
        assert result.levels[0][0].valuation() == min(
            v.valuation() for v in vector if not v.is_zero()
        )


def test_decompose_rejections(ring, t):
    multi = SeriesRing(("t", "e1"), 8)
    for vector in (
        [],
        [1 + t, t],
        [multi.generator("e1")],
        [t, univariate_ring(4).generator("t")],
        [t, 1],
        [1, t],
    ):
        with pytest.raises(DomainError):
            decompose(vector)


# a vector of univariate infinitesimals at truncation T: per entry, degree -> (re, im)
_vectors = st.integers(1, 8).flatmap(
    lambda truncation: st.tuples(
        st.just(truncation),
        st.lists(
            st.dictionaries(
                st.integers(1, truncation),
                st.tuples(st.integers(-3, 3), st.integers(-1, 1)),
                max_size=truncation,
            ),
            min_size=1,
            max_size=5,
        ),
    )
)


def _in_ring(truncation, rows):
    ring = univariate_ring(truncation)
    return [
        TruncatedSeries(ring, {(k,): GaussianRational(re, im) for k, (re, im) in row.items()})
        for row in rows
    ]


def _up_to(series, degree):
    return {index: c for index, c in series.terms.items() if index[0] <= degree}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_vectors)
def test_decompose_properties(vector):
    truncation, rows = vector
    entries = _in_ring(truncation, rows)
    result = decompose(entries)
    assert result.reconstruct() == entries
    assert all(alpha.is_infinitesimal() for alpha, _ in result.levels)
    # U_l is 0 before its pivot coordinate and 1 at it, and later levels are 0 there
    directions = [direction for _, direction in result.levels]
    for level, direction in enumerate(directions):
        pivot = next(i for i, u in enumerate(direction) if u)
        assert direction[pivot] == 1
        assert all(not later[pivot] for later in directions[level + 1:])
    # alpha_l is determined up to degree T - val(alpha_1*...*alpha_(l-1)),
    # so a finer ring agrees with it there and has the same directions
    finer = decompose(_in_ring(truncation + 4, rows))
    assert [u for _, u in finer.levels] == directions
    chain = 0
    for (alpha, _), (finer_alpha, _) in zip(result.levels, finer.levels):
        assert _up_to(alpha, truncation - chain) == _up_to(finer_alpha, truncation - chain)
        chain += alpha.valuation()


# vectors of up to 6 entries at T = 2..8, drawn from degrees 1..3 so that
# entries are often zero or tie in valuation
_tied_vectors = st.integers(2, 8).flatmap(
    lambda truncation: st.tuples(
        st.just(truncation),
        st.lists(
            st.dictionaries(
                st.integers(1, min(3, truncation)),
                st.tuples(st.integers(-2, 2), st.integers(-1, 1)),
                max_size=3,
            ),
            min_size=1,
            max_size=6,
        ),
    )
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_tied_vectors)
@example((4, [{1: (1, 0)}, {}, {1: (2, 0)}, {1: (1, 0), 2: (1, 0)}, {2: (0, 1)}]))
def test_direction_independence_with_zeros_and_ties(vector):
    # the pivot rule alone makes the directions independent; `levels` checks nothing
    truncation, rows = vector
    result = decompose(_in_ring(truncation, rows))
    assert rank_of_rows(result.direction_rows()) == result.rank() <= len(rows)


def test_levels_run_no_rank_check(monkeypatch, ring, t):
    def refuse(rows):
        raise AssertionError("the levels re-proved their independence")

    monkeypatch.setattr(goze, "rank_of_rows", refuse)
    result = decompose([t + t**3, ring.zero(), t**2, 5 * t, t + t**2])
    assert len(result.levels) == result.rank() == 3
    assert result.reconstruct() == [t + t**3, ring.zero(), t**2, 5 * t, t + t**2]


def test_decompose_divides_once_per_level(monkeypatch, ring, t):
    divide, calls = goze.divide_univariate, []

    def counting(num, den):
        calls.append(den)
        return divide(num, den)

    monkeypatch.setattr(goze, "divide_univariate", counting)
    vectors = [[t + t**3, t**2, 5 * t], [t, t**2, t**3, t**4], [2 * t, 6 * t, t**2]]
    rng = seeded(26)
    for _ in range(50):
        vectors.append([random_infinitesimal(rng, ring) for _ in range(rng.randint(1, 5))])
    for vector in vectors:
        calls.clear()
        rank = decompose(vector).rank()
        assert len(calls) == rank


def test_decompose_divides_nothing_until_read(monkeypatch, ring, t):
    divide, calls = goze.divide_univariate, []

    def counting(num, den):
        calls.append(den)
        return divide(num, den)

    monkeypatch.setattr(goze, "divide_univariate", counting)
    result = decompose([t + t**3, t**2, 5 * t])
    assert calls == []
    first = next(iter(result))
    assert len(calls) == 1
    # a second read builds nothing new, and `levels` builds the rest
    assert next(iter(result)) is first
    assert len(calls) == 1
    assert result.levels[0] is first and len(calls) == result.rank() == 3


def test_a_level_past_its_bits_raises_when_it_is_built(ring, t):
    result = decompose([t + 2**4000 * t**2, 3 * t**2])
    alpha, _ = next(iter(result))
    assert alpha == t + 2**4000 * t**2
    for _ in range(2):  # the failed level is not kept, so it fails again
        with pytest.raises(DomainError, match="Goze level passes 4096 bits"):
            result.rank()


def test_row_reduce_matches_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(x):
        x = GaussianRational.coerce(x)
        return sympy.Rational(x.re.numerator, x.re.denominator) + sympy.I * sympy.Rational(
            x.im.numerator, x.im.denominator
        )

    def from_sympy(x):
        re, im = sympy.expand(x).as_real_imag()
        return GaussianRational(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))

    rng = seeded(25)
    for _ in range(40):
        height, width = rng.randint(1, 5), rng.randint(1, 5)
        inner = rng.randint(0, min(height, width))
        # a product through `inner` dimensions has rank at most `inner`
        left = [[GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(inner)]
                for _ in range(height)]
        right = [[GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                  for _ in range(width)] for _ in range(inner)]
        rows = [
            [sum((a[k] * right[k][j] for k in range(inner)), GaussianRational(0))
             for j in range(width)]
            for a in left
        ]
        expected = sympy.Matrix([[to_sympy(x) for x in row] for row in rows])
        reduced, pivots = row_reduce(rows)
        expected_reduced, expected_pivots = expected.rref()
        assert pivots == list(expected_pivots)
        assert reduced == [
            [from_sympy(expected_reduced[i, j]) for j in range(width)] for i in range(height)
        ]
        assert rank_of_rows(rows) == expected.rank() <= inner
