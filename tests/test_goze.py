import pytest

from perturbalg import GaussianRational, SeriesRing, decompose, univariate_ring
from perturbalg.errors import DomainError
from perturbalg.goze import _rank_of_rows, first_level

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
        assert _rank_of_rows(result.direction_rows()) == result.rank()


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


def test_first_level_matches_decompose(ring, t):
    vectors = [
        [t, t**2],
        [t + 2 * t**2, 3 * t**2],
        [2 * t, 6 * t],
        [ring.zero(), t**3, ring.zero()],
        [t + t**3, t**2, 5 * t],
    ]
    rng = seeded(24)
    for _ in range(100):
        vectors.append([random_infinitesimal(rng, ring) for _ in range(rng.randint(1, 5))])
    for vector in vectors:
        if all(v.is_zero() for v in vector):
            continue
        assert first_level(vector) == decompose(vector).levels[0]


def test_first_level_rejects_what_decompose_rejects(ring, t):
    multi = SeriesRing(("t", "e1"), 8)
    for vector in ([], [1 + t, t], [multi.generator("e1")], [t, univariate_ring(4).generator("t")]):
        with pytest.raises(DomainError):
            first_level(vector)
    with pytest.raises(DomainError):
        first_level([ring.zero(), ring.zero()])
