import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from perturbalg import (
    ExactPolynomial,
    GaussianRational,
    PerturbedPolynomial,
    TruncatedSeries,
    univariate_ring,
)
from perturbalg.parsing import parse_polynomial, parse_series
from perturbalg.ppoly import RootAsymptotics


@pytest.fixture
def ring():
    return univariate_ring(8)


@pytest.fixture
def t(ring):
    return ring.generator("t")


def random_scalar(rng, span=5, denominators=5):
    return GaussianRational(
        Fraction(rng.randint(-span, span), rng.randint(1, denominators))
    )


# strategy: re + im*i, each part one of random_scalar's values
_parts = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5))
gaussian_scalars = st.builds(GaussianRational, _parts, _parts)


def gaussian_series(ring, min_valuation=0):
    """Strategy: random_series's series (1 to 6 terms of degree <= T), Gaussian coefficients."""
    bound = ring.truncation
    exponents = st.tuples(*[st.integers(0, bound)] * len(ring.generators)).filter(
        lambda index: min_valuation <= sum(index) <= bound
    )
    return st.dictionaries(exponents, gaussian_scalars, min_size=1, max_size=6).map(
        lambda terms: TruncatedSeries(ring, terms)
    )


def random_series(rng, ring, max_degree=None, min_valuation=0, span=5):
    """Random series with integer-ish rational coefficients."""
    max_degree = ring.truncation if max_degree is None else max_degree
    width = len(ring.generators)
    terms = {}
    for _ in range(rng.randint(1, 6)):
        while True:
            index = tuple(rng.randint(0, max_degree) for _ in range(width))
            if min_valuation <= sum(index) <= max_degree:
                break
        terms[index] = random_scalar(rng, span)
    return TruncatedSeries(ring, terms)


def random_infinitesimal(rng, ring, max_valuation=4):
    series = random_series(rng, ring, min_valuation=1)
    if series.is_zero() or series.valuation() > max_valuation:
        gen = ring.generator(ring.generators[rng.randrange(len(ring.generators))])
        series = series + gen ** rng.randint(1, max_valuation)
    return series


def random_exact_poly(rng, max_degree=4, span=5, var="X"):
    degree = rng.randint(0, max_degree)
    coeffs = [random_scalar(rng, span) for _ in range(degree + 1)]
    if not coeffs[-1]:
        coeffs[-1] = GaussianRational(1)
    return ExactPolynomial(coeffs, var)


def random_perturbed_poly(rng, ring, max_degree=4, unit_lead=True, var="X"):
    degree = rng.randint(0, max_degree)
    coeffs = [random_series(rng, ring, max_degree=2) for _ in range(degree + 1)]
    if unit_lead and not coeffs[-1].is_unit():
        coeffs[-1] = coeffs[-1] + 1
    elif coeffs[-1].is_zero():
        coeffs[-1] = ring.one()
    return PerturbedPolynomial(ring, coeffs, var)


def seeded(seed):
    return random.Random(seed)


def assert_round_trips(value, key=lambda v: v, hashed=True):
    """pickle, copy and deepcopy each give a value of the same type whose key
    is equal; a hashed value must also hash alike."""
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is type(value)
        assert key(copied) == key(value)
        assert not hashed or hash(copied) == hash(value)


# Hulls at the root 1 on which the one-edge claim xi^m ~ -c_0/c_m is false for
# every branch: base P, perturbation Xi (univariate, T = 8), the order and
# right-hand side of that claim, and the branches of the Newton-polygon walk.
# The first Xi is char_poly(I + t*[[1, 2], [3, 4]]) - char_poly(I).
NOT_ONE_EDGE = [
    ("X^2 - 2*X + 1", "-5*t*X + 5*t - 2*t^2", (2, "2*t^2"),
     ["1*xi^2 + (-5*t)*xi + (-2*t^2) ~ 0"]),
    ("X^2 - 2*X + 1", "t*X - t + t^3", (2, "-t^3"), ["xi ~ -t^2", "xi ~ -t"]),
    ("X^2 - 2*X + 1", "t*X - t + t^2", (2, "-t^2"), ["1*xi^2 + (t)*xi + (t^2) ~ 0"]),
    # (X - 1)^3 (X + 2)
    ("X^4 - X^3 - 3*X^2 + 5*X - 2", "2*t*X - 2*t + t^2", (3, "-1/3*t^2"),
     ["xi ~ -1/2*t", "xi^2 ~ -2/3*t"]),
]
NOT_ONE_EDGE_IDS = ["eigshift-balance", "two-scales", "balance", "triple-root"]


def not_one_edge(base_text, shift_text, old_claim):
    """(P, Xi, the false one-edge claim) of a NOT_ONE_EDGE row."""
    ring = univariate_ring(8)
    order, rhs = old_claim
    base = parse_polynomial(base_text, ring, "X").shadow()
    claim = RootAsymptotics(GaussianRational(1), order, parse_series(rhs, ring))
    return base, parse_polynomial(shift_text, ring, "X"), claim
