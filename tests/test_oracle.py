import cmath
import dataclasses
import math
import random
import struct
import sys
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturbalg import (
    BalanceQuadratic,
    ConstantMatrix,
    ExactPolynomial,
    GaussianRational,
    PerturbedMatrix,
    PerturbedPolynomial,
    RootAsymptotics,
    SeriesRing,
    dominant_balance,
    eigenvalue_correction,
    pgcd,
    poly_roots_numeric,
    root_correction,
    univariate_ring,
    verify_eigenvalues,
    verify_pgcd,
    verify_quadratic_balance,
    verify_root_asymptotics,
)
from perturbalg import oracle
from perturbalg.cli import run
from perturbalg.errors import DomainError, OracleError, PerturbAlgError
from perturbalg.exactpoly import from_roots
from perturbalg.oracle import default_values
from perturbalg.parsing import parse_matrix_json, parse_polynomial

from conftest import (
    NOT_ONE_EDGE,
    NOT_ONE_EDGE_IDS,
    not_one_edge,
    random_infinitesimal,
    seeded,
)

GRID = (1e-2, 1e-3, 1e-4)


def match_roots(found, expected):
    """Greedy nearest pairing; returns the largest pairing error."""
    found = list(found)
    worst = 0.0
    for target in expected:
        best = min(found, key=lambda z: abs(z - target))
        found.remove(best)
        worst = max(worst, abs(best - target))
    return worst


def test_roots_quadratic():
    assert match_roots(poly_roots_numeric([-1, 0, 1]), [-1, 1]) < 1e-12


def test_roots_split_double():
    roots = poly_roots_numeric([1 - 1e-6, -2, 1])
    assert match_roots(roots, [1 - 1e-3, 1 + 1e-3]) < 1e-10


def test_roots_cube_scaling():
    roots = poly_roots_numeric([-1e-6, 0, 0, 1])
    assert all(abs(abs(z) - 1e-2) < 1e-12 for z in roots)


def test_roots_reject_zero_leading():
    with pytest.raises(DomainError):
        poly_roots_numeric([1, 2, 0])


def test_roots_reject_a_degree_above_30():
    with pytest.raises(DomainError, match="degree above 30"):
        poly_roots_numeric([1] * 32)


def test_roots_self_test_random():
    rng = seeded(51)
    for _ in range(50):
        degree = rng.randint(1, 8)
        chosen = set()
        while len(chosen) < degree:
            chosen.add(
                GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            )
        poly = from_roots(chosen)
        found = poly_roots_numeric(poly.numeric_coeffs(), seed=rng.randint(0, 99))
        assert match_roots(found, [complex(r) for r in chosen]) <= 1e-8


@pytest.mark.parametrize(
    "coeffs",
    [
        [math.nan, 1],  # degree 1
        [0, 0, complex(1, math.inf), 1],  # zero roots deflated, then degree 1
        [0, 1, math.nan, 1],  # a zero root deflated, then Aberth
        [1, math.nan, 1],
        [1, 0, math.inf],
        [complex(2, -math.inf), 0, 1],
    ],
)
def test_roots_reject_non_finite_coefficients(coeffs):
    oracle._last_solved = None
    with pytest.raises(DomainError, match="finite"):
        poly_roots_numeric(coeffs)
    assert oracle._last_solved is None


@pytest.mark.parametrize("seed", range(4))
def test_roots_never_stop_on_an_overflowed_bound(seed):
    # the roots are about 2.2e-73 and -9.6e305; near |z| = 1e306 the bound
    # n * eps * s(|z|) overflows and certifies nothing, so the call fails
    # rather than return two wrong roots of modulus about 1.8e306
    with pytest.raises(OracleError):
        poly_roots_numeric([2.8e115, -1.2e188, -1.3e-118], seed=seed)


@pytest.mark.parametrize("coeffs", [[1.8e284, 7.1e-49], [0, 0, -1e300, 1e-300]])
def test_a_degree_one_root_that_overflows_raises(coeffs):
    # -c0/c1 of finite coefficients can still overflow: no root comes back infinite
    with pytest.raises(OracleError, match="overflows"):
        poly_roots_numeric(coeffs)


_designed_roots = st.dictionaries(
    st.one_of(
        st.integers(-4, 4).map(complex), st.builds(complex, st.integers(-4, 4), st.integers(-3, 3))
    ),
    st.integers(1, 4),
    min_size=1,
    max_size=5,
).filter(lambda spec: sum(spec.values()) <= 10)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_designed_roots, st.integers(0, 3))
def test_multiple_roots_converge_to_their_rounding_radius(spec, seed):
    """A root r of multiplicity m is only determined to (n * eps * s)^(1/m),
    s = sum |a_i| max(|r|, 1)^i: its m nearest iterates lie within 4 times that."""
    coeffs = _expand([r for r, m in spec.items() for _ in range(m)])
    degree = len(coeffs) - 1
    found = poly_roots_numeric(coeffs, seed=seed)
    for r, m in spec.items():
        s = sum(abs(a) * max(abs(r), 1) ** i for i, a in enumerate(coeffs))
        radius = (degree * sys.float_info.epsilon * s) ** (1 / m)
        nearest = sorted(found, key=lambda z: abs(z - r))[:m]
        assert max(abs(z - r) for z in nearest) <= 4 * radius, (spec, found)


def test_roots_deterministic():
    coeffs = [1.5, -2.0, 0.25, 1.0]
    assert poly_roots_numeric(coeffs, seed=7) == poly_roots_numeric(coeffs, seed=7)
    assert poly_roots_numeric(coeffs, seed=7) != poly_roots_numeric(coeffs, seed=8)


def _bits(values):
    parts = [part for z in values for part in (z.real, z.imag)]
    return struct.pack(f"<{len(parts)}d", *parts)


def _outcome(coeffs, seed=0):
    """Exact bits of what poly_roots_numeric gives: roots, or error and iterate."""
    try:
        return "roots", _bits(poly_roots_numeric(coeffs, seed=seed))
    except OracleError as error:
        return str(error), _bits(error.best_iterate)


def _expand(roots):
    """Float coefficients of prod (X - r), low degree first."""
    coeffs = [1.0]
    for r in roots:
        coeffs = [-r * coeffs[0]] + [
            coeffs[i - 1] - r * coeffs[i] for i in range(1, len(coeffs))
        ] + [coeffs[-1]]
    return coeffs


_signed_parts = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-8, max_value=8, allow_nan=False, allow_infinity=False),
)
_coefficient_lists = st.one_of(
    st.lists(st.builds(complex, _signed_parts, _signed_parts), min_size=2, max_size=8)
    .map(lambda c: c + [complex(1, -0.0)]),
    # double and triple roots, which Aberth resolves only to about eps^(1/m)
    st.tuples(
        st.integers(-3, 3), st.sampled_from([2, 3]), st.lists(st.integers(-3, 3), max_size=4)
    ).map(lambda spec: _expand([spec[0]] * spec[1] + spec[2])),
    # finite coefficients whose monic form overflows: the iteration fails
    st.tuples(st.floats(1e300, 1e308), st.floats(1e-308, 1e-300)).map(
        lambda ends: [ends[0], 0, 0, ends[1]]
    ),
)


def _reference_outcome(coeffs, seed=0):
    """_outcome of the Aberth loop written out again: a Horner closure, a
    generator sum and a list of the roots still moving, kept to pin the
    order of the sweep's float operations.  A root stops once |p(z)| <= n *
    eps * sum |a_i| |z|^i for the monic p, with a finite right-hand side."""
    if len(coeffs) - next(k for k, c in enumerate(coeffs) if c != 0) < 3:
        return _outcome(coeffs, seed)  # no Aberth run below degree 2
    coeffs = [complex(c) for c in coeffs]
    roots = []
    while coeffs[0] == 0:
        roots.append(0j)
        coeffs = coeffs[1:]
    degree = len(coeffs) - 1
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    size = [math.hypot(c.real, c.imag) for c in monic]
    radius = 2.0 * max(size[degree - k] ** (1.0 / k) for k in range(1, degree + 1))
    radius = max(radius, 1e-12)
    phase = 2 * math.pi * random.Random(seed).random()
    current = [
        radius * cmath.exp(1j * (2 * math.pi * (k + 0.5) / degree + phase))
        for k in range(degree)
    ]

    def horner_triple(z):
        value = slope = 0j
        scale = 0.0
        r = math.hypot(z.real, z.imag)
        for i in reversed(range(degree + 1)):
            slope = slope * z + value
            value = value * z + monic[i]
            scale = scale * r + size[i]
        return value, slope, scale

    moving = list(range(degree))
    for _ in range(oracle.MAX_ITERATIONS):
        still = []
        for k in moving:
            z = current[k]
            value, slope, scale = horner_triple(z)
            bound = degree * sys.float_info.epsilon * scale
            if math.isfinite(bound) and math.hypot(value.real, value.imag) <= bound:
                continue
            still.append(k)
            ratio = 0j if slope == 0 else value / slope
            repulse = sum(
                1 / (z - current[j]) for j in range(degree) if j != k and z != current[j]
            )
            denom = 1 - ratio * repulse
            current[k] = z - (ratio if denom == 0 else ratio / denom)
        moving = still
        if not moving:
            return "roots", _bits(roots + current)
    return "root iteration did not converge", _bits(roots + current)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_coefficient_lists, st.integers(0, 3))
def test_roots_match_the_reference_loop_bit_for_bit(coeffs, seed):
    first = _outcome(coeffs, seed)
    assert first == _reference_outcome(coeffs, seed)
    # a neighbour that differs only in the signs of its zero parts, solved
    # in between, leaves the next call's bits as they were
    flipped = [complex(-z.real if z.real == 0 else z.real, z.imag) for z in coeffs]
    _outcome(flipped, seed)
    assert _outcome(coeffs, seed) == first


@pytest.mark.parametrize("coeffs", [[6, -5, 1], [0, 6, -5, 1]])
def test_memo_hands_out_fresh_lists(coeffs):
    found = poly_roots_numeric(coeffs)
    kept = list(found)
    found.append(9)
    found[-2] = -1
    assert poly_roots_numeric(coeffs) == kept


@pytest.mark.parametrize(
    "start",
    [
        [2.1, 3.1],  # one point short
        [2.1, 3.1, 4.1, 5.1],  # one point too many
        [2.1, 2.1, 3.1],  # two equal points would never part
        [1.0, 1.0 + 1e-300, 3.1],  # equal once rounded
        [2.1, complex(math.nan, 0), 3.1],
        [2.1, math.inf, 3.1],
    ],
)
def test_a_start_that_cannot_seed_aberth_falls_back_to_the_circle(start):
    coeffs = _expand([1, 2, 3])
    assert _bits(poly_roots_numeric(coeffs, seed=5, start=start)) == _bits(
        poly_roots_numeric(coeffs, seed=5)
    )


def test_a_start_drops_its_points_nearest_0_for_the_deflated_zero_roots():
    # X^2 (X - 2)(X - 3): two zero roots are deflated, so the two starts
    # nearest 0 go, whichever places they hold
    start = [2.1, 0.1, 2.9, -0.2]
    warm = poly_roots_numeric([0, 0] + _expand([2, 3]), start=start)
    assert warm == [0j, 0j] + poly_roots_numeric(_expand([2, 3]), start=[2.1, 2.9])
    assert match_roots(warm, [0, 0, 2, 3]) < 1e-12


def _roots_bits(problem, grid) -> dict:
    return {t0: _bits(problem.roots_at(t0)) for t0 in grid}


def test_warm_roots_do_not_depend_on_the_order_of_the_grid(ring, t, monkeypatch):
    # a triple root, a double root and simple ones, at four scales
    base = from_roots([1, 1, 1, -2, -2, 3])
    shift = PerturbedPolynomial(ring, [t, -2 * t, t**2, 0, 3 * t])
    grid = (1e-2, 1e-3, 1e-4, 1e-6)
    starts = []
    solve = oracle.poly_roots_numeric

    def recorded(coeffs, seed=0, start=None):
        starts.append(start)
        return solve(coeffs, seed, start=start)

    monkeypatch.setattr(oracle, "poly_roots_numeric", recorded)
    cold = {}
    for t0 in grid:
        cold.update(_roots_bits(oracle._Solved(base, shift, 3), [t0]))
    assert all(start is not None for start in starts[1::2])  # every shifted solve is warm
    assert _roots_bits(oracle._Solved(base, shift, 3), grid) == cold
    assert _roots_bits(oracle._Solved(base, shift, 3), grid[::-1]) == cold


def test_warm_roots_lie_within_the_inclusion_radius_of_cold_roots(ring, t):
    for case in range(40):
        rng = seeded(case)
        roots = rng.sample(range(-6, 7), rng.randint(2, 6))
        roots += [roots[0]] * rng.randint(1, 2)
        base = from_roots(roots)
        shift = PerturbedPolynomial(
            ring, [rng.randint(-3, 3) * t + rng.randint(-3, 3) * t**2 for _ in roots]
        )
        seed = rng.randint(0, 99)
        problem = oracle._Solved(base, shift, seed)
        for t0 in GRID:
            sampled = shift.numeric_coeffs(default_values(ring.generators, t0))
            coeffs = [p + x for p, x in zip_longest(problem.base_coeffs, sampled, fillvalue=0)]
            warm = list(problem.roots_at(t0))
            for cold in poly_roots_numeric(coeffs, seed=seed):
                nearest = warm.pop(min(range(len(warm)), key=lambda k: abs(warm[k] - cold)))
                assert abs(nearest - cold) <= oracle._inclusion_radius(coeffs, cold), (case, t0)


def _verify(base, shift, claim, grid=GRID):
    if isinstance(claim, BalanceQuadratic):
        return verify_quadratic_balance(base, shift, claim, grid)
    return verify_root_asymptotics(base, shift, claim, grid)


@pytest.mark.parametrize("balanced", [True, False])
def test_claims_on_one_polynomial_share_aberth_runs(ring, t, balanced, monkeypatch):
    """Every claim perfbench's roots workload makes on one (P, Xi) passes,
    both when the double root 1 balances three terms and when Xi(1) = 0
    splits it into xi ~ 0 and a first-order branch."""
    base = from_roots([1, 1, 3, -2])
    shift = PerturbedPolynomial(ring, [t**2 - t, t] if balanced else [-t, t])
    claims = list(dominant_balance(base, shift, 1))
    claims += [root_correction(base, shift, root) for root in (3, -2)]
    assert len(claims) == (3 if balanced else 4)
    oracle._last_solved = None
    solved = _count_roots_calls(monkeypatch)
    for claim in claims:
        assert _verify(base, shift, claim).verdict
    assert len(solved) <= 1 + len(GRID)


def _count_roots_calls(monkeypatch) -> list:
    """The coefficients of each poly_roots_numeric call the oracle makes from here on."""
    calls = []
    solve = oracle.poly_roots_numeric

    def counted(coeffs, seed=0, **kwargs):
        calls.append(coeffs)
        return solve(coeffs, seed, **kwargs)

    monkeypatch.setattr(oracle, "poly_roots_numeric", counted)
    return calls


def _cold(base, shift, claim, grid=GRID) -> dict:
    """The report of a claim checked with the oracle's memo empty."""
    oracle._last_solved = None
    return _verify(base, shift, claim, grid).to_dict()


def _count_numeric_coeffs(monkeypatch) -> list:
    """The t0 of each PerturbedPolynomial.numeric_coeffs call from here on."""
    calls = []
    sample = PerturbedPolynomial.numeric_coeffs

    def counted(self, values):
        calls.append(values["t"])
        return sample(self, values)

    monkeypatch.setattr(PerturbedPolynomial, "numeric_coeffs", counted)
    return calls


def test_claims_on_one_problem_sample_xi_once_per_t0(ring, t, monkeypatch):
    base = from_roots([1, 1, 3, -2])
    shift = PerturbedPolynomial(ring, [t**2 - t, t])
    claims = list(dominant_balance(base, shift, 1))
    claims += [root_correction(base, shift, root) for root in (3, -2)]
    oracle._last_solved = None
    calls = _count_numeric_coeffs(monkeypatch)
    for claim in claims:
        assert _verify(base, shift, claim).verdict
    assert sorted(calls, reverse=True) == list(GRID)


def _two_problems(ring, t):
    """Two (P, Xi, claims) on different bases, a double root among them."""
    double, simple = from_roots([1, 1, 3]), from_roots([2, -1, 5])
    balanced = PerturbedPolynomial(ring, [t**2 - t, t])
    spread = PerturbedPolynomial(ring, [t, 0, t])
    at_double = [*dominant_balance(double, balanced, 1), root_correction(double, balanced, 3)]
    return [
        (double, balanced, at_double),
        (simple, spread, [root_correction(simple, spread, root) for root in (2, -1, 5)]),
    ]


def test_interleaved_problems_report_as_cold_calls(ring, t):
    problems = _two_problems(ring, t)
    calls = [(base, shift, claims[k]) for k in range(2) for base, shift, claims in problems]
    cold = [_cold(*call) for call in calls]
    oracle._last_solved = None
    assert [_verify(*call).to_dict() for call in calls] == cold


def test_an_equal_but_distinct_xi_reports_as_a_cold_call(ring, t, monkeypatch):
    base, shift, claims = _two_problems(ring, t)[0]
    twin = PerturbedPolynomial(ring, shift.coeffs)
    assert twin == shift and twin is not shift
    cold = [_cold(base, twin, claim) for claim in claims]
    _verify(base, shift, claims[0])
    calls = _count_numeric_coeffs(monkeypatch)
    assert [_verify(base, twin, claim).to_dict() for claim in claims] == cold
    assert len(calls) == len(GRID)  # the memo is keyed by identity: twin is solved afresh


def test_a_failure_at_one_t0_is_raised_for_every_claim(ring, t, monkeypatch):
    # P + Xi(t0) = t0 X^3 + X^2 - 1: at the least normal t0 one root lies near
    # -1/t0 = -4.5e307, whose powers overflow, and Aberth fails, while at 1e-2
    # it is solved once
    base = from_roots([1, -1])
    shift = PerturbedPolynomial(ring, [0, 0, 0, t])
    claims = [root_correction(base, shift, root) for root in (1, -1)]
    least = sys.float_info.min
    grid = (1e-2, least)
    oracle._last_solved = None
    calls = _count_numeric_coeffs(monkeypatch)
    for claim in claims:
        with pytest.raises(OracleError, match="root iteration did not converge"):
            _verify(base, shift, claim, grid)
    assert calls == [1e-2, least, least]


def _passes(base, shift, claim) -> bool:
    try:
        report = _verify(base, shift, claim)
    except (DomainError, OracleError):
        return False
    # a wrong claim fails at every grid point, not just at the last
    assert all(s.deviation > report.tolerance for s in report.samples), report.to_dict()
    return report.verdict


def test_gate_wrong_claims_fail_with_the_memo_warm(ring, t):
    double = ExactPolynomial([1, -2, 1])
    balanced = PerturbedPolynomial(ring, [t**2 - t, t])
    (balance,) = dominant_balance(double, balanced, 1)
    assert isinstance(balance, BalanceQuadratic)
    cases = [
        (double, PerturbedPolynomial(ring, [-t])),
        (ExactPolynomial([-1, 0, 1]), PerturbedPolynomial(ring, [t])),
    ]
    for base, shift in cases:
        (claim,) = dominant_balance(base, shift, 1)
        assert _verify(base, shift, claim).verdict
        wrong = [
            dataclasses.replace(claim, rhs=claim.rhs * 2),
            dataclasses.replace(claim, rhs=-claim.rhs),
            dataclasses.replace(claim, order=3 - claim.order),
        ]
        assert not any(_passes(base, shift, w) for w in wrong)
    assert verify_quadratic_balance(double, balanced, balance, GRID).verdict
    wrong = [
        dataclasses.replace(balance, constant=balance.constant * 2),
        dataclasses.replace(balance, constant=-balance.constant),
        dataclasses.replace(balance, linear=-balance.linear),  # the other branch pair
    ]
    assert not any(_passes(double, balanced, w) for w in wrong)
    # the one-edge claims the CLI printed on hulls that are not one clean edge
    for base_text, shift_text, old_claim, _ in NOT_ONE_EDGE:
        base, shift, claim = not_one_edge(base_text, shift_text, old_claim)
        report = _verify(base, shift, claim)
        assert len(report.samples) == len(GRID) and not _passes(base, shift, claim)


@pytest.mark.parametrize("base_text, shift_text, old_claim, _", NOT_ONE_EDGE, ids=NOT_ONE_EDGE_IDS)
def test_each_newton_polygon_branch_passes_on_its_own(base_text, shift_text, old_claim, _):
    base, shift, _ = not_one_edge(base_text, shift_text, old_claim)
    for branch in dominant_balance(base, shift, 1):
        report = _verify(base, shift, branch)
        assert report.verdict and len(report.samples) == len(GRID), report.to_dict()


def test_a_multiple_roots_own_copies_are_not_another_shadow_root():
    # Aberth leaves the triple root of (X - 1)^3 (X + 2) as three copies a few
    # 1e-6 apart; the cut must look past them to the root -2
    base, shift, _ = not_one_edge(*NOT_ONE_EDGE[3][:3])
    copies = sorted(poly_roots_numeric(base.numeric_coeffs()), key=lambda r: abs(r - 1))[:3]
    assert max(abs(r - 1) for r in copies) > 1e-6
    small, large = dominant_balance(base, shift, 1)
    assert (small.order, large.order) == (1, 2)
    for claim in (small, large):
        report = verify_root_asymptotics(base, shift, claim, GRID)
        assert report.verdict and not report.inconclusive, report.to_dict()


def test_refutation_still_exits_3_with_the_memo_warm(capsys):
    assert run(["verify", "--case", "double"]) == 0
    assert run(["verify", "--case", "refute-half"]) == 3


def test_verify_simple_root(ring, t):
    base = ExactPolynomial([-1, 0, 1])
    shift = PerturbedPolynomial(ring, [t])
    asym = root_correction(base, shift, 1)
    report = verify_root_asymptotics(base, shift, asym, GRID)
    assert report.verdict
    deviations = [s.deviation for s in report.samples]
    assert deviations == sorted(deviations, reverse=True)


def test_verify_double_root(ring, t):
    base = ExactPolynomial([1, -2, 1])
    shift = PerturbedPolynomial(ring, [-t])
    asym = root_correction(base, shift, 1)
    assert verify_root_asymptotics(base, shift, asym, GRID).verdict


def test_verify_rejects_halved_claim(ring, t):
    """The off-by-two right-hand side t/2 must fail the convergence test."""
    base = ExactPolynomial([1, -2, 1])
    shift = PerturbedPolynomial(ring, [-t])
    wrong = RootAsymptotics(GaussianRational(1), 2, t * Fraction(1, 2))
    report = verify_root_asymptotics(base, shift, wrong, GRID)
    assert not report.verdict
    assert all(s.deviation > 0.5 for s in report.samples)


def test_verify_branch_statements(ring, t):
    base = ExactPolynomial([1, -2, 1])
    shift = PerturbedPolynomial(ring, [-t, t])  # exact roots 1 and 1 - t
    still, moved = dominant_balance(base, shift, 1)
    assert verify_root_asymptotics(base, shift, still, GRID).verdict
    assert verify_root_asymptotics(base, shift, moved, GRID).verdict


def test_verify_quadratic_balance(ring, t):
    assert verify_quadratic_balance is verify_root_asymptotics  # one checker, two names
    base = ExactPolynomial([1, -2, 1])
    shift = PerturbedPolynomial(ring, [-t - t**2, t])
    (balance,) = dominant_balance(base, shift, 1)
    assert verify_quadratic_balance(base, shift, balance, GRID).verdict


def test_grid_must_lie_in_the_unit_tenth(ring, t):
    # balanced double root: Xi(1) = t^2 and Xi'(1) = t have matching scales
    base = ExactPolynomial([1, -2, 1])
    shift = PerturbedPolynomial(ring, [t**2 - t, t])
    (balance,) = dominant_balance(base, shift, 1)
    assert isinstance(balance, BalanceQuadratic)
    assert verify_quadratic_balance(base, shift, balance, GRID).verdict
    (claim,) = dominant_balance(base, PerturbedPolynomial(ring, [-t]), 1)
    for grid in ((0.5, 0.2), (1e-2, -1e-3), (1e-2, 0.0), (), (math.nan,), (1e-2, math.nan)):
        with pytest.raises(DomainError, match=r"grid values must lie in \(0, 0.1\]"):
            verify_quadratic_balance(base, shift, balance, grid)
        with pytest.raises(DomainError, match=r"grid values must lie in \(0, 0.1\]"):
            verify_root_asymptotics(base, PerturbedPolynomial(ring, [-t]), claim, grid)


def test_grid_values_must_be_distinct_and_normal(ring, t):
    # a repeated t0 is judged against itself, and at a subnormal one the root
    # finder's stop bound underflows to 0, so no verifier samples either
    base = ExactPolynomial([1, -2, 1])
    shift = PerturbedPolynomial(ring, [-t])
    (claim,) = dominant_balance(base, shift, 1)
    for grid in ((1e-2, 1e-2), (1e-2, 1e-3, 1e-3)):
        with pytest.raises(DomainError, match="grid values must not repeat"):
            verify_root_asymptotics(base, shift, claim, grid)
    for grid in ((1e-310,), (1e-2, sys.float_info.min / 2)):
        with pytest.raises(DomainError, match="grid values must be at least"):
            verify_root_asymptotics(base, shift, claim, grid)
    assert verify_root_asymptotics(base, shift, claim, (1e-2, sys.float_info.min)).samples
    a = parse_polynomial("(X-1)*(X+2) + t", ring, "X")
    b = parse_polynomial("(X-1)*(X-3)", ring, "X")
    with pytest.raises(DomainError, match="grid values must be at least"):
        verify_pgcd(a, b, 1e-310, pgcd(a, b)[0])


@pytest.mark.parametrize(
    "root, order, message",
    [(2, 1, "asymptotics anchored at a non-root"), (1, 2, "order 2 exceeds multiplicity 1")],
)
def test_verify_rejects_a_claim_the_base_root_cannot_carry(ring, t, root, order, message):
    base = ExactPolynomial([-1, 0, 1])
    claim = RootAsymptotics(GaussianRational(root), order, t)
    with pytest.raises(DomainError, match=message):
        verify_root_asymptotics(base, PerturbedPolynomial(ring, [t]), claim, GRID)


def test_verify_mixed_scale_branches(ring, t):
    base = ExactPolynomial([1, -2, 1])
    shift = PerturbedPolynomial(ring, [-t - t**3, t])
    small, large = dominant_balance(base, shift, 1)
    assert verify_root_asymptotics(base, shift, small, GRID).verdict
    assert verify_root_asymptotics(base, shift, large, GRID).verdict


def test_verify_decomposition_rhs(ring, t):
    from perturbalg import decompose

    shift = PerturbedPolynomial(ring, [t**2 - 2 * t, t])
    decomposition = decompose([shift.coefficient(0), shift.coefficient(1)])
    base = ExactPolynomial([-4, 0, 1])
    asym = root_correction(base, shift, 2, decomposition=decomposition)
    assert verify_root_asymptotics(base, shift, asym, GRID).verdict


def test_conservative_soundness_at_grid_point(ring, t):
    # residuals all zero implies sampled eigenvalues move at most O(t0^2)
    from perturbalg import ConstantMatrix, conservative_residuals

    base = ConstantMatrix([[1, 2], [3, 4]])
    pert = [[ring.zero(), t], [(-3 * t) * (2 + t).invert(), ring.zero()]]
    assert all(r.is_zero() for r in conservative_residuals(base, pert))
    t0 = 1e-3
    sampled = verify_eigenvalues(PerturbedMatrix(base, pert), t0)
    exact = [(5 + 33**0.5) / 2, (5 - 33**0.5) / 2]
    assert match_roots(sampled, exact) <= 10 * t0 * t0


def test_verify_inconclusive_when_roots_collide(ring, t):
    # shadow roots 1 and 1 + 1/1000 sit closer than 10x the predicted shift t0
    base = from_roots([1, Fraction(1001, 1000)])
    shift = PerturbedPolynomial(ring, [t])
    asym = RootAsymptotics(GaussianRational(1), 1, t)
    report = verify_root_asymptotics(base, shift, asym, grid=(1e-2,))
    assert report.inconclusive and not report.verdict


def test_a_grid_point_too_coarse_for_the_cluster_is_skipped(ring, t, monkeypatch):
    # the root 1 of (X - 1)(X - 1001/1000) moves by about 1000*t0: at 1e-2 past
    # the other root, at 1e-8 and 1e-9 within a tenth of the way to it
    base = from_roots([1, Fraction(1001, 1000)])
    shift = PerturbedPolynomial(ring, [t])
    claim = root_correction(base, shift, 1)
    report = verify_root_asymptotics(base, shift, claim, (1e-2, 1e-8, 1e-9))
    assert report.verdict and [s.t0 for s in report.samples] == [1e-8, 1e-9]
    # with one point kept the claim is inconclusive, and no P + Xi(t0) is solved:
    # with the memo cold, the shadow is the one polynomial the oracle solves
    oracle._last_solved = None
    solved = _count_roots_calls(monkeypatch)
    report = verify_root_asymptotics(base, shift, claim, (1e-2, 1e-8))
    assert report.inconclusive and not report.verdict and report.samples == []
    assert report.note == "another shadow root lies within 10x the predicted shift"
    assert solved == [base.numeric_coeffs()]  # the shadow's roots


def test_a_zero_prediction_is_gated_by_the_shift_it_accepts(ring, t):
    # P + Xi = (X - 1 - d)(X - 1 - t): the root 1 moves by t, and the root of
    # P + Xi nearest 1 is the other shadow root 1 + d, within 10 * t0^2 of it
    d = Fraction(1, 10**9)
    base = from_roots([1, 1 + d])
    shift = PerturbedPolynomial(ring, [t * (1 + d), -t])
    claim = RootAsymptotics(GaussianRational(1), 1, ring.zero())
    report = verify_root_asymptotics(base, shift, claim, GRID)
    assert report.inconclusive and not report.verdict and report.samples == []


def test_a_zero_prediction_fails_on_a_first_order_shift(ring, t):
    # the root 1 of X - 1 moves to 1 - t, but the claim says xi ~ 0
    base = ExactPolynomial([-1, 1])
    shift = PerturbedPolynomial(ring, [t])
    report = verify_root_asymptotics(base, shift, RootAsymptotics(GaussianRational(1), 1, ring.zero()))
    assert not report.verdict and not report.inconclusive
    assert report.note == "zero prediction but observed shift is first order"
    assert len(report.samples) == 1


@pytest.mark.parametrize(
    "base_coeffs, shift_coeffs, deviations",
    [
        # the X^3 coefficient t - 100*t^2 of Xi is 0.01 - 0.01 = 0.0 at t0 = 1e-2,
        # where P + Xi(t0) is the quadratic X^2 - 1 + t0 it samples to
        ([-1, 0, 1], lambda t: [t, 0, 0, t - 100 * t**2], [0.50, 0.051, 0.0051]),
        # P = (X - 1)(X/10^400 + 1): its X^2 coefficient underflows to 0.0
        ([-1, 1 - Fraction(1, 10**400), Fraction(1, 10**400)], lambda t: [t], [0, 0, 0]),
    ],
    ids=["shifted", "base"],
)
def test_a_leading_coefficient_that_samples_to_zero_is_trimmed(
    ring, t, base_coeffs, shift_coeffs, deviations
):
    base = ExactPolynomial(base_coeffs)
    shift = PerturbedPolynomial(ring, shift_coeffs(t))
    sampled = zip_longest(base.numeric_coeffs(), shift.numeric_coeffs({"t": 1e-2}), fillvalue=0)
    assert [p + x for p, x in sampled][-1] == 0  # the top coefficient of P + Xi(1e-2)
    claim = root_correction(base, shift, 1)
    report = verify_root_asymptotics(base, shift, claim, GRID)
    assert report.verdict, report.to_dict()
    assert [s.deviation for s in report.samples] == pytest.approx(deviations, rel=0.05, abs=1e-12)


def test_verify_pgcd_worked_instance():
    ring = SeriesRing(("e1", "e2", "e3"), 8)
    a = parse_polynomial("X^3 - e1*X - 1 + e2", ring, "X")
    b = parse_polynomial("X^2 + e3*X - 1", ring, "X")
    result, _ = pgcd(a, b)
    report = verify_pgcd(a, b, 1e-4, result)
    assert report.verdict
    assert report.samples[0].deviation <= 1e-3


def test_transfer_residual_evaluates_sampled_coefficients():
    from perturbalg.oracle import transfer_residual
    from perturbalg.transfer import RationalFunction, simplify

    ring = SeriesRing(("e1", "e2", "e3"), 6)
    function = RationalFunction(
        parse_polynomial("p^3 - e1*p - 1 + e2", ring, "p"),
        parse_polynomial("p^2 + e3*p - 1", ring, "p"),
    )
    report = simplify(function)
    z = 0.5 + 0.25j
    values = default_values(ring.generators, 1e-3)
    e1, e2, e3 = (values[g] for g in ring.generators)
    # the README's worked instance, written out by hand
    sampled = (z**3 - e1 * z - 1 + e2) / (z**2 + e3 * z - 1)
    reduced = (z**2 + z + 1) / (z + 1)
    linear = (
        -z / (z**2 - 1) * e1
        + e2 / (z**2 - 1)
        + (-(z**3) - z**2 - z) / (z**3 + z**2 - z - 1) * e3
    )
    residual = transfer_residual(function, report, z, values)
    assert residual == pytest.approx(abs(sampled - reduced - linear), rel=1e-6)
    assert residual < 1e-5


def test_verify_pgcd_exact_coprime(ring):
    a = parse_polynomial("X^2 + 1", ring, "X")
    b = parse_polynomial("X - 3", ring, "X")
    result, _ = pgcd(a, b)
    assert result.degree == 0
    assert verify_pgcd(a, b, 1e-4, result).verdict


def test_verify_pgcd_equal_inputs(ring, t):
    a = parse_polynomial("X^2 - 1 + t", ring, "X")
    result, _ = pgcd(a, a)
    assert verify_pgcd(a, a, 1e-4, result).verdict


@pytest.mark.parametrize(
    "a_text, b_text",
    [
        ("(X-2)*(X^2+1+t)", "(X-2)*(X+3-t)"),  # an exact shared factor
        ("(X-1)^2*(X+2) + t", "(X-1)^2*(X-3) + t*X"),  # a shared double root
        ("(X-1)^3*(X+2) + t", "(X-1)^3*(X-3) - t*X^2"),  # a shared triple root
        ("(X-1)^3*(X+2+t)", "(X-1)^3*(X-3)"),  # a triple root shared exactly
        ("(X-1/3)^4*(X+2+t)", "(X-1/3)^4*(X-3)"),  # a fourfold root shared exactly
        ("(X-1)^3*(X+2+t)", "(X-1)*(X-3)"),  # a triple root of a, simple in b
        ("t*X^2 + X - 1", "X^2 - 1"),  # an infinitesimal leading coefficient
        ("(X-1000)*(X+2) + t", "(X-1000)*(X-3) + t*X"),
        ("(X-1/1000)*(X+2) + t", "(X-1/1000)*(X-3) + t*X"),
    ],
)
def test_verify_pgcd_passes_the_shared_roots(ring, a_text, b_text):
    a, b = parse_polynomial(a_text, ring, "X"), parse_polynomial(b_text, ring, "X")
    result, _ = pgcd(a, b)
    assert result.degree >= 1
    report = verify_pgcd(a, b, 1e-4, result)
    assert report.verdict and report.samples[0].deviation <= 1e-2


def test_verify_pgcd_inconclusive_when_unshared_roots_lie_close(ring):
    # the unshared roots 1 and 1 + 1/10000 move by about t0 at t0 = 1e-4
    a = parse_polynomial("(X-1)*(X+5) + 6*t", ring, "X")
    b = parse_polynomial("(X-1-1/10000)*(X-3)", ring, "X")
    result, _ = pgcd(a, b)
    report = verify_pgcd(a, b, 1e-4, result)
    assert report.inconclusive and not report.verdict
    assert verify_pgcd(a, b, 1e-8, result).verdict


@pytest.mark.parametrize("t0", [math.nan, -1.0, 0.0, 5.0])
def test_verify_pgcd_checks_t0(ring, t0):
    a = parse_polynomial("(X-1)*(X+2) + t", ring, "X")
    b = parse_polynomial("(X-1)*(X-3)", ring, "X")
    result, _ = pgcd(a, b)
    with pytest.raises(DomainError, match=r"grid values must lie in \(0, 0.1\]"):
        verify_pgcd(a, b, t0, result)


def test_verify_pgcd_rejects_a_wrong_first_order_part(ring, t):
    # the PGCD is X - 1 + t/5, the Bezout combination (a - b)/5; X - 1 + 1000*t has
    # the right shadow but takes 1000*t0 at the shared root 1, not t0/5
    a = parse_polynomial("(X-1)*(X+2) + t", ring, "X")
    b = parse_polynomial("(X-1)*(X-3)", ring, "X")
    result, _ = pgcd(a, b)
    assert verify_pgcd(a, b, 1e-4, result).verdict
    for wrong in ("X - 1 + 1000*t", "X - 1 + 1*t", "X - 1 + 1/5*t + 10*t*X"):
        report = verify_pgcd(a, b, 1e-4, parse_polynomial(wrong, ring, "X"))
        assert not report.verdict and not report.inconclusive, wrong
        assert "first order" in report.note


@pytest.mark.parametrize(
    "claim",
    [
        "(X-1)*(X+2)*(X-3)",  # more roots than a or b
        "X - 1 + t*X^2",  # a root that escapes to infinity at the shadow
    ],
)
def test_verify_pgcd_fails_a_claim_with_extra_roots(ring, claim):
    a = parse_polynomial("(X-1)*(X+2) + t", ring, "X")
    b = parse_polynomial("(X-1)*(X-3)", ring, "X")
    report = verify_pgcd(a, b, 1e-4, parse_polynomial(claim, ring, "X"))
    assert not report.verdict and not report.inconclusive
    assert report.note == "the PGCD has more roots than a or b, or at t0 than at the shadow"


@pytest.mark.parametrize("claim", ["1", "(X-1)^2"])
def test_verify_pgcd_fails_a_left_out_triple_root(ring, claim):
    # the triple root's computed copies lie about 1e-5 apart, far above NOISE_FLOOR
    a = parse_polynomial("(X-1)^3*(X+2+t)", ring, "X")
    b = parse_polynomial("(X-1)^3*(X-3)", ring, "X")
    report = verify_pgcd(a, b, 1e-4, parse_polynomial(claim, ring, "X"))
    assert not report.verdict and report.note == "a and b share a root the PGCD leaves out"


def test_verify_pgcd_repeated_unshared_zero_root_gets_a_verdict(ring):
    # the roots of a left over are 0, 0 and 1, which no Lagrange interpolant
    # takes as nodes; p*A + q*B = 1 at the shared root 0 gives that side
    a = parse_polynomial("X^3*(X-1) + t", ring, "X")
    b = parse_polynomial("X*(X-2)", ring, "X")
    for first, second in ((a, b), (b, a)):
        claim = pgcd(first, second)[0]
        assert claim == parse_polynomial("4*X + t", ring, "X")
        report = verify_pgcd(first, second, 1e-4, claim)
        assert report.verdict and report.samples[0].deviation < 1e-3
        wrong = verify_pgcd(first, second, 1e-4, parse_polynomial("4*X + 2*t", ring, "X"))
        assert not wrong.verdict and not wrong.inconclusive
        assert wrong.note == "the PGCD is not p*a + q*b to first order at its roots"


def _pgcd_passes(a, b, claim) -> bool:
    return verify_pgcd(a, b, 1e-4, claim).verdict


_NOISE = ("e1", "e2", "e3", "e1*e2", "e1*e3", "e2*e3", "e3^2")


@st.composite
def _designed_pgcd(draw):
    """num = G*C1 + noise, den = G*C2 + noise: integer roots, G of degree 1-2."""
    gcd_degree = draw(st.integers(1, 2))
    degrees = [draw(st.integers(max(2, gcd_degree), 5)) for _ in range(2)]
    pool = draw(st.permutations(range(-4, 5)))
    gcd_roots, pool = pool[:gcd_degree], pool[gcd_degree:]
    texts, cofactor_roots = [], []
    for degree in degrees:
        roots, pool = pool[: degree - gcd_degree], pool[degree - gcd_degree :]
        cofactor_roots += roots
        terms = ["*".join(f"(X{-r:+d})" for r in gcd_roots + roots)]
        for _ in range(draw(st.integers(1, 2))):
            power = draw(st.integers(0, degree - 1))
            monomial = draw(st.sampled_from(_NOISE)) + (f"*X^{power}" if power else "")
            terms.append(f"{draw(st.sampled_from((-2, -1, 1, 2))):+d}*{monomial}")
        texts.append(" ".join(terms))
    return texts, cofactor_roots


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_designed_pgcd())
def test_verify_pgcd_gate_on_designed_problems(design):
    (a_text, b_text), cofactor_roots = design
    ring = SeriesRing(("e1", "e2", "e3"), 6)
    a, b = parse_polynomial(a_text, ring, "X"), parse_polynomial(b_text, ring, "X")
    result, _ = pgcd(a, b)
    assert _pgcd_passes(a, b, result)
    wrong = [PerturbedPolynomial(ring, [1])]
    wrong += [PerturbedPolynomial(ring, list(result.taylor_coefficients(s))) for s in (1, -1)]
    wrong += [result * PerturbedPolynomial(ring, [-r, 1]) for r in cofactor_roots]
    # the right shadow with a large first-order part, unless it is a unit multiple of
    # result; k*t*X moves a root at 0 only at order t^2, so k*t0 must pass the tolerance
    lead = PerturbedPolynomial(ring, [result.coeffs[-1]])
    e1 = ring.generator("e1") * result.coeffs[-1]
    for shift in ([10**5 * e1], [-(10**5) * e1], [0, 10**5 * e1], [0, -(10**5) * e1]):
        claim = result + PerturbedPolynomial(ring, shift)
        if not (claim * lead - result * PerturbedPolynomial(ring, [claim.coeffs[-1]])).is_zero():
            wrong.append(claim)
    assert not any(_pgcd_passes(a, b, claim) for claim in wrong)


def test_verify_pgcd_overflowing_sample_is_an_oracle_error(ring):
    # the PGCD is the constant a(-1e300) = 1e600 + 1, past the float range
    a = PerturbedPolynomial(ring, [1, 0, 1])
    b = PerturbedPolynomial(ring, [1, GaussianRational(Fraction(1, 10**300))])
    result, _ = pgcd(a, b)
    with pytest.raises(OracleError, match="overflows"):
        verify_pgcd(a, b, 1e-4, result)


def test_verify_root_asymptotics_overflowing_sample_is_an_oracle_error():
    ring = univariate_ring(4)
    base = ExactPolynomial([-1, 1])
    shift = parse_polynomial("10^400*t", ring, "X")
    claim = root_correction(base, shift, 1)
    with pytest.raises(OracleError, match="overflows"):
        verify_root_asymptotics(base, shift, claim)


def test_verify_eigenvalues_overflowing_sample_is_an_oracle_error():
    matrix = parse_matrix_json(
        '{"n":2,"base":[["1","0"],["0","2"]],"pert":[["10^400*t","0"],["0","0"]]}', 4
    )
    with pytest.raises(OracleError, match="overflows"):
        verify_eigenvalues(matrix, 1e-3)


def test_transfer_residual_overflowing_sample_is_an_oracle_error():
    from perturbalg.oracle import transfer_residual
    from perturbalg.transfer import RationalFunction, simplify

    ring = SeriesRing(("e1",), 4)
    function = RationalFunction(
        parse_polynomial("p^2 - 1 + 10^400*e1", ring, "p"),
        parse_polynomial("p + 1", ring, "p"),
    )
    report = simplify(function)
    with pytest.raises(OracleError, match="overflows"):
        transfer_residual(function, report, 2.0, default_values(ring.generators, 1e-3))


def test_verify_pgcd_root_that_overflows_at_t0_is_no_pass(ring, t):
    # the claim's root 5 is not a's root 1 at the shadow; at t0 the roots of a
    # and of the claim are -1.5e308 and 1.5e308, whose distance overflows
    small, huge = GaussianRational(Fraction(1, 10**10)), GaussianRational(15 * 10**299)
    a = PerturbedPolynomial(ring, [-small + huge * t, small])
    claim = PerturbedPolynomial(ring, [-5 * small - huge * t, small])
    report = verify_pgcd(a, a, 1e-2, claim)
    assert not report.verdict and "not a root of a and b" in report.note


_extreme = st.builds(
    lambda m, e: GaussianRational(Fraction(m) * Fraction(10) ** e),
    st.integers(-9, 9).filter(bool),
    st.integers(-300, 300),
)
_extreme_poly = st.lists(st.tuples(_extreme, _extreme, st.integers(1, 3)), min_size=2, max_size=3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_extreme_poly, _extreme_poly)
def test_verify_pgcd_raises_only_library_errors(a_rows, b_rows):
    ring = univariate_ring(4)
    t = ring.generator("t")
    a, b = (
        PerturbedPolynomial(ring, [c + d * t**k for c, d, k in rows]) for rows in (a_rows, b_rows)
    )
    try:
        report = verify_pgcd(a, b, 1e-3, pgcd(a, b)[0])
    except PerturbAlgError:
        return
    assert report.tolerance == 0.2 and isinstance(report.verdict, bool)
    assert not any(math.isnan(s.deviation) for s in report.samples)


def test_verify_eigenvalues_jordan():
    matrix = parse_matrix_json(
        '{"n":2,"base":[["1","1"],["0","1"]],"pert":[["0","0"],["t","0"]]}'
    )
    eigenvalues = verify_eigenvalues(matrix, 1e-6)
    assert match_roots(eigenvalues, [1 - 1e-3, 1 + 1e-3]) < 1e-9


def test_verify_eigenvalues_rejects_an_order_above_8(ring, t):
    matrix = PerturbedMatrix(ConstantMatrix.identity(9), [[t] * 9] * 9)
    with pytest.raises(DomainError, match="above order 8"):
        verify_eigenvalues(matrix, 1e-3)


def test_verify_eigenvalues_unperturbed_diagonal(ring):
    matrix = PerturbedMatrix(
        ConstantMatrix([[1, 0], [0, 2]]),
        [[ring.zero(), ring.zero()], [ring.zero(), ring.zero()]],
    )
    assert match_roots(verify_eigenvalues(matrix, 1e-4), [1, 2]) < 1e-10


def test_verify_eigenvalues_conservative_nilpotent(ring, t):
    matrix = PerturbedMatrix(
        ConstantMatrix.zero(2), [[ring.zero(), t], [ring.zero(), ring.zero()]]
    )
    assert match_roots(verify_eigenvalues(matrix, 1e-3), [0, 0]) < 1e-12


def test_eigenvalue_corrections_converge():
    cases = []
    matrix = parse_matrix_json(
        '{"n":2,"base":[["1","1"],["0","1"]],"pert":[["0","0"],["t","0"]]}'
    )
    cases.append((matrix, 1))
    matrix = parse_matrix_json(
        '{"n":3,"base":[["0","1","0"],["0","0","1"],["0","0","0"]],'
        '"pert":[["0","0","0"],["0","0","0"],["t","0","0"]]}'
    )
    cases.append((matrix, 0))
    matrix = parse_matrix_json(
        '{"n":2,"base":[["1","0"],["0","2"]],"pert":[["t","0"],["0","0"]]}'
    )
    cases.append((matrix, 1))
    from perturbalg import char_poly, perturbation_poly

    for matrix, eigen in cases:
        asym = eigenvalue_correction(matrix.base, matrix, eigen)
        report = verify_root_asymptotics(
            char_poly(matrix.base), perturbation_poly(matrix), asym, GRID
        )
        assert report.verdict, report.to_dict()


def test_report_determinism(ring, t):
    base = ExactPolynomial([-1, 0, 1])
    shift = PerturbedPolynomial(ring, [t])
    asym = root_correction(base, shift, 1)
    first = verify_root_asymptotics(base, shift, asym, GRID, seed=3)
    second = verify_root_asymptotics(base, shift, asym, GRID, seed=3)
    assert first.to_dict() == second.to_dict()


@pytest.mark.parametrize("generators", [("t",), ("e1", "e2", "e3")])
def test_verify_eigenvalues_matches_numpy(generators):
    """The oracle's eigenvalues (roots of char_poly) against an independent
    float eigensolver applied to the same sampled matrix."""
    import numpy

    rng = seeded(71)
    ring = SeriesRing(generators, 4)
    t0 = 1e-3
    values = default_values(generators, t0)
    for n in range(2, 7):
        base = ConstantMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        pert = [[random_infinitesimal(rng, ring) for _ in range(n)] for _ in range(n)]
        matrix = PerturbedMatrix(base, pert)
        observed = list(verify_eigenvalues(matrix, t0, values=values))
        expected = numpy.linalg.eigvals(numpy.array(matrix.numeric_sample(values)))
        assert len(observed) == n
        for value in expected:
            nearest = min(observed, key=lambda z: abs(z - value))
            assert abs(nearest - value) <= 1e-6 * max(1.0, abs(value))
            observed.remove(nearest)
