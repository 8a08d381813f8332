"""Acceptance criteria, one test per criterion, each timed and reported.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.  Tolerances are fixed here, not tuned elsewhere.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from perturbalg import (
    ConstantMatrix,
    ExactPolynomial,
    ExactRationalFunction,
    GaussianRational,
    PerturbedMatrix,
    PerturbedPolynomial,
    RootAsymptotics,
    SeriesRing,
    char_poly,
    charpoly_expansion,
    conservative_residuals,
    decompose,
    eigenvalue_correction,
    hermitian_first_order,
    minor_sum,
    monic_shadow,
    orbit_dimension,
    perturbation_poly,
    pgcd,
    polarize,
    poly_gcd,
    simplify,
    univariate_ring,
    verify_eigenvalues,
    verify_root_asymptotics,
    xi_first_order,
)
from perturbalg.goze import rank_of_rows
from perturbalg.oracle import default_values, transfer_residual
from perturbalg.parsing import parse_polynomial
from perturbalg.transfer import RationalFunction

from conftest import random_exact_poly, random_infinitesimal, seeded


@contextmanager
def criterion(number: int, label: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit_seconds else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} {label} ({elapsed:.2f}s < {limit_seconds:g}s)")
    assert elapsed < limit_seconds, f"runtime {elapsed:.2f}s over budget"


def worked_polynomials(ring):
    return (
        parse_polynomial("X^3 - e1*X - 1 + e2", ring, "X"),
        parse_polynomial("X^2 + e3*X - 1", ring, "X"),
    )


def test_criterion_01_pgcd_worked_instance():
    with criterion(1, "PGCD worked instance exact", 1.0):
        for trunc in (4, 8):
            ring = SeriesRing(("e1", "e2", "e3"), trunc)
            e1, e2, e3 = (ring.generator(g) for g in ring.generators)
            a, b = worked_polynomials(ring)
            result, _ = pgcd(a, b)
            expected = PerturbedPolynomial(
                ring, [-(1 - e2 + e3), 1 - e1 + e3**2]
            )
            assert result == expected
            assert monic_shadow(result) == ExactPolynomial([-1, 1])


def test_criterion_02_transfer_worked_instance():
    with criterion(2, "transfer-function reduction and first order", 5.0):
        ring = SeriesRing(("e1", "e2", "e3"), 8)
        function = RationalFunction(
            parse_polynomial("p^3 - e1*p - 1 + e2", ring, "p"),
            parse_polynomial("p^2 + e3*p - 1", ring, "p"),
        )
        report = simplify(function)

        def rational(num, den):
            return ExactRationalFunction(
                ExactPolynomial(num, "p"), ExactPolynomial(den, "p")
            )

        assert report.reduced_shadow == rational([1, 1, 1], [1, 1])
        assert report.first_order["e1"] == rational([0, -1], [-1, 0, 1])
        assert report.first_order["e2"] == rational([1], [-1, 0, 1])
        assert report.first_order["e3"] == rational(
            [0, -1, -1, -1], [-1, -1, 1, 1]
        )
        residuals = [
            transfer_residual(
                function, report, 2.0, default_values(ring.generators, t0)
            )
            for t0 in (1e-3, 1e-4)
        ]
        factor = residuals[0] / residuals[1]
        assert 50 <= factor <= 200, f"shrink factor {factor:.1f}"


def test_criterion_03_jordan_block_refutes_halved_constant():
    with criterion(3, "Jordan 2x2 correction and refutation", 1.0):
        ring = univariate_ring(8)
        t = ring.generator("t")
        matrix = PerturbedMatrix(
            ConstantMatrix([[1, 1], [0, 1]]),
            [[ring.zero(), ring.zero()], [t, ring.zero()]],
        )
        asym = eigenvalue_correction(matrix.base, matrix, 1)
        assert asym.order == 2 and asym.rhs == t
        base = char_poly(matrix.base)
        shift = perturbation_poly(matrix)
        report = verify_root_asymptotics(
            base, shift, asym, (1e-2, 1e-3, 1e-4), tolerance=0.05
        )
        assert report.verdict
        assert report.samples[-1].deviation <= 0.05
        halved = RootAsymptotics(GaussianRational(1), 2, t * Fraction(1, 2))
        refutation = verify_root_asymptotics(
            base, shift, halved, (1e-2, 1e-3, 1e-4), tolerance=0.05
        )
        assert not refutation.verdict  # fails as designed


def test_criterion_04_nilpotent_cube():
    with criterion(4, "nilpotent 3x3 first order and cube branches", 1.0):
        ring = univariate_ring(8)
        t = ring.generator("t")
        pert = [[ring.zero()] * 3 for _ in range(3)]
        pert[2][0] = t
        matrix = PerturbedMatrix(
            ConstantMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), pert
        )
        xi = perturbation_poly(matrix)
        assert xi == PerturbedPolynomial(ring, [-t])
        assert xi_first_order(matrix.base, pert) == PerturbedPolynomial(ring, [-t])
        asym = eigenvalue_correction(matrix.base, matrix, 0)
        assert asym.order == 3 and asym.rhs == t
        report = verify_root_asymptotics(
            char_poly(matrix.base), xi, asym, (1e-3, 1e-4, 1e-6), tolerance=0.05
        )
        assert report.verdict
        assert report.samples[-1].t0 == 1e-6
        assert report.samples[-1].deviation <= 0.05


def _expansion_corpus(seed=1005, size=100):
    rng = seeded(seed)
    ring = univariate_ring(8)
    t = ring.generator("t")
    for _ in range(size):
        n = rng.choice((2, 3, 4))
        base = ConstantMatrix(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        )
        pert = [[t * rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        yield ring, n, base, pert


def test_criterion_05_expansion_exactness():
    with criterion(5, "polarized expansion equals minors, 100 instances", 30.0):
        for ring, n, base, pert in _expansion_corpus():
            lifted = base.lift(ring)
            total = [
                [lifted[i][j] + pert[i][j] for j in range(n)] for i in range(n)
            ]
            for k in range(1, n + 1):
                assert charpoly_expansion(base, pert, k) == minor_sum(total, k)


def test_criterion_06_polarization_identities():
    with criterion(6, "polarization normalization, symmetry, derived constants", 10.0):
        from math import factorial

        rng = seeded(1006)
        for ring, n, base, _ in _expansion_corpus():
            for k in range(1, n + 1):
                assert polarize(k, *([base] * k)) == minor_sum(base, k) * factorial(k)
        # symmetry under random argument permutations
        for _ in range(20):
            n = rng.choice((3, 4))
            k = rng.randint(2, min(3, n))
            mats = [
                ConstantMatrix(
                    [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                )
                for _ in range(k)
            ]
            reference = polarize(k, *mats)
            order = list(range(k))
            rng.shuffle(order)
            assert polarize(k, *[mats[i] for i in order]) == reference
        # two-variable and three-variable difference identities carry the
        # constants 2 and 4 under the k!-diagonal normalization
        for _ in range(20):
            x = ConstantMatrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
            y = ConstantMatrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
            lhs = minor_sum(x + y, 2) - minor_sum(x - y, 2)
            assert lhs == polarize(2, x, y) * 2
        for _ in range(20):
            x, y, z = (
                ConstantMatrix(
                    [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
                )
                for _ in range(3)
            )
            lhs = (
                minor_sum(x + y + z, 3)
                - minor_sum(x + y - z, 3)
                - minor_sum(x - y + z, 3)
                - minor_sum((-x) + y + z, 3)
            )
            assert lhs == polarize(3, x, y, z) * 4


def test_criterion_07_goze_reconstruction():
    with criterion(7, "Goze reconstruction, rank, worked examples", 5.0):
        rng = seeded(1007)
        ring = univariate_ring(8)
        t = ring.generator("t")
        for _ in range(100):
            vector = [
                random_infinitesimal(rng, ring) for _ in range(rng.randint(1, 5))
            ]
            result = decompose(vector)
            assert result.reconstruct() == vector
            assert rank_of_rows(result.direction_rows()) == result.rank()
        two_scale = decompose([t, t**2])
        assert [(a, list(u)) for a, u in two_scale.levels] == [
            (t, [GaussianRational(1), GaussianRational(0)]),
            (t, [GaussianRational(0), GaussianRational(1)]),
        ]
        chained = decompose([t + 2 * t**2, 3 * t**2])
        assert chained.levels[0][0] == t + 2 * t**2
        assert chained.levels[0][0] * chained.levels[1][0] == 3 * t**2
        assert chained.rank() == 2


def test_criterion_08_pgcd_shadow_property():
    with criterion(8, "PGCD shadow equals designed GCD, 50 instances", 10.0):
        rng = seeded(1008)
        ring = univariate_ring(8)
        passes = 0
        while passes < 50:
            divisor = random_exact_poly(rng, max_degree=2)
            if divisor.degree < 1:
                continue
            cof1 = random_exact_poly(rng, max_degree=3)
            cof2 = random_exact_poly(rng, max_degree=3)
            if cof1.is_zero() or cof2.is_zero():
                continue
            if poly_gcd(cof1, cof2).degree != 0:
                continue
            noisy = []
            for cofactor in (cof1, cof2):
                product_poly = PerturbedPolynomial.from_exact(divisor * cofactor, ring)
                noise = PerturbedPolynomial(
                    ring,
                    [
                        random_infinitesimal(rng, ring)
                        for _ in range(product_poly.degree + 1)
                    ],
                )
                noisy.append(product_poly + noise)
            result, _ = pgcd(noisy[0], noisy[1])
            assert monic_shadow(result) == divisor.monic()
            passes += 1


def test_criterion_09_conservative_perturbations():
    with criterion(9, "conservative residual identity and oracle", 5.0):
        ring3 = SeriesRing(("e1", "e2", "e3"), 8)
        e1, e2, e3 = (ring3.generator(g) for g in ring3.generators)
        pert = [[e1, e2], [e3, -e1]]
        for corner in product((0, 1), repeat=4):
            a1, a2, a3, a4 = corner
            residuals = conservative_residuals(ConstantMatrix([[a1, a2], [a3, a4]]), pert)
            assert residuals[0].is_zero()
            assert residuals[1] == -(a1 - a4) * e1 - a2 * e3 - a3 * e2 - e1**2 - e2 * e3

        rng = seeded(1009)
        ring = univariate_ring(8)
        t = ring.generator("t")
        for _ in range(10):
            p, q = rng.randint(1, 4), rng.randint(1, 4)
            singular = [
                [t * (p * q), t * (p * p)],
                [t * (-q * q), t * (-p * q)],
            ]
            residuals = conservative_residuals(ConstantMatrix.zero(2), singular)
            assert all(r.is_zero() for r in residuals)

        # a conservative perturbation of a non-diagonal base matrix
        base = ConstantMatrix([[1, 2], [3, 4]])
        eps2 = t
        eps3 = (-3 * t) * (2 + t).invert()  # solves 2*e3 + 3*e2 + e2*e3 = 0
        pert = [[ring.zero(), eps2], [eps3, ring.zero()]]
        residuals = conservative_residuals(base, pert)
        assert all(r.is_zero() for r in residuals)
        matrix = PerturbedMatrix(base, pert)
        sampled = verify_eigenvalues(matrix, 1e-4, values={"t": 1e-4})
        exact = [complex(z) for z in ((5 + 33**0.5) / 2, (5 - 33**0.5) / 2)]
        for target in exact:
            assert min(abs(z - target) for z in sampled) <= 1e-8


def test_criterion_10_orbit_dimensions():
    with criterion(10, "orbit dimensions (scalar, distinct, Jordan)", 1.0):
        assert orbit_dimension(ConstantMatrix([[7, 0], [0, 7]])) == 0
        assert orbit_dimension(ConstantMatrix([[1, 0], [0, 2]])) == 2
        assert orbit_dimension(ConstantMatrix([[1, 1], [0, 1]])) == 2


def test_criterion_11_hermitian_shift():
    with criterion(11, "Hermitian first-order shift against exact eigenvalues", 1.0):
        ring = univariate_ring(8)
        t = ring.generator("t")
        base = ConstantMatrix([[0, 0], [0, 1]])
        direction = ConstantMatrix([[1, 0], [0, 0]])
        moved = hermitian_first_order(base, direction, t, 0)
        fixed = hermitian_first_order(base, direction, t, 1)
        assert moved == t and fixed.is_zero()
        t0 = 1e-4
        matrix = PerturbedMatrix(base, [[t, ring.zero()], [ring.zero(), ring.zero()]])
        sampled = verify_eigenvalues(matrix, t0)
        for predicted in (0 + moved.numeric_sample(t0), 1 + fixed.numeric_sample(t0)):
            assert min(abs(z - predicted) for z in sampled) <= 1e-6
