from fractions import Fraction

import pytest

from perturbalg import (
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
    verify_eigenvalues,
    verify_pgcd,
    verify_quadratic_balance,
    verify_root_asymptotics,
)
from perturbalg.errors import DomainError
from perturbalg.exactpoly import from_roots
from perturbalg.oracle import default_values
from perturbalg.parsing import parse_matrix_json, parse_polynomial

from conftest import random_infinitesimal, seeded

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


def test_roots_deterministic():
    coeffs = [1.5, -2.0, 0.25, 1.0]
    assert poly_roots_numeric(coeffs, seed=7) == poly_roots_numeric(coeffs, seed=7)
    assert poly_roots_numeric(coeffs, seed=7) != poly_roots_numeric(coeffs, seed=8)


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
    base = ExactPolynomial([1, -2, 1])
    shift = PerturbedPolynomial(ring, [-t - t**2, t])
    (balance,) = dominant_balance(base, shift, 1)
    assert verify_quadratic_balance(base, shift, balance, GRID).verdict


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
    # shadow roots 1 and 1 + 1/1000 sit closer than 10x the perturbation
    base = from_roots([1, Fraction(1001, 1000)])
    shift = PerturbedPolynomial(ring, [t])
    asym = RootAsymptotics(GaussianRational(1), 1, t)
    report = verify_root_asymptotics(base, shift, asym, grid=(1e-2,))
    assert report.inconclusive and not report.verdict


def test_verify_pgcd_worked_instance():
    ring = SeriesRing(("e1", "e2", "e3"), 8)
    a = parse_polynomial("X^3 - e1*X - 1 + e2", ring, "X")
    b = parse_polynomial("X^2 + e3*X - 1", ring, "X")
    result, _ = pgcd(a, b)
    report = verify_pgcd(a, b, 1e-4, result)
    assert report.verdict
    assert report.samples[0].deviation <= 1e-3


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


def test_verify_eigenvalues_jordan():
    matrix = parse_matrix_json(
        '{"n":2,"base":[["1","1"],["0","1"]],"pert":[["0","0"],["t","0"]]}'
    )
    eigenvalues = verify_eigenvalues(matrix, 1e-6)
    assert match_roots(eigenvalues, [1 - 1e-3, 1 + 1e-3]) < 1e-9


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
