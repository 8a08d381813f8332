import math
from fractions import Fraction
from itertools import product

import pytest

from perturbalg import (
    ConstantMatrix,
    ExactPolynomial,
    GaussianRational,
    PerturbedMatrix,
    PerturbedPolynomial,
    SeriesRing,
    char_poly,
    charpoly_expansion,
    conservative_residuals,
    eigenvalue_correction,
    hermitian_first_order,
    minor_sum,
    orbit_dimension,
    perturbation_poly,
    polarize,
    univariate_ring,
    xi_first_order,
)
from perturbalg.errors import DomainError
from perturbalg.goze import decompose

from conftest import random_infinitesimal, seeded


def unit_matrix(n, i, j, scale=1):
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = scale
    return ConstantMatrix(rows)


def random_constant(rng, n, span=3):
    return ConstantMatrix(
        [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
    )


def random_perturbation(rng, ring, n, span=3):
    t = ring.generator(ring.generators[0])
    return [[t * rng.randint(-span, span) for _ in range(n)] for _ in range(n)]


def random_gaussian(rng, n, span=3):
    return ConstantMatrix(
        [
            [
                GaussianRational(
                    Fraction(rng.randint(-span, span), rng.randint(1, 3)),
                    rng.randint(-1, 1),
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def char_poly_by_minors(matrix):
    """Coefficients of X^n + sum_k (-1)^k minor_sum(matrix, k) X^(n-k), low first."""
    n = matrix.n
    return [(-1) ** (n - j) * minor_sum(matrix, n - j) for j in range(n)] + [1]


def first_order_by_polarize(base, direction):
    """sum_k (-1)^k Theta(A,...,A,U)/(k-1)! X^(n-k) by polarize, low degree first."""
    n = base.n
    coeffs = [GaussianRational(0)] * n
    for k in range(1, n + 1):
        theta = polarize(k, *([base] * (k - 1) + [direction]))
        coeffs[n - k] = (-1) ** k * theta / math.factorial(k - 1)
    return coeffs


NILPOTENT3 = ConstantMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
JORDAN2 = ConstantMatrix([[1, 1], [0, 1]])


def test_minor_sums_diagonal():
    m = ConstantMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert [minor_sum(m, k) for k in (1, 2, 3)] == [
        GaussianRational(6),
        GaussianRational(11),
        GaussianRational(6),
    ]


def test_minor_sums_identity():
    from math import comb

    for n in (2, 3, 4):
        m = ConstantMatrix.identity(n)
        for k in range(1, n + 1):
            assert minor_sum(m, k) == GaussianRational(comb(n, k))


def test_minor_sums_two_by_two():
    rng = seeded(41)
    for _ in range(10):
        m = random_constant(rng, 2)
        assert minor_sum(m, 1) == m.trace()
        assert minor_sum(m, 2) == m.rows[0][0] * m.rows[1][1] - m.rows[0][1] * m.rows[1][0]


def test_minor_sum_range_check():
    with pytest.raises(DomainError):
        minor_sum(ConstantMatrix.identity(2), 3)


def test_polarize_unit_directions():
    assert polarize(2, unit_matrix(2, 0, 0), unit_matrix(2, 1, 1)) == GaussianRational(1)


def test_polarize_diagonal_normalization():
    rng = seeded(42)
    for _ in range(10):
        m = random_constant(rng, 2)
        assert polarize(2, m, m) == minor_sum(m, 2) * 2


def test_polarize_nilpotent_trilinear():
    # coefficient of s in det(A + s*E31) is 1; the polarized form doubles it
    assert polarize(3, NILPOTENT3, NILPOTENT3, unit_matrix(3, 2, 0)) == GaussianRational(2)


def test_polarize_symmetry_and_linearity():
    rng = seeded(43)
    a, b, c = (random_constant(rng, 3) for _ in range(3))
    reference = polarize(3, a, b, c)
    assert polarize(3, b, a, c) == reference
    assert polarize(3, c, b, a) == reference
    scaled = polarize(3, a.scaled(3), b, c)
    assert scaled == reference * 3
    shifted = polarize(3, a + c, b, c)
    assert shifted == reference + polarize(3, c, b, c)


def test_char_poly_exact():
    assert char_poly(JORDAN2) == ExactPolynomial([1, -2, 1])
    assert char_poly(ConstantMatrix([[1, 0], [0, 2]])) == ExactPolynomial([2, -3, 1])


def test_char_poly_perturbed(ring, t):
    matrix = PerturbedMatrix(JORDAN2, [[ring.zero(), ring.zero()], [t, ring.zero()]])
    assert char_poly(matrix) == PerturbedPolynomial(ring, [1 - t, -2, 1])
    assert perturbation_poly(matrix) == PerturbedPolynomial(ring, [-t])


def test_charpoly_expansion_k2(ring, t):
    rng = seeded(44)
    base = random_constant(rng, 3)
    pert = random_perturbation(rng, ring, 3)
    lifted = base.lift(ring)
    total = [[lifted[i][j] + pert[i][j] for j in range(3)] for i in range(3)]
    direct = minor_sum(total, 2)
    via_theta = (
        ring.constant(minor_sum(base, 2))
        + polarize(2, lifted, pert)
        + minor_sum(pert, 2)
    )
    assert charpoly_expansion(base, pert, 2) == direct == via_theta


def test_charpoly_expansion_zero_pert(ring):
    base = ConstantMatrix([[1, 2], [3, 4]])
    zero = [[ring.zero(), ring.zero()], [ring.zero(), ring.zero()]]
    for k in (1, 2):
        assert charpoly_expansion(base, zero, k) == ring.constant(minor_sum(base, k))


def test_charpoly_expansion_exactness_random():
    rng = seeded(45)
    ring = univariate_ring(8)
    for _ in range(20):
        n = rng.choice((2, 3, 4))
        base = random_constant(rng, n)
        pert = random_perturbation(rng, ring, n)
        lifted = base.lift(ring)
        total = [[lifted[i][j] + pert[i][j] for j in range(n)] for i in range(n)]
        for k in range(1, n + 1):
            assert charpoly_expansion(base, pert, k) == minor_sum(total, k)


def test_xi_first_order_nilpotent(ring, t):
    pert = [[ring.zero()] * 3 for _ in range(3)]
    pert[2][0] = t
    assert xi_first_order(NILPOTENT3, pert) == PerturbedPolynomial(ring, [-t])


def test_xi_first_order_jordan(ring, t):
    pert = [[ring.zero(), ring.zero()], [t, ring.zero()]]
    assert xi_first_order(JORDAN2, pert) == PerturbedPolynomial(ring, [-t])


def test_xi_first_order_trace_term(ring, t):
    pert = [[t, ring.zero()], [ring.zero(), t]]
    assert xi_first_order(ConstantMatrix.zero(2), pert) == PerturbedPolynomial(
        ring, [0, -2 * t]
    )


def test_xi_first_order_valuation_bound():
    rng = seeded(46)
    ring = univariate_ring(8)
    t = ring.generator("t")
    for _ in range(10):
        n = rng.choice((2, 3))
        base = random_constant(rng, n)
        pert = [
            [t * rng.randint(-2, 2) + t**2 * rng.randint(-2, 2) for _ in range(n)]
            for _ in range(n)
        ]
        if all(entry.is_zero() for row in pert for entry in row):
            continue
        matrix = PerturbedMatrix(base, pert)
        xi = perturbation_poly(matrix)
        first = xi_first_order(base, pert)
        alpha_val = min(
            entry.valuation() for row in pert for entry in row if not entry.is_zero()
        )
        difference = xi - first
        for coeff in difference.coeffs:
            assert coeff.valuation() > alpha_val


def test_eigenvalue_correction_jordan(ring, t):
    matrix = PerturbedMatrix(JORDAN2, [[ring.zero(), ring.zero()], [t, ring.zero()]])
    asym = eigenvalue_correction(matrix.base, matrix, 1)
    assert asym.order == 2 and asym.rhs == t


def test_eigenvalue_correction_nilpotent(ring, t):
    pert = [[ring.zero()] * 3 for _ in range(3)]
    pert[2][0] = t
    asym = eigenvalue_correction(NILPOTENT3, pert, 0)
    assert asym.order == 3 and asym.rhs == t


def test_eigenvalue_correction_simple(ring, t):
    base = ConstantMatrix([[1, 0], [0, 2]])
    pert = [[t, ring.zero()], [ring.zero(), ring.zero()]]
    asym = eigenvalue_correction(base, pert, 1)
    assert asym.order == 1 and asym.rhs == t


def test_conservative_zero_pert(ring):
    zero = [[ring.zero(), ring.zero()], [ring.zero(), ring.zero()]]
    residuals = conservative_residuals(ConstantMatrix([[1, 2], [3, 4]]), zero)
    assert all(r.is_zero() for r in residuals)


def test_conservative_nilpotent_direction(ring, t):
    pert = [[ring.zero(), t], [ring.zero(), ring.zero()]]
    residuals = conservative_residuals(ConstantMatrix.zero(2), pert)
    assert all(r.is_zero() for r in residuals)


def test_conservative_quadratic_identity():
    """residual_2 = -(a1-a4)e1 - a2*e3 - a3*e2 - e1^2 - e2*e3, as a polynomial
    identity in the a's (multiaffine, so the 16 corners pin it down)."""
    ring = SeriesRing(("e1", "e2", "e3"), 8)
    e1, e2, e3 = (ring.generator(g) for g in ring.generators)
    pert = [[e1, e2], [e3, -e1]]
    for corner in product((0, 1), repeat=4):
        a1, a2, a3, a4 = corner
        base = ConstantMatrix([[a1, a2], [a3, a4]])
        residuals = conservative_residuals(base, pert)
        assert residuals[0].is_zero()  # trace-free
        expected = -(a1 - a4) * e1 - a2 * e3 - a3 * e2 - e1**2 - e2 * e3
        assert residuals[1] == expected


def test_orbit_dimensions():
    assert orbit_dimension(ConstantMatrix([[5, 0], [0, 5]])) == 0
    assert orbit_dimension(ConstantMatrix([[1, 0], [0, 2]])) == 2
    assert orbit_dimension(JORDAN2) == 2


def test_orbit_dimension_conjugation_invariant():
    rng = seeded(47)
    for _ in range(10):
        n = rng.choice((2, 3))
        matrix = random_constant(rng, n)
        while True:
            basis = random_constant(rng, n)
            try:
                inverse = basis.inverse()
                break
            except DomainError:
                continue
        conjugated = inverse @ matrix @ basis
        assert orbit_dimension(conjugated) == orbit_dimension(matrix)


def test_hermitian_shift():
    ring = univariate_ring(8)
    t = ring.generator("t")
    base = ConstantMatrix([[0, 0], [0, 1]])
    direction = ConstantMatrix([[1, 0], [0, 0]])
    assert hermitian_first_order(base, direction, t, 0) == t
    assert hermitian_first_order(base, direction, t, 1).is_zero()
    assert hermitian_first_order(base, ConstantMatrix.zero(2), t, 0).is_zero()


def test_hermitian_shift_is_real():
    rng = seeded(48)
    ring = univariate_ring(8)
    t = ring.generator("t")
    checked = 0
    while checked < 20:
        eigen, other = rng.randint(-4, 4), rng.randint(-4, 4)
        if eigen == other:
            continue  # the eigenvalue must be simple
        base = ConstantMatrix([[eigen, 0], [0, other]])
        d_off = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
        direction = ConstantMatrix(
            [[rng.randint(-3, 3), d_off], [d_off.conjugate(), rng.randint(-3, 3)]]
        )
        shift = hermitian_first_order(base, direction, t, eigen)
        ratio = shift.terms.get((1,), GaussianRational(0))
        assert ratio.is_real
        # for a diagonal base the first-order shift is the matching
        # diagonal entry of the direction
        assert ratio == direction.rows[0][0]
        checked += 1


def test_hermitian_rejects_non_hermitian(ring, t):
    with pytest.raises(DomainError):
        hermitian_first_order(JORDAN2, ConstantMatrix.identity(2), t, 1)


def test_pert_matrix_validation(ring, t):
    with pytest.raises(DomainError):
        PerturbedMatrix(JORDAN2, [[ring.one(), ring.zero()], [t, ring.zero()]])


def test_char_poly_matches_minor_sums_constant():
    rng = seeded(49)
    for n in range(8):
        for _ in range(2):
            matrix = random_gaussian(rng, n)
            assert char_poly(matrix) == ExactPolynomial(char_poly_by_minors(matrix))


@pytest.mark.parametrize(
    "generators, truncation, orders",
    [(("t",), 8, range(1, 6)), (("e1", "e2", "e3"), 4, range(1, 5))],
)
def test_char_poly_matches_minor_sums_series(generators, truncation, orders):
    rng = seeded(50)
    ring = SeriesRing(generators, truncation)
    for n in orders:
        base = random_gaussian(rng, n)
        pert = [[random_infinitesimal(rng, ring) for _ in range(n)] for _ in range(n)]
        matrix = PerturbedMatrix(base, pert)
        assert char_poly(matrix) == PerturbedPolynomial(ring, char_poly_by_minors(matrix))
        residuals = conservative_residuals(base, pert)
        for k in range(1, n + 1):
            expected = minor_sum(matrix, k) - ring.constant(minor_sum(base, k))
            assert residuals[k - 1] == expected


def test_char_poly_matches_sympy():
    import sympy

    def exact(z):
        return sympy.Rational(z.re.numerator, z.re.denominator) + sympy.I * sympy.Rational(
            z.im.numerator, z.im.denominator
        )

    rng = seeded(51)
    x = sympy.Symbol("X")
    for n in range(1, 7):
        matrix = random_gaussian(rng, n)
        reference = sympy.Matrix([[exact(z) for z in row] for row in matrix.rows])
        expected = reference.charpoly(x).all_coeffs()[::-1]
        got = [exact(c) for c in char_poly(matrix).coeffs]
        assert len(got) == len(expected) == n + 1
        assert all(sympy.expand(a - b) == 0 for a, b in zip(got, expected))


def test_char_poly_computed_once_per_matrix(ring, t):
    matrix = PerturbedMatrix(JORDAN2, [[ring.zero(), ring.zero()], [t, ring.zero()]])
    assert char_poly(matrix) is char_poly(matrix)
    assert char_poly(matrix.base) is char_poly(matrix.base)


def test_xi_first_order_matches_polarize():
    rng = seeded(52)
    ring = univariate_ring(8)
    for _ in range(12):
        n = rng.randint(1, 4)
        base = random_gaussian(rng, n)
        pert = [[random_infinitesimal(rng, ring) for _ in range(n)] for _ in range(n)]
        alpha, flat = decompose([entry for row in pert for entry in row]).levels[0]
        direction = ConstantMatrix([flat[i * n:(i + 1) * n] for i in range(n)])
        expected = PerturbedPolynomial(
            ring, [alpha * c for c in first_order_by_polarize(base, direction)]
        )
        assert xi_first_order(base, pert) == expected


def householder(v):
    """I - 2 v v* / (v* v): Hermitian and unitary, so its own inverse."""
    n = len(v)
    norm = sum((x * x.conjugate() for x in v), GaussianRational(0))
    return ConstantMatrix(
        [
            [(1 if i == j else 0) - 2 * v[i] * v[j].conjugate() / norm for j in range(n)]
            for i in range(n)
        ]
    )


def test_hermitian_first_order_matches_polarize():
    rng = seeded(53)
    ring = univariate_ring(8)
    t = ring.generator("t")
    for _ in range(8):
        n = rng.randint(2, 4)
        eigenvalues = rng.sample(range(-5, 6), n)
        v = [GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
        if not any(v):
            v[0] = GaussianRational(1)
        basis = householder(v)
        diagonal = ConstantMatrix(
            [[eigenvalues[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )
        base = basis @ diagonal @ basis
        upper = [[GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
                 for _ in range(n)]
        direction = ConstantMatrix(
            [
                [
                    GaussianRational(upper[i][i].re) if i == j
                    else upper[i][j] if i < j else upper[j][i].conjugate()
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
        alpha = t + 2 * t**2
        slope = char_poly(base).derivative()
        rotated = basis @ direction @ basis
        for index, eigenvalue in enumerate(eigenvalues):
            shift = hermitian_first_order(base, direction, alpha, eigenvalue)
            polarized = ExactPolynomial(first_order_by_polarize(base, direction))
            expected = -polarized.evaluate(eigenvalue) / slope.evaluate(eigenvalue)
            assert shift == alpha * expected
            # first-order perturbation theory: u* U u for the unit eigenvector u
            assert expected == rotated.rows[index][index]
