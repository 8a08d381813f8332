import copy
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from perturbalg import matrices
from perturbalg.cli import run
from perturbalg.errors import DomainError
from perturbalg.goze import decompose
from perturbalg.series import TruncatedSeries

from conftest import assert_round_trips, gaussian_series, random_infinitesimal, seeded


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
JORDAN2_JSON = '{"n":2,"base":[["1","1"],["0","1"]],"pert":[["0","0"],["t","0"]]}'


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
    for k, matrices in ((0, ()), (3, [ConstantMatrix.identity(2)] * 3), (2, [JORDAN2])):
        with pytest.raises(DomainError):
            polarize(k, *matrices)


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


def test_perturbed_matrix_must_sit_on_the_given_base(ring, t):
    jordan = PerturbedMatrix(JORDAN2, [[ring.zero(), ring.zero()], [t, ring.zero()]])
    other = ConstantMatrix([[7, 0], [0, 9]])  # has no eigenvalue 1
    with pytest.raises(DomainError):
        eigenvalue_correction(other, jordan, 1)
    with pytest.raises(DomainError):
        conservative_residuals(other, jordan)
    with pytest.raises(DomainError):
        xi_first_order(other, jordan)
    with pytest.raises(DomainError):
        charpoly_expansion(other, jordan, 1)
    same = ConstantMatrix([[1, 1], [0, 1]])  # equal to the base, not the same object
    assert str(eigenvalue_correction(same, jordan, 1)) == "xi^2 ~ t (at root 1)"
    assert xi_first_order(same, jordan) == PerturbedPolynomial(ring, [-t])


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


def test_orbit_dimensions_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def exact(z):
        return sympy.Rational(z.re.numerator, z.re.denominator) + sympy.I * sympy.Rational(
            z.im.numerator, z.im.denominator
        )

    def companion(rng, n):  # cyclic: its minimal polynomial has degree n
        rows = [[1 if i == j + 1 else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            rows[i][n - 1] = random_gaussian(rng, 1).rows[0][0]
        return ConstantMatrix(rows)

    def conjugated(rng, matrix):  # U A U^-1 for an invertible Gaussian U
        while True:
            basis = random_gaussian(rng, matrix.n, span=2)
            if char_poly(basis).coefficient(0):
                return basis @ matrix @ basis.inverse()

    def block_diagonal(block, copies):
        k = block.n
        return ConstantMatrix(
            [[block.rows[i % k][j % k] if i // k == j // k else 0 for j in range(k * copies)]
             for i in range(k * copies)]
        )

    rng = seeded(43)
    cases = []  # (matrix, the dimension of its centralizer)
    for n in range(1, 7):
        eigenvalue = random_gaussian(rng, 1).rows[0][0]
        jordan = ConstantMatrix(
            [[eigenvalue if i == j else int(j == i + 1) for j in range(n)] for i in range(n)]
        )
        cases += [
            (conjugated(rng, companion(rng, n)), n),
            (ConstantMatrix.identity(n).scaled(eigenvalue), n * n),
            (jordan, n),
        ]
    for k in (1, 2, 3):  # diag(B, B) with B cyclic commutes with the 2x2 blocks over C[B]
        cases.append((conjugated(rng, block_diagonal(companion(rng, k), 2)), 4 * k))
    for matrix, centralizer in cases:
        n, rows = matrix.n, [[exact(z) for z in row] for row in matrix.rows]
        a = sympy.Matrix(rows)
        images = []
        for i in range(n):
            for j in range(n):
                unit = sympy.zeros(n, n)
                unit[i, j] = 1
                images.append(list(unit * a - a * unit))
        commutator = sympy.Matrix(images).T  # column i*n + j is the image of E_ij
        # in sympy's Q(i) domain: on expressions, Matrix.rank took 3.7 s at n = 4
        kernel = DomainMatrix.from_Matrix(commutator).to_field().nullspace()
        expected = n * n - kernel.shape[0]  # one row per kernel basis vector
        assert orbit_dimension(matrix) == expected == n * n - centralizer


def test_inverse_of_random_gaussian_matrices():
    rng = seeded(48)
    singular = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        matrix = random_gaussian(rng, n, span=1)
        if not char_poly(matrix).coefficient(0):  # det = 0
            singular += 1
            with pytest.raises(DomainError, match="matrix is singular"):
                matrix.inverse()
            continue
        inverse = matrix.inverse()
        assert matrix @ inverse == ConstantMatrix.identity(n)
        assert inverse @ matrix == ConstantMatrix.identity(n)
    assert 0 < singular < 60
    # rank 2 of 3: the pivots are columns 0, 1 and then one of the right half
    with pytest.raises(DomainError, match="matrix is singular"):
        ConstantMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).inverse()
    assert ConstantMatrix([]).inverse() == ConstantMatrix([])


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


def test_hermitian_rejections(ring, t):
    diag = ConstantMatrix([[0, 0], [0, 1]])
    direction = ConstantMatrix([[1, 0], [0, 0]])
    for args, message in (
        ((diag, ConstantMatrix([[0, 1], [0, 0]]), t, 0), "direction matrix is not Hermitian"),
        ((diag, ConstantMatrix.identity(3), t, 0), "direction matrix has order 3, the base matrix 2"),
        ((diag, direction, 1 + t, 0), "alpha must be infinitesimal"),
        ((diag, direction, 2, 0), "alpha must be a series"),
        ((diag, direction, t, 5), "5 is not an eigenvalue of the base matrix"),
        ((ConstantMatrix.identity(2), direction, t, 1), "1 is not a simple eigenvalue"),
        ((ConstantMatrix([]), ConstantMatrix([]), t, 0), "0 is not an eigenvalue of the base matrix"),
    ):
        with pytest.raises(DomainError, match=message):
            hermitian_first_order(*args)


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
    # an exact matrix keeps no polynomial: each call runs Berkowitz again
    assert char_poly(matrix.base) == char_poly(matrix.base)


def test_berkowitz_dot_products_build_no_product_series(ring, monkeypatch):
    # each dot product goes into one row map; a product series per term would
    # count here once per nonzero pair
    rng = seeded(31)
    matrix = PerturbedMatrix(random_constant(rng, 5), random_perturbation(rng, ring, 5))
    depth = [0]
    products = [0]
    dot, mul = matrices.sum_of_products, TruncatedSeries.__mul__

    def counted_dot(*args):
        depth[0] += 1
        try:
            return dot(*args)
        finally:
            depth[0] -= 1

    def counted_mul(self, other):
        products[0] += depth[0] > 0
        return mul(self, other)

    monkeypatch.setattr(matrices, "sum_of_products", counted_dot)
    monkeypatch.setattr(TruncatedSeries, "__mul__", counted_mul)
    poly = char_poly(matrix)
    assert products[0] == 0
    monkeypatch.undo()
    assert poly == PerturbedPolynomial(ring, char_poly_by_minors(matrix))


def first_order_reference(base, pert):
    """alpha_1 * first_order_by_polarize(A, U_1) for E's first level (alpha_1, U_1)."""
    n = base.n
    alpha, flat = decompose([entry for row in pert for entry in row]).levels[0]
    direction = ConstantMatrix([flat[i * n:(i + 1) * n] for i in range(n)])
    return PerturbedPolynomial(
        alpha.ring, [alpha * c for c in first_order_by_polarize(base, direction)]
    )


def test_xi_first_order_matches_polarize():
    rng = seeded(52)
    ring = univariate_ring(8)
    for _ in range(12):
        n = rng.randint(1, 4)
        base = random_gaussian(rng, n)
        pert = [[random_infinitesimal(rng, ring) for _ in range(n)] for _ in range(n)]
        assert xi_first_order(base, pert) == first_order_reference(base, pert)


def _edge_cases():
    rng = seeded(54)
    ring = univariate_ring(8)
    t = ring.generator("t")
    f, g = random_gaussian(rng, 3), random_gaussian(rng, 3)
    gaussian_lead = [[t**3 * x for x in row] for row in random_gaussian(rng, 3).rows]
    gaussian_lead[0][0] = GaussianRational(2, 1) * t**2 + t**4  # the pivot: lead 2+i
    gaussian_lead[2][1] = GaussianRational(-1, 3) * t**2
    return {
        "v=2": (
            random_gaussian(rng, 3),
            [[t**2 * x + t**3 * y for x, y in zip(rf, rg)] for rf, rg in zip(f.rows, g.rows)],
        ),
        "v=T": (
            random_gaussian(rng, 3),
            [[t**ring.truncation * x for x in row] for row in (f + unit_matrix(3, 1, 2)).rows],
        ),
        "gaussian-lead": (random_gaussian(rng, 3), gaussian_lead),
        "1x1": (ConstantMatrix([[GaussianRational(2, -1)]]), [[3 * t**2 - t**5]]),
    }


EDGE_CASES = _edge_cases()


@pytest.mark.parametrize("case", EDGE_CASES)
def test_xi_first_order_edge_valuations(case):
    base, pert = EDGE_CASES[case]
    first = xi_first_order(base, pert)
    assert first == first_order_reference(base, pert)
    valuation = min(entry.valuation() for row in pert for entry in row)
    xi = perturbation_poly(PerturbedMatrix(base, pert))
    assert all(c.valuation() > valuation for c in (xi - first).coeffs)


def test_xi_first_order_reuses_the_cached_char_poly(ring, t, monkeypatch):
    calls = [0]
    berkowitz = matrices._berkowitz

    def counted(*args):
        calls[0] += 1
        return berkowitz(*args)

    monkeypatch.setattr(matrices, "_berkowitz", counted)
    rng = seeded(55)
    pert = random_perturbation(rng, ring, 4)
    pert[0][0] = t
    matrix = PerturbedMatrix(random_constant(rng, 4), pert)
    char_poly(matrix)
    calls[0] = 0
    xi_first_order(matrix.base, matrix)
    assert calls[0] == 0
    xi_first_order(matrix.base, pert)
    assert calls[0] == 1
    calls[0] = 0
    multi = SeriesRing(("e1", "e2"), 4)
    with pytest.raises(DomainError):
        xi_first_order(JORDAN2, [[multi.zero()] * 2, [multi.generator("e1"), multi.zero()]])
    with pytest.raises(DomainError):
        xi_first_order(JORDAN2, [[ring.zero()] * 2, [ring.zero()] * 2])
    assert calls[0] == 0


gaussians = st.builds(
    GaussianRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.integers(-2, 2),
)


@st.composite
def perturbed_matrices(draw):
    n = draw(st.integers(1, 4))
    ring = univariate_ring(4)
    entries = st.dictionaries(
        st.integers(1, ring.truncation).map(lambda k: (k,)), gaussians, max_size=3
    )
    base = ConstantMatrix([[draw(gaussians) for _ in range(n)] for _ in range(n)])
    return PerturbedMatrix(
        base, [[TruncatedSeries(ring, draw(entries)) for _ in range(n)] for _ in range(n)]
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(perturbed_matrices())
def test_char_poly_and_first_order_match_the_definitions(matrix):
    # Berkowitz against minor sums, and its [t^v] read against polarize
    assert char_poly(matrix) == PerturbedPolynomial(matrix.ring, char_poly_by_minors(matrix))
    if any(entry for row in matrix.pert for entry in row):
        assert xi_first_order(matrix.base, matrix) == first_order_reference(
            matrix.base, matrix.pert
        )


def perturbation_poly_by_two_passes(matrix):
    """Xi as a second Berkowitz pass on the base gives it."""
    return char_poly(matrix) - PerturbedPolynomial.from_exact(char_poly(matrix.base), matrix.ring)


@st.composite
def gaussian_perturbed_matrices(draw):
    """A + E: Gaussian A of order 1..5, E over one to three generators at T = 1..6."""
    n = draw(st.integers(1, 5))
    generators = draw(st.sampled_from([("t",), ("e1", "e2"), ("e1", "e2", "e3")]))
    ring = SeriesRing(generators, draw(st.integers(1, 6)))
    entries = st.one_of(st.just(ring.zero()), gaussian_series(ring, min_valuation=1))
    base = ConstantMatrix([[draw(gaussians) for _ in range(n)] for _ in range(n)])
    return PerturbedMatrix(base, [[draw(entries) for _ in range(n)] for _ in range(n)])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(gaussian_perturbed_matrices())
def test_the_base_char_poly_is_the_shadow_of_the_perturbed_one(matrix):
    # the standard part is a ring map, so it commutes with Berkowitz
    assert char_poly(matrix).shadow() == char_poly(matrix.base)
    assert perturbation_poly(matrix) == perturbation_poly_by_two_passes(matrix)


@pytest.mark.parametrize(
    "claim",
    [
        lambda pert: eigenvalue_correction(ConstantMatrix([[1, 1], [0, 1]]), pert, 1),
        lambda pert: conservative_residuals(ConstantMatrix([[1, 1], [0, 1]]), pert),
        lambda pert: hermitian_first_order(
            ConstantMatrix([[0, 0], [0, 1]]), ConstantMatrix([[1, 0], [0, 0]]), pert[1][0], 0
        ),
        lambda pert: run(["eigshift", "--matrix", JORDAN2_JSON, "--eigenvalue", "1"]),
        lambda pert: run(["verify", "--case", "jordan2"]),
    ],
    ids=["eigenvalue_correction", "conservative_residuals", "hermitian_first_order",
         "cli-eigshift", "cli-verify-jordan2"],
)
def test_one_berkowitz_pass_per_claim(ring, t, monkeypatch, capsys, claim):
    # char_poly(A) is read off char_poly(A + E), not computed again; each
    # claim builds its own base, so no earlier test can have cached one
    calls = [0]
    berkowitz = matrices._berkowitz

    def counted(*args):
        calls[0] += 1
        return berkowitz(*args)

    monkeypatch.setattr(matrices, "_berkowitz", counted)
    claim([[ring.zero(), ring.zero()], [t, ring.zero()]])
    capsys.readouterr()
    assert calls[0] == 1


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


def test_matrices_pickle_and_copy(ring, t):
    base = ConstantMatrix([[1, 1], [GaussianRational(0, 2), Fraction(1, 3)]])
    perturbed = PerturbedMatrix(base, [[t, 0 * t], [t**2, -t]])
    char_poly(base)
    char_poly(perturbed)
    # ConstantMatrix has no hash, and PerturbedMatrix compares by identity
    assert_round_trips(base, hashed=False)
    assert_round_trips(perturbed, key=lambda m: (m.base, m.pert), hashed=False)
    assert copy.deepcopy(perturbed)._charpoly is None  # the cache is not carried over
