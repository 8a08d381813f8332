import math
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perturbalg import (
    BalanceQuadratic,
    ConstantMatrix,
    ExactPolynomial,
    ExactRationalFunction,
    GaussianRational,
    NonUnitError,
    PerturbedMatrix,
    PerturbedPolynomial,
    RootAsymptotics,
    SeriesRing,
    TruncatedSeries,
    char_poly,
    decompose,
    dominant_balance,
    eigenvalue_correction,
    euclid_divide,
    monic_shadow,
    perturbation_poly,
    pgcd,
    poly_gcd,
    root_correction,
    univariate_ring,
)
from perturbalg.errors import (
    DegenerateError,
    DomainError,
    RingMismatchError,
    UnsupportedOrderError,
)
from perturbalg.exactpoly import from_roots
from perturbalg import series
from perturbalg.series import _bits_of

from conftest import (
    NOT_ONE_EDGE,
    NOT_ONE_EDGE_IDS,
    assert_round_trips,
    gaussian_scalars,
    gaussian_series,
    not_one_edge,
    random_exact_poly,
    random_infinitesimal,
    random_perturbed_poly,
    seeded,
)


@pytest.fixture
def worked_pair():
    ring = SeriesRing(("e1", "e2", "e3"), 8)
    e1, e2, e3 = (ring.generator(g) for g in ring.generators)
    a = PerturbedPolynomial(ring, [e2 - 1, -e1, ring.zero(), ring.one()])
    b = PerturbedPolynomial(ring, [ring.constant(-1), e3, ring.one()])
    return ring, a, b


def test_evaluate(ring, t):
    poly = PerturbedPolynomial(ring, [-1, 0, 1])
    assert poly.evaluate(1 + t) == 2 * t + t**2
    assert poly.evaluate(ring.zero()) == ring.constant(-1)
    shifted = PerturbedPolynomial(ring, [1 - t, -2, 1])
    assert shifted.evaluate(ring.one()) == -t


def test_evaluate_is_exact_only(ring, t):
    # one Horner for both domains; float evaluation lives in the oracle
    exact = ExactPolynomial([-1, 0, 1])
    assert exact.evaluate(Fraction(1, 2)) == GaussianRational(Fraction(-3, 4))
    assert exact.evaluate(GaussianRational(0, 1)) == -2
    with pytest.raises(TypeError):
        exact.evaluate(0.5 + 0.25j)
    with pytest.raises(TypeError):
        exact.evaluate(0.5)
    poly = PerturbedPolynomial(ring, [-1, 0, 1])
    assert poly.evaluate(Fraction(1, 2)) == ring.constant(Fraction(-3, 4))
    with pytest.raises(TypeError):
        poly.evaluate(0.5 + 0.25j)
    other = SeriesRing(("t",), 4).generator("t")
    with pytest.raises(RingMismatchError, match="coefficient from a different ring"):
        poly.evaluate(other)


def test_derivative(ring):
    square = PerturbedPolynomial(ring, [1, -2, 1])
    assert square.derivative(2) == PerturbedPolynomial(ring, [2])
    cubic = PerturbedPolynomial(ring, [0, 0, 0, 1])
    assert cubic.derivative() == PerturbedPolynomial(ring, [0, 0, 3])
    assert PerturbedPolynomial(ring, [5]).derivative() == PerturbedPolynomial(ring, [])


def test_shadow(ring, t):
    poly = PerturbedPolynomial(ring, [-1, t, 1 + t])
    assert poly.shadow() == ExactPolynomial([-1, 0, 1])
    assert PerturbedPolynomial(ring, [0, t]).shadow() == ExactPolynomial([])


def test_shadow_of_worked_divisor(worked_pair):
    _, _, b = worked_pair
    assert b.shadow() == ExactPolynomial([-1, 0, 1])


def test_is_infinitesimal(ring, t):
    assert PerturbedPolynomial(ring, [t**2, t]).is_infinitesimal()
    assert not PerturbedPolynomial(ring, [t, 1]).is_infinitesimal()
    assert PerturbedPolynomial(ring, []).is_infinitesimal()


def test_euclid_worked_instance(worked_pair):
    ring, a, b = worked_pair
    e1, e2, e3 = (ring.generator(g) for g in ring.generators)
    quotient, remainder = euclid_divide(a, b)
    assert quotient == PerturbedPolynomial(ring, [-e3, ring.one()])
    assert remainder == PerturbedPolynomial(ring, [-(1 - e2 + e3), 1 - e1 + e3**2])


def test_euclid_simple(ring, t):
    num = PerturbedPolynomial(ring, [0, 0, 1])
    den = PerturbedPolynomial(ring, [-t, 1])
    quotient, remainder = euclid_divide(num, den)
    assert quotient == PerturbedPolynomial(ring, [t, 1])
    assert remainder == PerturbedPolynomial(ring, [t**2])


def test_euclid_self(worked_pair):
    ring, a, _ = worked_pair
    quotient, remainder = euclid_divide(a, a)
    assert quotient == PerturbedPolynomial(ring, [1])
    assert remainder.is_zero()


def test_euclid_skips_the_leading_product(ring, t, monkeypatch):
    # q_k pairs q_(k+1), ... with b_(d-1), ... and takes one product by the
    # inverse of b's leading coefficient; r_j pairs q_0, ... with b_j, ...: in
    # all each q_i meets each of b_0 .. b_(d-1) once, and q_i * b_d is never
    # formed.  Every product of two series is one row product.
    rng = seeded(41)
    a = PerturbedPolynomial(ring, [k + 2 + random_infinitesimal(rng, ring) for k in range(6)])
    b = PerturbedPolynomial(ring, [k + 3 + random_infinitesimal(rng, ring) for k in range(3)])
    # the inverse is expanded ahead, so the count holds the division's products alone
    inverse = b.leading.invert()
    monkeypatch.setattr(TruncatedSeries, "invert", lambda self: inverse)
    products = [0]
    mul_rows = series._mul_rows

    def counted(*args, **kwargs):
        products[0] += 1
        return mul_rows(*args, **kwargs)

    monkeypatch.setattr(series, "_mul_rows", counted)
    quotient, remainder = divmod(a, b)
    assert products[0] == (quotient.degree + 1) * (b.degree + 1) == 4 * 3
    monkeypatch.undo()
    assert b * quotient + remainder == a and remainder.degree < b.degree


def test_euclid_non_unit_divisor(ring, t):
    with pytest.raises(NonUnitError):
        euclid_divide(
            PerturbedPolynomial(ring, [1, 0, 1]), PerturbedPolynomial(ring, [1, t])
        )


def test_euclid_error_order_and_short_path(ring, t):
    small = PerturbedPolynomial(ring, [1, t])
    with pytest.raises(ZeroDivisionError):
        euclid_divide(small, PerturbedPolynomial.zero(ring))
    # a non-unit divisor is refused even when the dividend has lower degree
    with pytest.raises(NonUnitError):
        euclid_divide(small, PerturbedPolynomial(ring, [1, 0, t]))
    quotient, remainder = euclid_divide(small, PerturbedPolynomial(ring, [1, 0, 1]))
    assert quotient.is_zero() and remainder == small
    exact = ExactPolynomial([1, 2])
    assert divmod(exact, ExactPolynomial([0, 0, 3])) == (0, exact)
    with pytest.raises(ZeroDivisionError):
        divmod(exact, 0)


def test_arithmetic_needs_one_indeterminate(ring):
    pairs = [
        (ExactPolynomial([1, 2]), ExactPolynomial([1, 2], "p")),
        (ExactPolynomial([1]), ExactPolynomial([1, 2], "p")),
        (PerturbedPolynomial(ring, [1, 2]), PerturbedPolynomial(ring, [1, 2], "p")),
    ]
    for x, p in pairs:
        for operation in (operator.add, operator.sub, operator.mul, divmod):
            with pytest.raises(DomainError, match="indeterminates differ: 'p' vs 'X'"):
                operation(x, p)
    # scalars still coerce into either indeterminate
    assert ExactPolynomial([1, 2], "p") + 1 == ExactPolynomial([2, 2], "p")


def test_division_identity_random():
    rng = seeded(31)
    ring = SeriesRing(("t", "e1"), 6)
    for _ in range(100):
        a = random_perturbed_poly(rng, ring, unit_lead=False)
        b = random_perturbed_poly(rng, ring, unit_lead=True)
        quotient, remainder = euclid_divide(a, b)
        assert b * quotient + remainder == a
        assert remainder.degree < b.degree
        assert (a // b, a % b) == (quotient, remainder)


def test_shadow_commutation_random():
    rng = seeded(32)
    ring = SeriesRing(("t",), 8)
    for _ in range(50):
        a = random_perturbed_poly(rng, ring, unit_lead=False)
        b = random_perturbed_poly(rng, ring, unit_lead=True)
        quotient, remainder = euclid_divide(a, b)
        exact_q, exact_r = divmod(a.shadow(), b.shadow())
        assert quotient.shadow() == exact_q
        assert remainder.shadow() == exact_r


def test_pgcd_worked_instance(worked_pair):
    ring, a, b = worked_pair
    e1, e2, e3 = (ring.generator(g) for g in ring.generators)
    result, trace = pgcd(a, b)
    assert result == PerturbedPolynomial(ring, [-(1 - e2 + e3), 1 - e1 + e3**2])
    assert monic_shadow(result) == ExactPolynomial([-1, 1])
    assert trace[-1].wholly_infinitesimal


def test_pgcd_exact_zero_chain(ring):
    a = PerturbedPolynomial(ring, [-1, 0, 1])
    b = PerturbedPolynomial(ring, [-1, 1])
    result, trace = pgcd(a, b)
    assert result == b
    assert trace[-1].exact_zero


def test_pgcd_exact_cubic(ring):
    a = PerturbedPolynomial(ring, [-1, 0, 0, 1])
    b = PerturbedPolynomial(ring, [-1, 0, 1])
    result, _ = pgcd(a, b)
    assert monic_shadow(result) == ExactPolynomial([-1, 1])


def test_pgcd_rejects_wholly_infinitesimal_pair(ring, t):
    a = PerturbedPolynomial(ring, [t, t**2])
    b = PerturbedPolynomial(ring, [t**3])
    with pytest.raises(DomainError):
        pgcd(a, b)


def test_pgcd_keeps_input_when_other_is_infinitesimal(ring, t):
    a = PerturbedPolynomial(ring, [1, 0, 1])
    b = PerturbedPolynomial(ring, [t])
    result, trace = pgcd(a, b)
    assert result == a and trace == []


def exact_polys(min_degree):
    """Strategy: random_exact_poly's polynomials of degree <= 2, Gaussian coefficients."""
    return st.lists(gaussian_scalars, min_size=min_degree + 1, max_size=3).map(
        lambda coeffs: ExactPolynomial(coeffs[:-1] + [coeffs[-1] or GaussianRational(1)])
    )


_factors, _cofactors = exact_polys(1), exact_polys(0)
_SHADOW_RING = SeriesRing(("t",), 8)
# random_infinitesimal's noise: a series of valuation >= 1, plus t^k (k <= 4)
# where it is zero or of valuation above 4
_noise = st.tuples(gaussian_series(_SHADOW_RING, min_valuation=1), st.integers(1, 4)).map(
    lambda pair: pair[0]
    if pair[0] and pair[0].valuation() <= 4
    else pair[0] + _SHADOW_RING.generator("t") ** pair[1]
)


@st.composite
def shared_factors(draw):
    """(d, [d*a1 + noise, d*a2 + noise]) with deg d in 1..2 and a1, a2 coprime."""
    d = draw(_factors)
    cofactors = draw(_cofactors), draw(_cofactors)
    assume(poly_gcd(*cofactors).degree == 0)
    noisy = []
    for cofactor in cofactors:
        product = PerturbedPolynomial.from_exact(d * cofactor, _SHADOW_RING)
        noise = [draw(_noise) for _ in range(product.degree + 1)]
        noisy.append(product + PerturbedPolynomial(_SHADOW_RING, noise))
    return d, noisy


@settings(max_examples=50, deadline=None, derandomize=True)
@given(shared_factors())
def test_pgcd_shadow_property_random(case):
    d, (a, b) = case
    result, _ = pgcd(a, b)
    assert monic_shadow(result) == d.monic()


def test_taylor_coefficients_match_derivatives():
    rng = seeded(31)
    ring = SeriesRing(("t", "e1"), 4)
    for _ in range(30):
        root = GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2))
        for poly in (random_exact_poly(rng), random_perturbed_poly(rng, ring, unit_lead=False)):
            expected = [
                poly.derivative(j).evaluate(root) / math.factorial(j)
                for j in range(poly.degree + 1)
            ]
            assert list(poly.taylor_coefficients(root)) == expected
        # a perturbed polynomial also shifts to a series point
        point = root + ring.generator("t") - 2 * ring.generator("e1")
        expected = [
            poly.derivative(j).evaluate(point) / math.factorial(j) for j in range(poly.degree + 1)
        ]
        assert list(poly.taylor_coefficients(point)) == expected
    assert list(ExactPolynomial([]).taylor_coefficients(1)) == []


def _reference_shift(poly, point):
    """P(X + point)'s coefficients by per-step Horner: one scalar or series sum per step."""
    point = poly._lift(point)
    shifted = list(poly.coeffs)
    for j in range(len(shifted)):
        for k in range(len(shifted) - 2, j - 1, -1):
            shifted[k] = shifted[k] + shifted[k + 1] * point
        yield shifted[j]


def _stored(value):
    """The integers a value stores: a series' (den, rows), a scalar's (a, b, d)."""
    if isinstance(value, TruncatedSeries):
        return value.den, value.rows
    return value.a, value.b, value.d


_SHIFT_RING = SeriesRing(("t", "e1"), 3)
_points = st.one_of(st.just(GaussianRational(0)), gaussian_scalars)
_series_polys = st.lists(
    st.one_of(st.just(_SHIFT_RING.zero()), gaussian_series(_SHIFT_RING)), max_size=5
).map(lambda coeffs: PerturbedPolynomial(_SHIFT_RING, coeffs))
_shifts = st.one_of(
    st.tuples(st.lists(gaussian_scalars, max_size=7).map(ExactPolynomial), _points),
    st.tuples(_series_polys, _points),
    st.tuples(_series_polys, gaussian_series(_SHIFT_RING)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_shifts)
def test_taylor_shift_matches_the_per_step_reference(case):
    poly, point = case
    shifted = list(poly.taylor_coefficients(point))
    expected = list(_reference_shift(poly, point))
    assert shifted == expected
    assert [_stored(c) for c in shifted] == [_stored(c) for c in expected]


def test_first_nonzero_derivative():
    """The multiplicity m at u and P^(m)(u) = m! c_m, c_m the first nonzero Taylor coefficient."""

    def first_nonzero_derivative(poly, root):
        mult = poly.multiplicity(root)
        lead = next((c for c in poly.taylor_coefficients(root) if c), GaussianRational(0))
        return mult, lead * math.factorial(mult)

    square = ExactPolynomial([1, -2, 1])
    assert first_nonzero_derivative(square, 1) == (2, GaussianRational(2))
    assert first_nonzero_derivative(square, 3) == (0, GaussianRational(4))
    assert first_nonzero_derivative(ExactPolynomial([]), 1) == (0, GaussianRational(0))
    assert first_nonzero_derivative(from_roots([2, 2, 2, -1]), 2) == (3, GaussianRational(18))
    assert ExactPolynomial([-1, 1]).multiplicity(1) == 1
    assert ExactPolynomial([-1, 1]).multiplicity(2) == 0


def reference_stored_bits(poly) -> int:
    """The bit count read off the terms view: its definition.

    A coefficient stores the lcm of its terms' denominators and each real or
    imaginary part times that lcm.
    """
    stored = [1]
    for series in poly.coeffs:
        parts = [f for c in series.terms.values() for f in (c.re, c.im)]
        den = math.lcm(*(f.denominator for f in parts))
        stored += [den, *(abs(int(f * den)) for f in parts)]
    return (max(stored) - 1).bit_length()


def test_stored_bits_match_terms():
    rng = seeded(32)
    ring = SeriesRing(("e1", "e2", "e3"), 4)

    def part():
        return rng.choice((0, 1, -1)) * rng.getrandbits(rng.randint(0, cap))

    for _ in range(300):
        cap = rng.choice((1, 2, 4, 16, 80))  # parts up to 80 bits, small ones often
        coeffs = []
        for _ in range(rng.randint(0, 4)):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                index = tuple(rng.randint(0, 2) for _ in ring.generators)
                den_re, den_im = (1 + rng.getrandbits(rng.randint(0, cap)) for _ in range(2))
                terms[index] = GaussianRational(Fraction(part(), den_re), Fraction(part(), den_im))
            coeffs.append(TruncatedSeries(ring, terms))
        poly = PerturbedPolynomial(ring, coeffs)
        stored = max((_bits_of(c.den, c.rows) for c in poly.coeffs), default=0)
        assert stored == reference_stored_bits(poly)


def test_stored_bits_count_integers_as_stored():
    assert _bits_of(1, {}) == 0
    # ceil(log2 |n|): a power of two has its exponent, one more adds a bit
    assert _bits_of(2**4096, {}) == 4096
    assert _bits_of(2**4096 + 1, {}) == 4097
    assert _bits_of(1, {0: (0, 0, -(2**80))}) == 80
    assert _bits_of(3, {0: (0, -(2**80) - 1, 0)}) == 81
    # 2/6 reduces to 1/3, but the value stores 6: no gcd is taken
    assert _bits_of(6, {0: (0, 2, 0)}) == 3
    # the rows share the den; the largest integer of all counts
    assert _bits_of(5, {0: (0, 1, 0), 7: (1, 0, 100)}) == 7


def test_root_correction_simple(ring, t):
    asym = root_correction(ExactPolynomial([-1, 0, 1]), PerturbedPolynomial(ring, [t]), 1)
    assert asym.order == 1
    assert asym.rhs == t * Fraction(-1, 2)


def test_root_correction_double(ring, t):
    asym = root_correction(
        ExactPolynomial([1, -2, 1]), PerturbedPolynomial(ring, [-t]), 1
    )
    assert asym.order == 2
    assert asym.rhs == t


def test_root_correction_degenerate(ring):
    with pytest.raises(DegenerateError):
        root_correction(
            ExactPolynomial([1, -2, 1]), PerturbedPolynomial(ring, []), 1
        )


def test_root_correction_with_decomposition(ring, t):
    # Xi = t*(X - 2) + t^2: decomposition levels t*(-2, 1) then t*(1, 0)
    shift = PerturbedPolynomial(ring, [t**2 - 2 * t, t])
    decomposition = decompose([shift.coefficient(0), shift.coefficient(1)])
    base = ExactPolynomial([-4, 0, 1])  # roots +-2
    asym = root_correction(base, shift, 2, decomposition=decomposition)
    # U_1(X) = X - 2 vanishes at u = 2, so the second level leads
    assert asym.leading_level == 1
    direct = root_correction(base, shift, 2)
    assert asym.rhs.leading_part() == direct.rhs


def test_root_correction_rejects_a_decomposition_of_another_vector(ring, t):
    # Xi = (t^2 - 2*t) + t*X at the root 2 of X^2 - 4: Xi(2) = t^2
    shift = PerturbedPolynomial(ring, [t**2 - 2 * t, t])
    base = ExactPolynomial([-4, 0, 1])
    assert str(root_correction(base, shift, 2)) == "xi ~ -1/4*t^2 (at root 2)"
    for vector in ([t, t], [t**2 - 2 * t, t, t]):
        with pytest.raises(DomainError, match="decomposition does not match Xi"):
            root_correction(base, shift, 2, decomposition=decompose(vector))
    matching = root_correction(base, shift, 2, decomposition=decompose(list(shift.coeffs)))
    assert (matching.rhs, matching.leading_level) == (t**2 * Fraction(-1, 4), 1)


def test_root_correction_builds_only_the_levels_it_reads(monkeypatch, ring, t):
    from perturbalg import goze

    divide, calls = goze.divide_univariate, []

    def counting(num, den):
        calls.append(den)
        return divide(num, den)

    monkeypatch.setattr(goze, "divide_univariate", counting)
    # Xi = t*(X - 1) + t^2*X^2 at the root 2 of X^2 - 4: levels t*(-1, 1, 0)
    # then t*(0, 0, 1), and U_1(X) = X - 1 does not vanish at 2
    shift = PerturbedPolynomial(ring, [-t, t, t**2])
    decomposition = decompose(list(shift.coeffs))
    claim = root_correction(ExactPolynomial([-4, 0, 1]), shift, 2, decomposition=decomposition)
    assert claim.leading_level == 0 and len(calls) == 1
    assert decomposition.rank() == 2 and len(calls) == 2


@pytest.mark.parametrize(
    "base_text, shift_text, old_claim, expected", NOT_ONE_EDGE, ids=NOT_ONE_EDGE_IDS
)
def test_root_correction_answers_only_on_one_clean_edge(base_text, shift_text, old_claim, expected):
    base, shift, _ = not_one_edge(base_text, shift_text, old_claim)
    with pytest.raises(DegenerateError, match="use dominant_balance"):
        root_correction(base, shift, 1)
    branches = dominant_balance(base, shift, 1)
    assert [str(b).removesuffix(" (at root 1)") for b in branches] == expected
    _assert_branches_match_mpmath(base, shift, 1, branches)


def test_eigenvalue_correction_refuses_a_balanced_hull(ring, t):
    # I + t*[[1, 2], [3, 4]]: the eigenvalues move by t*(5 +- sqrt(33))/2
    matrix_base = ConstantMatrix([[1, 0], [0, 1]])
    pert = [[t, 2 * t], [3 * t, 4 * t]]
    with pytest.raises(DegenerateError):
        eigenvalue_correction(matrix_base, pert, 1)
    base, shift, _ = not_one_edge(*NOT_ONE_EDGE[0][:3])
    assert char_poly(matrix_base) == base
    assert perturbation_poly(PerturbedMatrix(matrix_base, pert)) == shift


def test_root_correction_reads_valuations_only_in_multivariate_rings():
    ring = SeriesRing(("e1", "e2"), 4)
    e1, e2 = ring.generator("e1"), ring.generator("e2")
    base = ExactPolynomial([1, -2, 1])
    # c_0 = -e1 + e2^2 and c_1 = e2^2 + 2*e1*e2: (1, 2) lies above the edge
    clean = PerturbedPolynomial(ring, [-e1 - e1 * e2, e2 * e2, e1 * e2])
    assert str(root_correction(base, clean, 1)) == "xi^2 ~ e1 (at root 1)"
    # c_0 = e1^3 and c_1 = e1: (1, 1) lies below the segment from (0, 3) to
    # (2, 0), and only dominant_balance would divide c_0 by c_1
    mixed = PerturbedPolynomial(ring, [e1**3 - e1, e1])
    with pytest.raises(DegenerateError):
        root_correction(base, mixed, 1)
    with pytest.raises(DomainError, match="needs the univariate ring"):
        dominant_balance(base, mixed, 1)


def test_the_root_claims_share_one_argument_order(ring, t):
    # every public root claim reads (base, shift_poly, root)
    base = ExactPolynomial([1, -2, 1])
    shift = PerturbedPolynomial(ring, [-t, t**2])
    asym, branches = (claim(base, shift, 1) for claim in (root_correction, dominant_balance))
    assert asym.rhs == t
    assert branches == [asym]


def test_balance_factored_case(ring, t):
    base = ExactPolynomial([1, -2, 1])
    shift = PerturbedPolynomial(ring, [-t, t])  # t*(X-1)
    branches = dominant_balance(base, shift, 1)
    assert len(branches) == 2
    assert branches[0].rhs.is_zero()
    assert branches[1].rhs == -t


def test_balance_pure_constant_case(ring, t):
    base = ExactPolynomial([1, -2, 1])
    branches = dominant_balance(base, PerturbedPolynomial(ring, [-t]), 1)
    assert len(branches) == 1
    assert branches[0].order == 2
    assert branches[0].rhs == t


def test_balance_quadratic_case(ring, t):
    base = ExactPolynomial([1, -2, 1])
    shift = PerturbedPolynomial(ring, [-t - t**2, t])  # t*(X-1) - t^2
    (balance,) = dominant_balance(base, shift, 1)
    assert isinstance(balance, BalanceQuadratic)
    assert balance.quad_coeff == GaussianRational(1)
    assert balance.linear == t
    assert balance.constant == -(t**2)


def test_balance_mixed_scales(ring, t):
    # Xi(u) = -t^3 while Xi'(u) = t: two separated branches
    base = ExactPolynomial([1, -2, 1])
    shift = PerturbedPolynomial(ring, [-t - t**3, t])
    small, large = dominant_balance(base, shift, 1)
    assert small.rhs == t**2
    assert large.rhs == -t


def test_balance_triple_root(ring, t):
    # (X-1)^3 + t: one edge from (0, 1) to (3, 0)
    (claim,) = dominant_balance(
        ExactPolynomial([-1, 3, -3, 1]), PerturbedPolynomial(ring, [t]), 1
    )
    assert claim.order == 3 and claim.rhs == -t
    assert str(claim) == "xi^3 ~ -t (at root 1)"


def test_balance_rejects_interior_point(ring, t):
    # Xi = t^3 + t^2*(X-1) + t*(X-1)^2 puts (0, 3), (1, 2), (2, 1), (3, 0) on one edge
    x = PerturbedPolynomial(ring, [-1, 1])
    shift = x * x * t + x * t**2 + t**3
    with pytest.raises(UnsupportedOrderError):
        dominant_balance(ExactPolynomial([-1, 3, -3, 1]), shift, 1)


# -- Newton-polygon branches against mpmath roots -------------------------------

T0 = Fraction(1, 10**20)


def _mp(value: GaussianRational):
    return mpmath.mpc(
        mpmath.mpf(value.re.numerator) / value.re.denominator,
        mpmath.mpf(value.im.numerator) / value.im.denominator,
    )


def _at_t0(series):
    return sum(
        (c * T0 ** sum(index) for index, c in series.terms.items()), GaussianRational(0)
    )


def _roots(poly: ExactPolynomial) -> list:
    """Every root of an exact polynomial, repeated by multiplicity."""
    roots = []
    while poly.degree > 0:
        repeated = poly_gcd(poly, poly.derivative())
        simple = poly // repeated
        roots += mpmath.polyroots(
            [_mp(c) for c in reversed(simple.coeffs)], maxsteps=400, extraprec=400
        )
        poly = repeated
    return roots


def _assert_branches_match_mpmath(base, shift, root, branches):
    """The branches against the roots of P + Xi at t = 1e-20.

    A root that stays put must divide P + Xi exactly; every other branch lies
    within 1% of a root of its own, found by mpmath at 200 digits.
    """
    mixed = base + ExactPolynomial([_at_t0(c) for c in shift.coeffs])
    predicted, stills = [], 0
    with mpmath.workdps(200):
        for branch in branches:
            if isinstance(branch, BalanceQuadratic):
                a2 = _mp(branch.quad_coeff)
                a1, a0 = _mp(_at_t0(branch.linear)), _mp(_at_t0(branch.constant))
                disc = mpmath.sqrt(a1 * a1 - 4 * a2 * a0)
                predicted += [(-a1 + disc) / (2 * a2), (-a1 - disc) / (2 * a2)]
            elif branch.rhs.is_zero():
                stills += 1
            else:
                value = _mp(_at_t0(branch.rhs))
                predicted += [mpmath.root(value, branch.order, k) for k in range(branch.order)]
        assert stills + len(predicted) == base.multiplicity(root)
        mixed, remainder = divmod(mixed, ExactPolynomial([-root, 1]) ** stills)
        assert remainder.is_zero()
        u = _mp(GaussianRational.coerce(root))
        cluster = sorted(_roots(mixed), key=lambda r: abs(r - u))[: len(predicted)]
        for p in predicted:
            r = min(cluster, key=lambda r: abs(r - u - p))
            cluster.remove(r)
            assert abs(r - u - p) <= abs(p) / 100


def _taylor_shift(ring, root, pairs):
    """Xi = sum_j c_j * t^v_j * (X - root)^j for pairs ((re, im), v_j)."""
    x = PerturbedPolynomial(ring, [-GaussianRational.coerce(root), 1])
    shift, power = PerturbedPolynomial.zero(ring), PerturbedPolynomial(ring, [1])
    for (re, im), valuation in pairs:
        shift = shift + power * (ring.generator("t") ** valuation * GaussianRational(re, im))
        power = power * x
    return shift


def test_a_zero_base_has_no_root_to_read():
    # every point is a root of the zero polynomial, and no Taylor coefficient
    # of it is nonzero, so no claim has a multiplicity or a scale
    ring = univariate_ring(8)
    shift = PerturbedPolynomial(ring, [0, ring.generator("t")])
    zero = ExactPolynomial([])
    for claim in (
        lambda: root_correction(zero, shift, 2),
        lambda: dominant_balance(zero, shift, 2),
    ):
        with pytest.raises(DomainError, match="^the base polynomial is zero$"):
            claim()
    with pytest.raises(DomainError, match="^2 is not a root of X$"):
        root_correction(ExactPolynomial([0, 1]), shift, 2)


def test_balance_needs_infinitesimal_shift():
    # Xi = X is not infinitesimal, so no balance at u = 1 means anything
    shift = PerturbedPolynomial(univariate_ring(8), [0, 1])
    with pytest.raises(DomainError, match="must be wholly infinitesimal"):
        dominant_balance(ExactPolynomial([1, -2, 1]), shift, 1)


@pytest.mark.parametrize(
    "base_roots, pairs, expected",
    [
        # one edge from (0, 1) to (3, 0); the Taylor coefficient c_3 is 3
        ([1, 1, 1, -2], [((1, 0), 1)], ["xi^3 ~ -1/3*t"]),
        # Xi(1) = 0 keeps a root, then one edge from (1, 1) to (3, 0)
        ([1, 1, 1], [((0, 0), 1), ((1, 0), 1)], ["xi ~ 0", "xi^2 ~ -t"]),
        # two edges, (0, 3)-(1, 1) and (1, 1)-(3, 0)
        ([1, 1, 1], [((1, 0), 3), ((1, 0), 1)], ["xi ~ -t^2", "xi^2 ~ -t"]),
        # one edge from (0, 2) to (4, 0); c_4 is -2
        ([1, 1, 1, 1, 3], [((1, 0), 2)], ["xi^4 ~ 1/2*t^2"]),
        # three edges through (0, 5), (1, 2), (2, 1), (4, 0); c_0 is imaginary
        (
            [1, 1, 1, 1],
            [((0, 1), 5), ((1, 0), 2), ((1, 0), 1)],
            ["xi ~ -i*t^3", "xi ~ -t", "xi^2 ~ -t"],
        ),
    ],
    ids=("cube", "still-then-square", "two-edges", "fourth-power", "three-edges"),
)
def test_balance_higher_order_matches_mpmath(base_roots, pairs, expected):
    ring = univariate_ring(6)
    base = from_roots(base_roots)
    shift = _taylor_shift(ring, 1, pairs)
    branches = dominant_balance(base, shift, 1)
    assert [str(b).removesuffix(" (at root 1)") for b in branches] == expected
    _assert_branches_match_mpmath(base, shift, 1, branches)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    mult=st.integers(1, 4),
    root=st.integers(-2, 2),
    others=st.sets(st.integers(-3, 3), min_size=1, max_size=2),
    pairs=st.lists(
        st.tuples(st.tuples(st.integers(-3, 3), st.integers(-1, 1)), st.integers(1, 6)),
        max_size=4,
    ),
)
def test_balance_orders_sum_to_multiplicity(mult, root, others, pairs):
    ring = univariate_ring(6)
    base = from_roots([root] * mult + sorted(others - {root} or {root + 5}))
    shift = _taylor_shift(ring, root, pairs[: mult + 1])
    try:
        branches = dominant_balance(base, shift, root)
    except UnsupportedOrderError:
        with pytest.raises(DegenerateError):
            root_correction(base, shift, root)
        return
    assert sum(2 if isinstance(b, BalanceQuadratic) else b.order for b in branches) == mult
    _assert_branches_match_mpmath(base, shift, root, branches)
    # root_correction answers exactly where the walk finds one clean edge
    (first, *rest) = branches
    one_edge = isinstance(first, RootAsymptotics) and first.order == mult
    if one_edge and not rest and not first.rhs.is_zero():
        assert root_correction(base, shift, root) == first
    else:
        with pytest.raises(DegenerateError):
            root_correction(base, shift, root)


def test_exact_polynomials_pickle_and_copy():
    for poly in (
        ExactPolynomial([]),
        ExactPolynomial([3]),
        from_roots([1, GaussianRational(0, 2)]),
        ExactPolynomial([1, Fraction(2, 3)], "p"),
    ):
        assert_round_trips(poly)


def test_perturbed_polynomials_and_rational_functions_pickle_and_copy(ring, t):
    for poly in (
        PerturbedPolynomial(ring, []),
        PerturbedPolynomial(ring, [t**2 - t, GaussianRational(0, 2), 1]),
        PerturbedPolynomial(ring, [t, 1], "p"),
    ):
        assert_round_trips(poly, hashed=False)  # PerturbedPolynomial has no hash
    for num, den in (([2, 4], [6, 2]), ([0], [5]), ([1, 2], [1, 3, 2])):
        assert_round_trips(ExactRationalFunction(ExactPolynomial(num), ExactPolynomial(den)))
