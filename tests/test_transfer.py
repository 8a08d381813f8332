from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perturbalg import (
    ExactPolynomial,
    ExactRationalFunction,
    GaussianRational,
    PerturbedPolynomial,
    RationalFunction,
    SeriesRing,
    TruncatedSeries,
    first_order_correction,
    ppoly,
    simplify,
    transfer,
    univariate_ring,
)
from perturbalg.errors import DomainError
from perturbalg.exactpoly import Polynomial
from perturbalg.oracle import default_values, transfer_residual
from perturbalg.parsing import parse_polynomial


@pytest.fixture
def worked_function():
    ring = SeriesRing(("e1", "e2", "e3"), 8)
    return RationalFunction(
        parse_polynomial("p^3 - e1*p - 1 + e2", ring, "p"),
        parse_polynomial("p^2 + e3*p - 1", ring, "p"),
    )


def rational(num_coeffs, den_coeffs):
    return ExactRationalFunction(
        ExactPolynomial(num_coeffs, "p"), ExactPolynomial(den_coeffs, "p")
    )


def test_worked_reduction(worked_function):
    report = simplify(worked_function)
    assert report.reduced_shadow == rational([1, 1, 1], [1, 1])
    # back-substitution: num = pgcd*quotient + residual holds exactly, and
    # each residual is infinitesimal
    for polynomial in (worked_function.num, worked_function.den):
        quotient, residual = divmod(polynomial, report.pgcd)
        assert residual.is_infinitesimal()
        assert report.pgcd * quotient + residual == polynomial


def test_simplify_expands_each_inverse_once(worked_function, monkeypatch):
    # pgcd inverts the divisor's leading coefficient once per Euclid step,
    # and nothing else in simplify inverts a series
    invert = TruncatedSeries.invert
    inverted = []

    def counted(self):
        inverted.append(self)
        return invert(self)

    monkeypatch.setattr(TruncatedSeries, "invert", counted)
    simplify(worked_function)
    assert len(inverted) == len(set(inverted)) == 2


def test_simplify_divides_only_in_pgcd(worked_function, monkeypatch):
    # the reduced shadow is read off the shadows: simplify divides series
    # polynomials exactly as often as pgcd alone does
    divide = Polynomial.__divmod__
    calls = [0]

    def counted(self, other):
        calls[0] += isinstance(self, PerturbedPolynomial)
        return divide(self, other)

    monkeypatch.setattr(Polynomial, "__divmod__", counted)
    ppoly.pgcd(worked_function.num, worked_function.den)
    alone, calls[0] = calls[0], 0
    simplify(worked_function)
    assert calls[0] == alone > 0


def test_worked_first_order(worked_function):
    corrections = first_order_correction(worked_function)
    assert corrections["e1"] == rational([0, -1], [-1, 0, 1])
    assert corrections["e2"] == rational([1], [-1, 0, 1])
    assert corrections["e3"] == rational([0, -1, -1, -1], [-1, -1, 1, 1])
    assert set(corrections) == {"e1", "e2", "e3"}


def test_exact_coprime_is_identity():
    ring = univariate_ring(8)
    function = RationalFunction(
        parse_polynomial("p + 1", ring, "p"), parse_polynomial("p + 2", ring, "p")
    )
    report = simplify(function)
    assert report.reduced_shadow == rational([1, 1], [2, 1])
    assert report.first_order == {}
    assert (function.num % report.pgcd).is_zero() and (function.den % report.pgcd).is_zero()


def test_exact_cancellation():
    ring = univariate_ring(8)
    function = RationalFunction(
        parse_polynomial("p^2 - 1", ring, "p"), parse_polynomial("p - 1", ring, "p")
    )
    report = simplify(function)
    assert report.reduced_shadow == rational([1, 1], [1])


def test_linear_shift_correction():
    ring = univariate_ring(8, name="e1")
    function = RationalFunction(
        parse_polynomial("p + e1", ring, "p"),
        PerturbedPolynomial(ring, [ring.one()], "p"),
    )
    corrections = first_order_correction(function)
    assert corrections == {"e1": rational([1], [1])}


def test_infinitesimal_denominator_rejected():
    ring = univariate_ring(8)
    with pytest.raises(DomainError):
        RationalFunction(
            parse_polynomial("p", ring, "p"), parse_polynomial("t", ring, "p")
        )


@pytest.mark.parametrize(
    "den_ring, den_var, message",
    [
        (SeriesRing(("t",), 4), "p", "numerator and denominator from different rings"),
        (SeriesRing(("t",), 8), "X", "numerator and denominator in different variables"),
    ],
)
def test_rational_function_needs_one_ring_and_one_indeterminate(den_ring, den_var, message):
    num = parse_polynomial("p + t", univariate_ring(8), "p")
    den = parse_polynomial(f"{den_var} + 1", den_ring, den_var)
    with pytest.raises(DomainError, match=message):
        RationalFunction(num, den)


def test_reduction_matches_shadow_gcd():
    rng = __import__("random").Random(61)
    from conftest import random_exact_poly, random_infinitesimal
    from perturbalg import PerturbedPolynomial

    ring = univariate_ring(8)
    checked = 0
    while checked < 20:
        num_exact = random_exact_poly(rng, max_degree=3, var="p")
        den_exact = random_exact_poly(rng, max_degree=3, var="p")
        if num_exact.is_zero() or den_exact.is_zero():
            continue
        noisy = []
        for exact in (num_exact, den_exact):
            base = PerturbedPolynomial.from_exact(exact, ring)
            noise = PerturbedPolynomial(
                ring,
                [random_infinitesimal(rng, ring) for _ in range(exact.degree + 1)],
                "p",
            )
            noisy.append(base + noise)
        report = simplify(RationalFunction(noisy[0], noisy[1]))
        assert report.reduced_shadow == ExactRationalFunction(num_exact, den_exact)
        checked += 1


def test_oracle_residual_shrinks_quadratically(worked_function):
    report = simplify(worked_function)
    generators = worked_function.num.ring.generators
    for point in (2.0, 3.0, 0.5):
        residuals = [
            transfer_residual(
                worked_function, report, point, default_values(generators, t0)
            )
            for t0 in (1e-3, 1e-4)
        ]
        factor = residuals[0] / residuals[1]
        assert 50 <= factor <= 200


def _quotient_formula(function):
    """The first-order map read through the PGCD reduction: N_g/(den0*X1).

    Y1/X1 are the shadows of the quotients of num and den by the PGCD and
    N = num*X1 - Y1*den; the map is kept here as the reference for the
    derivative that first_order_correction computes.
    """
    report = simplify(function)
    ring = function.num.ring
    y1, x1 = (function.num // report.pgcd).shadow(), (function.den // report.pgcd).shadow()
    difference = (
        function.num * PerturbedPolynomial.from_exact(x1, ring)
        - PerturbedPolynomial.from_exact(y1, ring) * function.den
    )
    out = {}
    for position, generator in enumerate(ring.generators):
        unit = tuple(int(i == position) for i in range(len(ring.generators)))
        numerator = ExactPolynomial([c.terms.get(unit, 0) for c in difference.coeffs], "p")
        if not numerator.is_zero():
            out[generator] = ExactRationalFunction(numerator, function.den.shadow() * x1)
    return out


_GAUSSIAN = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def _transfer_functions(draw):
    """num = G*C1 and den = G*C2 plus noise up to degree 2 in one to three generators.

    G has up to two Gaussian integer roots and C1, C2 Gaussian coefficients;
    at times an extra top coefficient that is pure noise makes a leading
    coefficient infinitesimal.
    """
    generators = draw(st.sampled_from([("t",), ("e1", "e2"), ("e1", "e2", "e3")]))
    ring = SeriesRing(generators, 4)
    width = len(generators)
    noise = [i for i in product(range(3), repeat=width) if 1 <= sum(i) <= 2]
    common = ExactPolynomial([1], "p")
    for root in draw(st.lists(_GAUSSIAN, max_size=2)):
        common = common * ExactPolynomial([-root, 1], "p")

    def polynomial():
        cofactor = ExactPolynomial(draw(st.lists(_GAUSSIAN, min_size=1, max_size=3)), "p")
        shadows = list((common * cofactor).coeffs) + [0] * draw(st.integers(0, 1))
        coeffs = []
        for shadow in shadows:
            terms = draw(st.dictionaries(st.sampled_from(noise), _GAUSSIAN, max_size=3))
            terms[(0,) * width] = shadow
            coeffs.append(TruncatedSeries(ring, terms))
        return PerturbedPolynomial(ring, coeffs, "p")

    num, den = polynomial(), polynomial()
    assume(not num.is_zero() and not den.shadow().is_zero())
    return RationalFunction(num, den)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_transfer_functions())
def test_first_order_is_the_quotient_formula(function):
    expected = _quotient_formula(function)
    corrections = first_order_correction(function)
    assert corrections == expected
    assert {g: str(c) for g, c in corrections.items()} == {g: str(c) for g, c in expected.items()}
    assert simplify(function).first_order == corrections


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_transfer_functions())
def test_reduced_shadow_matches_the_shadows_of_the_quotients(function):
    # the reference: the shadows of the quotients of num and den by the PGCD
    report = simplify(function)
    expected = ExactRationalFunction(
        (function.num // report.pgcd).shadow(), (function.den // report.pgcd).shadow()
    )
    assert report.reduced_shadow == expected
    assert str(report.reduced_shadow) == str(expected)


def test_first_order_needs_no_pgcd(worked_function, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the first-order map ran the PGCD reduction")

    monkeypatch.setattr(transfer, "pgcd", refuse)
    for name in ("pgcd", "euclid_divide"):
        monkeypatch.setattr(ppoly, name, refuse)
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(PerturbedPolynomial, name, refuse)
    assert first_order_correction(worked_function) == {
        "e1": rational([0, -1], [-1, 0, 1]),
        "e2": rational([1], [-1, 0, 1]),
        "e3": rational([0, -1, -1, -1], [-1, -1, 1, 1]),
    }


def test_first_order_of_a_zero_numerator_is_a_domain_error():
    ring = univariate_ring(8)
    function = RationalFunction(
        PerturbedPolynomial.zero(ring, "p"), parse_polynomial("p + 1", ring, "p")
    )
    with pytest.raises(DomainError, match="zero numerator"):
        first_order_correction(function)
