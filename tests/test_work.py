"""Deterministic work counts of the exact kernels, against committed ceilings.

Timing on a shared host cannot settle a few per cent; a count of the objects
a computation builds can.  A change that raises a count past its ceiling
raises the ceiling and says why.
"""

import itertools

from perturbalg import (
    ConstantMatrix,
    GaussianRational,
    SeriesRing,
    TruncatedSeries,
    goze,
    oracle,
    parsing,
    scalars,
    series,
    univariate_ring,
)
from perturbalg.matrices import char_poly, orbit_dimension, xi_first_order

# a fixed 6x6 integer matrix, entries in -5..5
MATRIX = [[(3 * i + 5 * j + i * j) % 11 - 5 for j in range(6)] for i in range(6)]
# 24 monomial terms of five factors or so each, in t, e1 and the indeterminate
TEXT = " + ".join(
    f"{k + 2}*t^{k % 3}*e1*X^{k} - {k + 1}/{k + 3}*i*t*e1^2*X^{k}" for k in range(12)
)

# Berkowitz's dot products each build one scalar, not one per product and sum
SCALARS_PER_CHAR_POLY = 112  # a loop of reduced sums and products builds 486
# forward elimination of the commutator matrix, each update skipping the zero
# entries of its pivot row
SCALARS_PER_ORBIT_DIMENSION = 19_500  # Gauss-Jordan of every row builds 70,440
# one value per term and one per sum of terms, none per factor
VALUES_PER_PARSE = 2 * 24 - 1  # a value per factor makes 341
# sums, products and powers of parenthesised values, in the indeterminate and t
POWERS_TEXT = "(1+t)^3*X + (2+X)^5*t - (X - 1)^2*(X+1)^2"
# a power starts from the unit row, not from a value of it: one value fewer per power
VALUES_PER_POWERS_PARSE = 26  # a value for each power's unit makes 30
# xi_first_order reads alpha_1 as E's first Goze pivot, building no level
GOZE_LEVELS_PER_XI_FIRST_ORDER = 0  # decomposing E for alpha_1 builds 1
# P of degree 9 with a double root at 2, and Xi in t at T = 4
ROOTS_BASE = (
    "X^9 - 3*X^8 - 75*X^7 + 219*X^6 + 1794*X^5 - 4992*X^4 - 15040*X^3"
    " + 38256*X^2 + 36000*X - 86400"
)
ROOTS_XI = (
    "(3*t + 2*t^2)*X^8 + (-4*t - t^2)*X^7 + (-5*t - 4*t^2)*X^6 + (4*t - 3*t^2)*X^5"
    " + (-2*t + t^2)*X^4 + (-7*t - 4*t^2)*X^3 + (7*t - 6*t^2)*X^2 + (-t + 7*t^2)*X"
    " + (-2*t - 6*t^2)"
)
# Aberth on P + Xi(t0) starts from P's roots, not on a circle around them all
SWEEPS_PER_SHIFTED_SOLVE = 12  # warm solves take 10-11 sweeps here, cold ones 17-20
# an inverse pairs rows one total degree at a time, about as many pairs as
# one product u*u^-1 (924 at e1, e2, e3 and T = 6, 45 at t and T = 8), plus
# one pair per row of u and of its inverse with conj(c)
PAIRS_PER_DENSE_INVERT = (
    (SeriesRing(("e1", "e2", "e3"), 6), 1007),  # the geometric series paired 2711
    (univariate_ring(8), 53),  # the geometric series paired 155
)


def test_char_poly_of_an_integer_matrix_builds_one_scalar_per_dot_product(monkeypatch):
    matrix = ConstantMatrix(MATRIX)
    built = [0]
    of = scalars._of

    def counted(*args):
        built[0] += 1
        return of(*args)

    monkeypatch.setattr(scalars, "_of", counted)
    poly = char_poly(matrix)
    assert built[0] <= SCALARS_PER_CHAR_POLY
    assert poly.degree == 6 and poly.coeffs[0] == 14641


def test_orbit_dimension_eliminates_forward_over_the_nonzero_entries(monkeypatch):
    matrix = ConstantMatrix(MATRIX)
    built = [0]
    of = scalars._of

    def counted(*args):
        built[0] += 1
        return of(*args)

    monkeypatch.setattr(scalars, "_of", counted)
    assert orbit_dimension(matrix) == 30  # cyclic: n^2 - n
    assert built[0] <= SCALARS_PER_ORBIT_DIMENSION


def _values_built(monkeypatch, text):
    """(the parsed polynomial of `text`, the count of parsed values built)."""
    built = [0]
    init = parsing._Value.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(parsing._Value, "__init__", counted)
    return parsing.parse_polynomial(text, parsing.ring_for(text)), built[0]


def test_a_monomial_term_is_one_parsed_value(monkeypatch):
    poly, built = _values_built(monkeypatch, TEXT)
    assert poly.degree == 11
    assert built <= VALUES_PER_PARSE


def test_a_power_of_a_parenthesised_value_builds_no_unit(monkeypatch):
    poly, built = _values_built(monkeypatch, POWERS_TEXT)
    assert str(poly) == (
        "t*X^5 + (-1 + 10*t)*X^4 + 40*t*X^3 + (2 + 80*t)*X^2"
        " + (1 + 83*t + 3*t^2 + t^3)*X + (-1 + 32*t)"
    )
    assert built <= VALUES_PER_POWERS_PARSE


def test_xi_first_order_builds_no_goze_level(monkeypatch):
    built = [0]
    grow = goze.GozeDecomposition._grow

    def counted(self):
        built[0] += 1
        return grow(self)

    monkeypatch.setattr(goze.GozeDecomposition, "_grow", counted)
    t = univariate_ring(4).generator("t")
    # E's least valuation, 1, ties at (0, 1) and (1, 2): alpha_1 is the first, 2*t
    pert = [[t**2, 2 * t, 0 * t], [t**3, t**2, -t], [t**2 + t**3, 0 * t, 3 * t**2]]
    xi = xi_first_order(ConstantMatrix([row[:3] for row in MATRIX[:3]]), pert)
    assert built[0] <= GOZE_LEVELS_PER_XI_FIRST_ORDER
    assert str(xi) == "t*X - 29*t"


def test_shifted_solves_start_from_the_roots_of_p(monkeypatch):
    ring = parsing.ring_for(ROOTS_XI, truncation=4)
    base = parsing.parse_polynomial(ROOTS_BASE, ring, "X").shadow()
    xi = parsing.parse_polynomial(ROOTS_XI, ring, "X")
    monkeypatch.setattr(oracle, "_last_solved", None)
    problem = oracle._solved(base, xi, 0)  # P's own solve, before the ceiling
    monkeypatch.setattr(oracle, "MAX_ITERATIONS", SWEEPS_PER_SHIFTED_SOLVE)
    for t0 in (1e-2, 1e-3, 1e-4):
        assert len(problem.roots_at(t0)) == 9  # OracleError past the ceiling


def _dense_unit(ring):
    """Every monomial of total degree <= T, with fixed small Gaussian coefficients."""
    bound = ring.truncation
    exponents = itertools.product(range(bound + 1), repeat=len(ring.generators))
    terms = [index for index in exponents if sum(index) <= bound]
    return TruncatedSeries(
        ring, {index: GaussianRational(k % 5 + 1, k % 7 - 3) for k, index in enumerate(terms)}
    )


def test_an_inverse_pairs_about_the_rows_of_one_product(monkeypatch):
    pairs = [0]
    mul_rows = series._mul_rows

    def counted(rows_a, rows_b, bound, *args):
        # the pairs within the degree cap, the ones the kernel multiplies
        for degree_a, _, _ in rows_a.values():
            pairs[0] += sum(degree_a + degree_b <= bound for degree_b, _, _ in rows_b.values())
        return mul_rows(rows_a, rows_b, bound, *args)

    monkeypatch.setattr(series, "_mul_rows", counted)
    for ring, ceiling in PAIRS_PER_DENSE_INVERT:
        unit = _dense_unit(ring)
        pairs[0] = 0
        inverse = unit.invert()
        assert pairs[0] <= ceiling
        assert unit * inverse == 1
