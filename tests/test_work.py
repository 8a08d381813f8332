"""Deterministic work counts of the exact kernels, against committed ceilings.

Timing on a shared host cannot settle a few per cent; a count of the objects
a computation builds can.  A change that raises a count past its ceiling
raises the ceiling and says why.
"""

from perturbalg import ConstantMatrix, parsing, scalars
from perturbalg.matrices import char_poly

# a fixed 6x6 integer matrix, entries in -5..5
MATRIX = [[(3 * i + 5 * j + i * j) % 11 - 5 for j in range(6)] for i in range(6)]
# 24 monomial terms of five factors or so each, in t, e1 and the indeterminate
TEXT = " + ".join(
    f"{k + 2}*t^{k % 3}*e1*X^{k} - {k + 1}/{k + 3}*i*t*e1^2*X^{k}" for k in range(12)
)

# Berkowitz's dot products each build one scalar, not one per product and sum
SCALARS_PER_CHAR_POLY = 112  # a loop of reduced sums and products builds 486
# one value per term and one per sum of terms, none per factor
VALUES_PER_PARSE = 2 * 24 - 1  # a value per factor makes 341
# sums, products and powers of parenthesised values, in the indeterminate and t
POWERS_TEXT = "(1+t)^3*X + (2+X)^5*t - (X - 1)^2*(X+1)^2"
# a power starts from the unit row, not from a value of it: one value fewer per power
VALUES_PER_POWERS_PARSE = 26  # a value for each power's unit makes 30


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
