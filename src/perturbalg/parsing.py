"""Recursive-descent parser for the shared expression grammar.

    expr    := ('+'|'-')? term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := atom ('^' uint)?
    atom    := rational | 'i' | indeterminate | generator | '(' expr ')'
    rational:= uint ('/' uint)?

Generators are `t` and `e1` .. `e9`; the indeterminate is `X` for polynomials
and `p` for transfer functions.  Matrices are read from JSON, not from the
grammar.  Offsets in errors and spans are 0-based byte positions.

Every rule returns a value in one sparse form, `_Value`: the rows of a series
as in series.py, {packed key: (degree, re, im)} over one common denominator,
whose packed key carries the degree in the indeterminate as its top digit
(Monagan and Pearce pack every variable so).  Sums, differences and products
are the series kernel's row operations, which keep the term order of the
polynomial arithmetic they stand for and truncate in the generators inside
the product.  The X-degrees are split apart once, when the parse ends: one
series per X-degree, reduced to its own denominator.
"""

from __future__ import annotations

import functools
import json
import re
from itertools import groupby
from typing import NamedTuple

from .errors import ParseError
from .matrices import ConstantMatrix, PerturbedMatrix
from .ppoly import PerturbedPolynomial
from .scalars import GaussianRational, _power
from .series import (
    MAX_POWER_BITS,
    SeriesRing,
    TruncatedSeries,
    _from_ints,
    _merge,
    _mul_rows,
    _reduced_rows,
    _scaled,
    _stored_bits,
    _sum_rows,
)
from .transfer import RationalFunction

MAX_INPUT_BYTES = 1 << 20
MAX_POLY_DEGREE = 512
MAX_NESTING = 100  # open '(' at once; each costs the descent a few stack frames
# Every integer a parsed value stores, its common denominator and each
# numerator over it, has at most MAX_POWER_BITS bits (see series); so does
# an integer literal of MAX_LITERAL_DIGITS digits.  `^` is an exponent
# overflow when the exponent times the bits one factor can add, those of the
# largest integer the base stores and one more for a numerator a + b*i with
# a, b != 0 (|a + b*i| <= sqrt(2) * max(|a|, |b|)), plus the bits of the
# binomial coefficients of a base of two or more terms, exceeds the bound;
# powers of 0, 1, i and the generators add none.  A binomial coefficient
# C(e, k) < 2^(k * bits(e)) multiplies k factors of positive degree, so
# truncation keeps k <= min(e, T) of them in the generators (in X the degree
# bound keeps e <= MAX_POLY_DEGREE).  A product, sum or difference whose
# result exceeds the bound is a coefficient overflow.  A product whose
# factors' degrees in the indeterminate add up past MAX_POLY_DEGREE is a
# degree overflow, found before the product is built, and so is a product
# overflow: one whose operands' counts of rows multiply past
# MAX_PRODUCT_PAIRS, at a `*` or at the exponent of the `^` it is part of.
MAX_PRODUCT_PAIRS = 1 << 24
MAX_LITERAL_DIGITS = len(str(1 << MAX_POWER_BITS)) - 1
GENERATOR_PATTERN = re.compile(r"^(t|e[1-9])$")
# a token after optional whitespace; the last group is any other character,
# an error, so the matches cover the text up to its trailing whitespace,
# where the scan stops: a match tried at each place of a whitespace run that
# ends the text would fail only at its end, at a cost quadratic in the run
_TOKEN_PATTERN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([+\-*/^(),])|(\S))")


class Token(NamedTuple):
    kind: str  # "int" | "name" | "op" | "end"
    text: str
    offset: int


_KINDS = (None, "int", "name", "op")  # by the group of _TOKEN_PATTERN that matched


def _line_column(text: str, offset: int):
    line = text.count("\n", 0, offset) + 1
    last_break = text.rfind("\n", 0, offset)
    return line, offset - last_break - 1 if last_break >= 0 else offset


def _error(text: str, offset: int, message: str) -> ParseError:
    line, column = _line_column(text, offset)
    return ParseError(message, offset=offset, line=line, column=column)


def tokenize(text: str) -> tuple[Token, ...]:
    """The tokens of `text`, ending with an "end" token.

    The last few texts' tokens are remembered, so `ring_for` and the parse
    that follows it scan each text once.
    """
    if len(text.encode()) > MAX_INPUT_BYTES:
        raise ParseError("input exceeds 1 MB")
    return _scan(text)


@functools.lru_cache(maxsize=4)
def _scan(text: str) -> tuple[Token, ...]:
    tokens = []
    for match in _TOKEN_PATTERN.finditer(text, 0, len(text.rstrip())):
        group = match.lastindex
        word = match.group(group)
        start = match.start(group)
        if group == 4:
            raise _error(text, start, f"unexpected character {word!r}")
        if group == 1 and len(word) > MAX_LITERAL_DIGITS:
            raise _error(text, start, "literal overflow")
        tokens.append(Token(_KINDS[group], word, start))
    tokens.append(Token("end", "", len(text)))
    return tuple(tokens)


def scan_generator_names(*texts: str) -> tuple[str, ...]:
    """Collect generator names across inputs, in canonical order (t, e1..e9)."""
    return _generator_names(tokenize(text) for text in texts)


def _generator_names(scanned) -> tuple[str, ...]:
    """The generator names among token tuples, in canonical order."""
    seen = set()
    for tokens in scanned:
        for token in tokens:
            if token.kind == "name" and GENERATOR_PATTERN.match(token.text):
                seen.add(token.text)
    return tuple(sorted(seen, key=lambda g: (g != "t", g)))


class _ProductOverflow(Exception):
    """A product of values would visit more than MAX_PRODUCT_PAIRS pairs of rows."""


class _Value:
    """A parsed value: {x*top + k: (degree, re, im)} over `den`, one row map.

    The rows of a series (see series.py) with the indeterminate's degree x as
    one more digit above the generators' packed exponent k, `top` = (T+1)^m for
    m generators: packed keys still add without a carry, and `degree` counts
    the generators only, so sums, products and their truncation are the series
    kernel's own.  `bound` is the ring's truncation.
    """

    __slots__ = ("bound", "top", "den", "rows")

    def __init__(self, bound: int, top: int, den: int, rows: dict):
        """The value of the nonzero `rows` over `den`, divided by their gcd."""
        self.bound = bound
        self.top = top
        self.den, self.rows = _reduced_rows(den, rows)

    @property
    def degree(self) -> int:
        """The degree in the indeterminate, -1 for zero."""
        return max(self.rows) // self.top if self.rows else -1

    def __neg__(self) -> "_Value":
        return _Value(self.bound, self.top, self.den, _scaled(self.rows, -1))

    def add(self, other: "_Value", sign: int) -> "_Value":
        """self + sign*other."""
        common, acc = _sum_rows(self.den, self.rows, other.den, other.rows, sign)
        return _Value(self.bound, self.top, common, acc)

    def __mul__(self, other: "_Value") -> "_Value":
        """Each X-degree of self, in ascending order, times all of other, summed.

        Every coefficient then sums whole series products in the order of a
        dense polynomial product: summed term by term, a key that an earlier
        X-degree put in could cancel part-way and move to the end.
        """
        if len(self.rows) * len(other.rows) > MAX_PRODUCT_PAIRS:
            raise _ProductOverflow

        def x_degree(item):
            return item[0] // self.top

        acc: dict = {}
        for _, rows in groupby(sorted(self.rows.items(), key=x_degree), key=x_degree):
            _merge(acc, _mul_rows(dict(rows), other.rows, self.bound), 1)
        return _Value(self.bound, self.top, self.den * other.den, acc)


class _Parser:
    def __init__(self, text: str, ring: SeriesRing, var, tokens=None):
        self.text = text
        self.ring = ring
        self.var = var  # indeterminate name, or None for plain series
        self.tokens = tokenize(text) if tokens is None else tokens
        self.position = 0
        self.depth = 0  # the '(' open at this point
        # one more digit above the packed exponents, for the degree in the indeterminate
        self.top = (ring.truncation + 1) ** len(ring.generators)

    def peek(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        self.position += 1
        return token

    def fail(self, token: Token, message: str):
        raise _error(self.text, token.offset, message)

    def expect_op(self, symbol: str) -> Token:
        token = self.peek()
        if token.kind != "op" or token.text != symbol:
            self.fail(token, f"syntax error: expected {symbol!r}")
        return self.advance()

    # grammar rules -------------------------------------------------------

    def parse_expression(self) -> _Value:
        token = self.peek()
        negate = False
        if token.kind == "op" and token.text in "+-":
            self.advance()
            negate = token.text == "-"
        value = self.parse_term()
        if negate:
            value = -value
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in "+-":
                self.advance()
                rhs = self.parse_term()
                value = self._bounded(value.add(rhs, -1 if token.text == "-" else 1), token)
            else:
                return value

    def parse_term(self) -> _Value:
        value = self.parse_factor()
        while True:
            token = self.peek()
            if token.kind == "op" and token.text == "*":
                self.advance()
                factor = self.parse_factor()
                if value.degree + factor.degree > MAX_POLY_DEGREE:
                    self.fail(token, "degree overflow")
                try:
                    value = self._bounded(value * factor, token)
                except _ProductOverflow:
                    self.fail(token, "product overflow")
            else:
                return value

    def _bounded(self, value: _Value, token: Token) -> _Value:
        """The result of the operator `token`, unless it passes MAX_POWER_BITS."""
        if _stored_bits(((value.den, value.rows),)) > MAX_POWER_BITS:
            self.fail(token, "coefficient overflow")
        return value

    def parse_factor(self) -> _Value:
        base = self.parse_atom()
        token = self.peek()
        if token.kind == "op" and token.text == "^":
            self.advance()
            exponent_token = self.peek()
            if exponent_token.kind != "int":
                self.fail(exponent_token, "syntax error: expected an integer exponent")
            self.advance()
            exponent = int(exponent_token.text)
            if base.degree >= 1 and base.degree * exponent > MAX_POLY_DEGREE:
                self.fail(exponent_token, "exponent overflow")
            binomial = 0
            if len(base.rows) > 1:
                binomial = min(exponent, self.ring.truncation) * exponent.bit_length()
            gaussian = any(re and im for _, re, im in base.rows.values())
            bits = _stored_bits(((base.den, base.rows),))
            if exponent * (bits + gaussian) + binomial > MAX_POWER_BITS:
                self.fail(exponent_token, "exponent overflow")
            try:
                return _power(self._constant(1, 0, 1), base, exponent)
            except _ProductOverflow:
                self.fail(exponent_token, "product overflow")
        return base

    def parse_atom(self) -> _Value:
        token = self.peek()
        if token.kind == "int":
            return self.parse_rational()
        if token.kind == "name":
            self.advance()
            name = token.text
            if name == "i":
                return self._constant(0, 1, 1)
            if name == self.var:
                return _Value(self.ring.truncation, self.top, 1, {self.top: (0, 1, 0)})
            generators = self.ring.generators
            if name in generators:
                # the packed key of the exponent vector with a 1 in this place
                key = (self.ring.truncation + 1) ** (len(generators) - 1 - generators.index(name))
                return _Value(self.ring.truncation, self.top, 1, {key: (1, 1, 0)})
            if GENERATOR_PATTERN.match(name):
                self.fail(token, f"generator {name!r} missing from the ring")
            self.fail(token, f"unknown symbol {name!r}")
        if token.kind == "op" and token.text == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.fail(token, "nesting overflow")
            self.advance()
            inner = self.parse_expression()
            self.expect_op(")")
            self.depth -= 1
            return inner
        self.fail(token, "syntax error: expected a value")

    def parse_rational(self) -> _Value:
        whole = self.advance()
        numerator = int(whole.text)
        token = self.peek()
        # consume '/' only for a literal fraction; a non-integer right-hand
        # side leaves the '/' for the caller (rational-function split)
        if (
            token.kind == "op"
            and token.text == "/"
            and self.tokens[self.position + 1].kind == "int"
        ):
            self.advance()
            den_token = self.peek()
            self.advance()
            denominator = int(den_token.text)
            if denominator == 0:
                self.fail(den_token, "zero denominator")
            return self._constant(numerator, 0, denominator)
        return self._constant(numerator, 0, 1)

    def _constant(self, re: int, im: int, den: int) -> _Value:
        """The constant (re + im*i)/den."""
        rows = {0: (0, re, im)} if re or im else {}
        return _Value(self.ring.truncation, self.top, den, rows)

    def finish(self, token_description="end of input"):
        token = self.peek()
        if token.kind != "end":
            self.fail(token, f"syntax error: expected {token_description}")

    # results -------------------------------------------------------------

    def series(self, value: _Value) -> TruncatedSeries:
        """A value parsed without the indeterminate: its rows are a series' own."""
        return TruncatedSeries._of_rows(self.ring, value.den, value.rows)

    def polynomial(self, value: _Value) -> PerturbedPolynomial:
        """The polynomial of a value: its rows split by X-degree, each one series."""
        coeffs = [{} for _ in range(value.degree + 1)]
        for key, row in value.rows.items():
            x, k = divmod(key, self.top)
            coeffs[x][k] = row
        return PerturbedPolynomial(
            self.ring, [_from_ints(self.ring, rows, value.den) for rows in coeffs], self.var or "X"
        )


def ring_for(*texts: str, truncation: int = 8) -> SeriesRing:
    """Shared ring covering every generator mentioned in the given texts."""
    names = scan_generator_names(*texts)
    return SeriesRing(names or ("t",), truncation)


def parse_series(text: str, ring: SeriesRing) -> TruncatedSeries:
    return _series(_Parser(text, ring, var=None))


def _series(parser: _Parser) -> TruncatedSeries:
    value = parser.parse_expression()
    parser.finish()
    return parser.series(value)


def parse_polynomial(text: str, ring: SeriesRing, var: str = "X") -> PerturbedPolynomial:
    parser = _Parser(text, ring, var=var)
    value = parser.parse_expression()
    parser.finish()
    return parser.polynomial(value)


def parse_scalar(text: str) -> GaussianRational:
    """An exact scalar; generator tokens are rejected, so no truncation hides `t^9`."""
    parser = _Parser(text, SeriesRing(("t",), 1), var=None)
    value = parser.parse_expression()
    parser.finish()
    if any(token.kind == "name" and GENERATOR_PATTERN.match(token.text) for token in parser.tokens):
        raise ParseError("expected an exact scalar, found generator terms")
    return parser.series(value).standard_part()


def parse_rational_function(
    text: str, ring: SeriesRing, var: str = "p"
) -> RationalFunction:
    parser = _Parser(text, ring, var=var)
    num = parser.polynomial(parser.parse_expression())
    token = parser.peek()
    if token.kind == "op" and token.text == "/":
        parser.advance()
        den = parser.polynomial(parser.parse_expression())
    else:
        den = PerturbedPolynomial(ring, [ring.one()], var)
    parser.finish()
    return RationalFunction(num, den)


def parse_matrix_json(text: str, truncation: int = 8):
    """Matrix input: {"n": 2, "base": [[...]], "pert": [[...]] (optional)}.

    Base entries must be exact scalars; perturbation entries are series with
    valuation >= 1.  Returns a ConstantMatrix, or a PerturbedMatrix when a
    perturbation block is present.
    """
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # json raises RecursionError on arrays or objects nested too deep
        raise ParseError(f"invalid matrix JSON: {exc}") from None
    if not isinstance(data, dict) or "base" not in data:
        raise ParseError("matrix JSON needs a 'base' field")
    for field in ("base", "pert"):
        rows = data.get(field, [])
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ParseError(f"matrix JSON {field!r} must be a list of lists")
    base_rows = data["base"]
    order = data.get("n", len(base_rows))
    if len(base_rows) != order or any(len(row) != order for row in base_rows):
        raise ParseError("matrix JSON shape does not match 'n'")
    base = ConstantMatrix([[parse_scalar(str(entry)) for entry in row] for row in base_rows])
    if "pert" not in data:
        return base
    pert_rows = data["pert"]
    if len(pert_rows) != order or any(len(row) != order for row in pert_rows):
        raise ParseError("perturbation shape does not match 'n'")
    # each entry is scanned once, for the ring and for its parse: n^2 texts
    # overrun the memo that `tokenize` keeps
    texts = [str(entry) for row in pert_rows for entry in row]
    scanned = [tokenize(text) for text in texts]
    ring = SeriesRing(_generator_names(scanned) or ("t",), truncation)
    entries = [
        _series(_Parser(text, ring, None, tokens)) for text, tokens in zip(texts, scanned)
    ]
    pert = [entries[k * order:(k + 1) * order] for k in range(order)]
    return PerturbedMatrix(base, pert)  # validates infinitesimality (domain error)
