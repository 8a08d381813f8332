"""Recursive-descent parser for the shared expression grammar.

    expr    := ('+'|'-')? term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := atom ('^' uint)?
    atom    := rational | 'i' | indeterminate | generator | '(' expr ')'
    rational:= uint ('/' uint)?

Generators are `t` and `e1` .. `e9`; the indeterminate is `X` for polynomials
and `p` for transfer functions.  Matrices are read from JSON, not from the
grammar.  Offsets in errors and tokens are 0-based indices of code points in
the text, not of bytes.

Every term is a value in one sparse form, `_Value`: the rows of a series as
in series.py, {packed key: (degree, re, im)} over one common denominator,
whose packed key carries the degree in the indeterminate as its top digit
(Monagan and Pearce pack every variable so).  A value is a record, and the
parse does every operation on it with the series kernel's row operations,
which truncate in the generators inside the product.  A monomial factor (a
literal, `i`, the indeterminate or a generator, with an optional power) is
one row.  Every product, at a `*` or inside a `^`, is `_Parser._times`: a
term's run of rows is folded into one row, which becomes a `_Value` once,
when the term ends or meets a parenthesised factor, and any other pair
multiplies as values; either way `_Parser._charge` charges it to the product
budget.  The X-degrees are split apart once, when the parse ends: one series
per X-degree, reduced to its own denominator.
"""

from __future__ import annotations

import functools
import json
import math
import re
from typing import NamedTuple

from .errors import ParseError
from .matrices import ConstantMatrix, PerturbedMatrix
from .ppoly import PerturbedPolynomial
from .scalars import GaussianRational, _power
from .series import (
    DEFAULT_TRUNCATION,
    MAX_POWER_BITS,
    SeriesRing,
    TruncatedSeries,
    _bits_of,
    _from_ints,
    _mul_rows,
    _reduced_rows,
    _scaled,
    _sum_rows,
)

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
# overflow: the product, at a `*` or at the exponent of the `^` it is part
# of, whose weight takes the parse's total past MAX_PRODUCT_PAIRS.  The
# weight is the product of the operands' counts of rows, each times
# 1 + bits // PRODUCT_WORD_BITS for the bits of the widest integer that
# operand stores, since multiplying two integers costs about the product of
# their sizes.  The total counts every product of the parse (of all
# entries, for a list of series such as a matrix), so that a text of many
# products within the bound cannot run for hours.
MAX_PRODUCT_PAIRS = 1 << 24
PRODUCT_WORD_BITS = 256
# Berkowitz's char_poly costs about n^4/4 series products for an n-by-n
# matrix; a larger order is a parse error before any entry is parsed.
MAX_MATRIX_ORDER = 16
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


def _error(text: str, offset: int, message: str) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    last_break = text.rfind("\n", 0, offset)
    column = offset - last_break - 1 if last_break >= 0 else offset
    return ParseError(message, offset=offset, line=line, column=column)


def tokenize(text: str) -> tuple[Token, ...]:
    """The tokens of `text`, ending with an "end" token.

    The last few texts' tokens are remembered, so `ring_for` and the parse
    that follows it scan each text once.
    """
    if len(text.encode("utf-8", "surrogatepass")) > MAX_INPUT_BYTES:
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


class _Value:
    """A parsed value: {x*top + k: (degree, re, im)} over `den`, one row map.

    The rows of a series (see series.py) with the indeterminate's degree x as
    one more digit above the generators' packed exponent k, `top` = (T+1)^m for
    m generators: packed keys still add without a carry, and `degree` counts
    the generators only, so sums, products and their truncation are the series
    kernel's own.  The rows are reduced, and `bits` is the bits of the widest
    integer they store (`_bits_of`), both found once per value.  A value is a
    record: the parse that reads it does every operation on it (see
    `_Parser._times`).
    """

    __slots__ = ("den", "rows", "bits")

    def __init__(self, den: int, rows: dict, bits: int):
        """The value of the reduced nonzero `rows` over `den`, which store `bits` bits."""
        self.den = den
        self.rows = rows
        self.bits = bits


def _reduced_value(den: int, rows: dict) -> _Value:
    """The value of the nonzero `rows` over `den`, divided by their gcd."""
    den, rows = _reduced_rows(den, rows)
    return _Value(den, rows, _bits_of(den, rows))


# A monomial row (den, packed key, degree, re, im, bits): the value
# (re + im*i)/den times the monomial of `key`, reduced, and the bits of its
# widest integer; zero is (1, 0, 0, 0, 0, 0), as a zero _Value stores den 1.
_ONE_ROW = (1, 0, 0, 1, 0, 0)
_ZERO_ROW = (1, 0, 0, 0, 0, 0)


def _row(den: int, key: int, degree: int, re: int, im: int) -> tuple:
    """The monomial row of (re + im*i)/den at `key`, divided by the gcd."""
    if not (re or im):
        return _ZERO_ROW
    g = math.gcd(den, re, im)
    if g != 1:
        den //= g
        re //= g
        im //= g
    largest = den  # as `_bits_of` sizes rows: comparisons, not calls of max and abs
    if re > largest or -re > largest:
        largest = abs(re)
    if im > largest or -im > largest:
        largest = abs(im)
    return den, key, degree, re, im, (largest - 1).bit_length()


class _Parser:
    def __init__(self, text: str, ring: SeriesRing, var, tokens=None, pairs: int = 0):
        self.text = text
        self.ring = ring
        self.var = var  # indeterminate name, or None for plain series
        self.tokens = tokenize(text) if tokens is None else tokens
        self.position = 0
        self.depth = 0  # the '(' open at this point
        # one more digit above the packed exponents, for the degree in the indeterminate
        self.top = (ring.truncation + 1) ** len(ring.generators)
        self.pairs = pairs  # the weight of the products the parse has built

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
            value = _Value(value.den, _scaled(value.rows, -1), value.bits)
        while True:
            token = self.peek()
            if token.kind == "op" and token.text in "+-":
                self.advance()
                rhs = self.parse_term()
                sign = -1 if token.text == "-" else 1
                value = self._bounded(
                    _reduced_value(*_sum_rows(value.den, value.rows, rhs.den, rhs.rows, sign)),
                    token,
                )
            else:
                return value

    def parse_term(self) -> _Value:
        """The product of the factors: a run of monomial rows folds into one row."""
        term = self.parse_factor()
        while True:
            token = self.peek()
            if token.kind != "op" or token.text != "*":
                return self._value(term)
            self.advance()
            factor = self.parse_factor()
            if self._degree(term) + self._degree(factor) > MAX_POLY_DEGREE:
                self.fail(token, "degree overflow")
            term = self._times(term, factor, token)

    def _bounded(self, value: _Value, token: Token) -> _Value:
        """The result of the operator `token`, unless it passes MAX_POWER_BITS."""
        if value.bits > MAX_POWER_BITS:
            self.fail(token, "coefficient overflow")
        return value

    def _times(self, a, b, token: Token):
        """a*b, each a monomial row or a value, at a `*` or the exponent of a `^`.

        The parse's one product, after the caller's degree check: two rows
        fold into a row, any other pair multiplies as values; either is
        charged (`_charge`), truncated and bounded in the bits it stores.
        """
        if type(a) is tuple and type(b) is tuple:
            return self._fold(a, b, token)
        a = self._value(a)
        b = self._value(b)
        self._charge(len(a.rows), a.bits, len(b.rows), b.bits, token)
        rows = _mul_rows(a.rows, b.rows, self.ring.truncation)
        return self._bounded(_reduced_value(a.den * b.den, rows), token)

    def _charge(self, rows_a: int, bits_a: int, rows_b: int, bits_b: int, token: Token):
        """Charge a product to the parse's budget; past MAX_PRODUCT_PAIRS it fails at `token`.

        Each operand weighs rows * (1 + bits // PRODUCT_WORD_BITS), and the
        product the product of the two weights.
        """
        self.pairs += (
            rows_a * (1 + bits_a // PRODUCT_WORD_BITS) * rows_b * (1 + bits_b // PRODUCT_WORD_BITS)
        )
        if self.pairs > MAX_PRODUCT_PAIRS:
            self.fail(token, "product overflow")

    def _fold(self, row: tuple, factor: tuple, token: Token) -> tuple:
        """row*factor, two monomial rows, at the operator `token`: `_times` on one row each."""
        den, key, degree, re, im, bits = row
        fden, fkey, fdegree, fre, fim, fbits = factor
        if not ((re or im) and (fre or fim)):
            return _ZERO_ROW  # a zero operand has no row to pair, so it costs nothing
        self._charge(1, bits, 1, fbits, token)
        degree += fdegree
        if degree > self.ring.truncation:
            return _ZERO_ROW
        product = _row(den * fden, key + fkey, degree, re * fre - im * fim, re * fim + im * fre)
        if product[5] > MAX_POWER_BITS:
            self.fail(token, "coefficient overflow")
        return product

    def _degree(self, term) -> int:
        """The degree in the indeterminate of a row or a value, -1 for zero."""
        if type(term) is tuple:
            return term[1] // self.top if term[3] or term[4] else -1
        return max(term.rows) // self.top if term.rows else -1

    def _value(self, term) -> _Value:
        """A row's value, or the value itself."""
        if type(term) is not tuple:
            return term
        den, key, degree, re, im, bits = term
        return _Value(den, {key: (degree, re, im)} if re or im else {}, bits)

    def parse_factor(self):
        """A row for a monomial atom or its power, a _Value for a parenthesised one."""
        base = self.parse_atom()
        token = self.peek()
        if token.kind != "op" or token.text != "^":
            return base
        self.advance()
        exponent_token = self.peek()
        if exponent_token.kind != "int":
            self.fail(exponent_token, "syntax error: expected an integer exponent")
        self.advance()
        exponent = int(exponent_token.text)
        degree = self._degree(base)
        if degree >= 1 and degree * exponent > MAX_POLY_DEGREE:
            self.fail(exponent_token, "exponent overflow")
        if type(base) is tuple:
            # a literal, i, X or a generator: one real or imaginary row, or none
            if exponent * base[5] > MAX_POWER_BITS:
                self.fail(exponent_token, "exponent overflow")
        else:
            binomial = 0
            if len(base.rows) > 1:
                binomial = min(exponent, self.ring.truncation) * exponent.bit_length()
            gaussian = any(re and im for _, re, im in base.rows.values())
            if exponent * (base.bits + gaussian) + binomial > MAX_POWER_BITS:
                self.fail(exponent_token, "exponent overflow")
        return _power(_ONE_ROW, base, exponent, lambda a, b: self._times(a, b, exponent_token))

    def parse_atom(self):
        """A monomial row, or the _Value of a parenthesised expression."""
        token = self.peek()
        if token.kind == "int":
            return self.parse_rational()
        if token.kind == "name":
            self.advance()
            name = token.text
            if name == "i":
                return (1, 0, 0, 0, 1, 0)
            if name == self.var:
                return (1, self.top, 0, 1, 0, 0)
            if name in self.ring.generators:
                return (1, self.ring.generator_key(name), 1, 1, 0, 0)
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

    def parse_rational(self) -> tuple:
        whole = self.advance()
        numerator = int(whole.text)
        token = self.peek()
        # consume '/' only when an integer follows, so that `1/t` is a syntax
        # error at its '/', the first token no rule reads
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
            return _row(denominator, 0, 0, numerator, 0)
        return _row(1, 0, 0, numerator, 0)

    def whole(self) -> _Value:
        """An expression that runs to the end of the input."""
        return self.ended(self.parse_expression())

    def ended(self, value):
        """`value`, once the input has ended: a token left over is a syntax error."""
        token = self.peek()
        if token.kind != "end":
            self.fail(token, "syntax error: expected end of input")
        return value

    # results -------------------------------------------------------------

    def series(self, value: _Value) -> TruncatedSeries:
        """A value parsed without the indeterminate: its rows are a series' own."""
        return TruncatedSeries._of_rows(self.ring, value.den, value.rows)

    def polynomial(self, value: _Value) -> PerturbedPolynomial:
        """The polynomial of a value: its rows split by X-degree, each one series."""
        coeffs = [{} for _ in range(self._degree(value) + 1)]
        for key, row in value.rows.items():
            x, k = divmod(key, self.top)
            coeffs[x][k] = row
        return PerturbedPolynomial(
            self.ring, [_from_ints(self.ring, rows, value.den) for rows in coeffs], self.var or "X"
        )


def ring_for(*texts: str, truncation: int = DEFAULT_TRUNCATION) -> SeriesRing:
    """Shared ring covering every generator mentioned in the given texts."""
    names = scan_generator_names(*texts)
    return SeriesRing(names or ("t",), truncation)


def parse_series(text: str, ring: SeriesRing) -> TruncatedSeries:
    parser = _Parser(text, ring, var=None)
    return parser.series(parser.whole())


def parse_series_list(text: str, truncation: int) -> list[TruncatedSeries]:
    """The comma-separated series of `text`: one scan, one ring, one product budget.

    An error's offset, line and column are those in `text` as typed.
    """
    parser = _Parser(text, ring_for(text, truncation=truncation), None)
    values = [parser.parse_expression()]
    while parser.peek().text == ",":
        parser.advance()
        values.append(parser.parse_expression())
    return [parser.series(value) for value in parser.ended(values)]


def _series_list(entries, truncation: int, pairs: int) -> list[TruncatedSeries]:
    """Series of the (name, text) `entries` in one ring, each text scanned once,
    after `pairs` of the product budget.

    A ParseError names the entry it is in; its line and column count within
    that entry's text.
    """
    try:
        scanned = []
        for name, text in entries:
            scanned.append(tokenize(text))
        ring = SeriesRing(_generator_names(scanned) or ("t",), truncation)
        series = []
        for (name, text), tokens in zip(entries, scanned):
            parser = _Parser(text, ring, None, tokens, pairs)
            series.append(parser.series(parser.whole()))
            pairs = parser.pairs
    except ParseError as exc:
        raise ParseError(f"{name}: {exc.args[0]}", exc.offset, exc.line, exc.column) from None
    return series


def parse_polynomial(text: str, ring: SeriesRing, var: str = "X") -> PerturbedPolynomial:
    parser = _Parser(text, ring, var=var)
    return parser.polynomial(parser.whole())


# one ring for every parse_scalar: it rejects generators, so T = 1 loses nothing
_SCALAR_RING = SeriesRing(("t",), 1)


def parse_scalar(text: str) -> GaussianRational:
    """An exact scalar; generator tokens are rejected, so no truncation hides `t^9`."""
    return _exact_scalars([text], 0)[0][0]


def _exact_scalars(texts, pairs: int):
    """(scalars, pairs): parse_scalar of each text, and the product budget then spent.

    The texts share one budget, of which `pairs` is spent before the first.
    """
    scalars = []
    for text in texts:
        tokens = tokenize(text)
        # before the parse, so that every generator, not only the ring's `t`, breaks this rule
        if any(t.kind == "name" and GENERATOR_PATTERN.match(t.text) for t in tokens):
            raise ParseError("expected an exact scalar, found generator terms")
        parser = _Parser(text, _SCALAR_RING, None, tokens, pairs)
        scalars.append(parser.series(parser.whole()).standard_part())
        pairs = parser.pairs
    return scalars, pairs


def parse_matrix_json(text: str, truncation: int = DEFAULT_TRUNCATION):
    """Matrix input: {"n": 2, "base": [[...]], "pert": [[...]] (optional)}.

    Each entry is a JSON string or integer.  Base entries must be exact
    scalars; perturbation entries are series with valuation >= 1.  Every
    entry, base then perturbation, is parsed on one product budget.  The
    order is at most MAX_MATRIX_ORDER.  Returns a ConstantMatrix, or a
    PerturbedMatrix when a perturbation block is present.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # json raises RecursionError on arrays or objects nested too deep, and
        # ValueError past Python's 4300-digit limit on an int read from text
        raise ParseError(f"invalid matrix JSON: {exc}") from None
    if not isinstance(data, dict) or "base" not in data:
        raise ParseError("matrix JSON needs a 'base' field")
    for field in ("base", "pert"):
        rows = data.get(field, [])
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ParseError(f"matrix JSON {field!r} must be a list of lists")
        # json reads true and false as bools, which isinstance counts as ints
        if not all(type(entry) in (str, int) for row in rows for entry in row):
            raise ParseError(f"matrix JSON {field!r} entries must be strings or integers")
    base_rows = data["base"]
    order = data.get("n", len(base_rows))
    # json reads true as a bool, which isinstance counts as an int
    if type(order) is not int or len(base_rows) != order or any(
        len(row) != order for row in base_rows
    ):
        raise ParseError("matrix JSON shape does not match 'n'")
    if order > MAX_MATRIX_ORDER:
        raise ParseError(f"matrix order {order} exceeds {MAX_MATRIX_ORDER}")
    scalars, pairs = _exact_scalars([str(entry) for row in base_rows for entry in row], 0)
    base = ConstantMatrix([scalars[k * order:(k + 1) * order] for k in range(order)])
    if "pert" not in data:
        return base
    pert_rows = data["pert"]
    if len(pert_rows) != order or any(len(row) != order for row in pert_rows):
        raise ParseError("perturbation shape does not match 'n'")
    named = [(f"pert[{i}][{j}]", str(pert_rows[i][j])) for i in range(order) for j in range(order)]
    entries = _series_list(named, truncation, pairs)
    pert = [entries[k * order:(k + 1) * order] for k in range(order)]
    return PerturbedMatrix(base, pert)  # validates infinitesimality (domain error)
