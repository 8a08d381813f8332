"""Recursive-descent parser for the shared expression grammar.

    expr    := ('+'|'-')? term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := atom ('^' uint)?
    atom    := rational | 'i' | indeterminate | generator | '(' expr ')'
    rational:= uint ('/' uint)?

Generators are `t` and `e1` .. `e9`; the indeterminate is `X` for polynomials
and `p` for transfer functions.  Matrices are read from JSON, not from the
grammar.  Offsets in errors and spans are 0-based byte positions.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .matrices import ConstantMatrix, PerturbedMatrix
from .ppoly import MAX_POWER_BITS, PerturbedPolynomial, _coefficient_bits
from .scalars import GaussianRational
from .series import SeriesRing, TruncatedSeries
from .transfer import RationalFunction

MAX_INPUT_BYTES = 1 << 20
MAX_POLY_DEGREE = 512
# Every numerator and denominator the parser builds has at most MAX_POWER_BITS
# bits (see ppoly).  An integer literal may have MAX_LITERAL_DIGITS digits,
# so it stays below 2^MAX_POWER_BITS.  `^` is an exponent overflow when the
# exponent times the bits one factor can add, ceil(log2 |n|) for the largest
# numerator or denominator n among the base's coefficients, plus the bits of
# the binomial coefficients of a base of two or more terms, exceeds the bound;
# powers of 0, 1, i and the generators add none.  A binomial coefficient
# C(e, k) < 2^(k * bits(e)) multiplies k factors of positive degree, so
# truncation keeps k <= min(e, T) of them in the generators (in X the degree
# bound keeps e <= MAX_POLY_DEGREE).  A product, sum or difference whose
# result exceeds the bound is a coefficient overflow.
MAX_LITERAL_DIGITS = len(str(1 << MAX_POWER_BITS)) - 1
GENERATOR_PATTERN = re.compile(r"^(t|e[1-9])$")
_TOKEN_PATTERN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([+\-*/^(),]))")


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "name" | "op" | "end"
    text: str
    offset: int


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
    pos = 0
    while pos < len(text):
        match = _TOKEN_PATTERN.match(text, pos)
        if not match:
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise _error(text, bad, f"unexpected character {text[bad]!r}")
        if match.group(1):
            if len(match.group(1)) > MAX_LITERAL_DIGITS:
                raise _error(text, match.start(1), "literal overflow")
            tokens.append(Token("int", match.group(1), match.start(1)))
        elif match.group(2):
            tokens.append(Token("name", match.group(2), match.start(2)))
        elif match.group(3):
            tokens.append(Token("op", match.group(3), match.start(3)))
        pos = match.end()
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


class _Parser:
    def __init__(self, text: str, ring: SeriesRing, var, tokens=None):
        self.text = text
        self.ring = ring
        self.var = var  # indeterminate name, or None for plain series
        self.tokens = tokenize(text) if tokens is None else tokens
        self.position = 0

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

    def parse_expression(self) -> PerturbedPolynomial:
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
                value = value - rhs if token.text == "-" else value + rhs
                value = self._bounded(value, token)
            else:
                return value

    def parse_term(self) -> PerturbedPolynomial:
        value = self.parse_factor()
        while True:
            token = self.peek()
            if token.kind == "op" and token.text == "*":
                self.advance()
                value = self._bounded(value * self.parse_factor(), token)
            else:
                return value

    def _bounded(self, value: PerturbedPolynomial, token: Token) -> PerturbedPolynomial:
        """The result of the operator `token`, unless it passes MAX_POWER_BITS."""
        if _coefficient_bits(value) > MAX_POWER_BITS:
            self.fail(token, "coefficient overflow")
        return value

    def parse_factor(self) -> PerturbedPolynomial:
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
            if sum(len(c.rows) for c in base.coeffs) > 1:
                binomial = min(exponent, self.ring.truncation) * exponent.bit_length()
            if exponent * _coefficient_bits(base) + binomial > MAX_POWER_BITS:
                self.fail(exponent_token, "exponent overflow")
            return base ** exponent
        return base

    def parse_atom(self) -> PerturbedPolynomial:
        token = self.peek()
        if token.kind == "int":
            return self._constant(self.parse_rational())
        if token.kind == "name":
            self.advance()
            name = token.text
            if name == "i":
                return self._constant(GaussianRational(0, 1))
            if name == self.var:
                return PerturbedPolynomial(
                    self.ring, [self.ring.zero(), self.ring.one()], self.var
                )
            if name in self.ring.generators:
                return self._constant(self.ring.generator(name))
            if GENERATOR_PATTERN.match(name):
                self.fail(token, f"generator {name!r} missing from the ring")
            self.fail(token, f"unknown symbol {name!r}")
        if token.kind == "op" and token.text == "(":
            self.advance()
            inner = self.parse_expression()
            self.expect_op(")")
            return inner
        self.fail(token, "syntax error: expected a value")

    def parse_rational(self) -> GaussianRational:
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
            return GaussianRational(Fraction(numerator, denominator))
        return GaussianRational(numerator)

    def _constant(self, value) -> PerturbedPolynomial:
        if isinstance(value, TruncatedSeries):
            return PerturbedPolynomial(self.ring, [value], self.var or "X")
        return PerturbedPolynomial(
            self.ring, [self.ring.constant(value)], self.var or "X"
        )

    def finish(self, token_description="end of input"):
        token = self.peek()
        if token.kind != "end":
            self.fail(token, f"syntax error: expected {token_description}")


def ring_for(*texts: str, truncation: int = 8) -> SeriesRing:
    """Shared ring covering every generator mentioned in the given texts."""
    names = scan_generator_names(*texts)
    return SeriesRing(names or ("t",), truncation)


def parse_series(text: str, ring: SeriesRing) -> TruncatedSeries:
    return _series(_Parser(text, ring, var=None))


def _series(parser: _Parser) -> TruncatedSeries:
    value = parser.parse_expression()
    parser.finish()
    return value.coefficient(0)


def parse_polynomial(text: str, ring: SeriesRing, var: str = "X") -> PerturbedPolynomial:
    parser = _Parser(text, ring, var=var)
    value = parser.parse_expression()
    parser.finish()
    return value


def parse_scalar(text: str) -> GaussianRational:
    """An exact scalar; generator tokens are rejected, so no truncation hides `t^9`."""
    parser = _Parser(text, SeriesRing(("t",), 1), var=None)
    value = parser.parse_expression().coefficient(0)
    parser.finish()
    if any(token.kind == "name" and GENERATOR_PATTERN.match(token.text) for token in parser.tokens):
        raise ParseError("expected an exact scalar, found generator terms")
    return value.standard_part()


def parse_rational_function(
    text: str, ring: SeriesRing, var: str = "p"
) -> RationalFunction:
    parser = _Parser(text, ring, var=var)
    num = parser.parse_expression()
    token = parser.peek()
    if token.kind == "op" and token.text == "/":
        parser.advance()
        den = parser.parse_expression()
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
    except json.JSONDecodeError as exc:
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
