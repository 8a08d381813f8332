import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perturbalg import (
    ConstantMatrix,
    GaussianRational,
    ParseError,
    PerturbedMatrix,
    SeriesRing,
)
from perturbalg import parsing
from perturbalg.errors import DomainError
from perturbalg.exactpoly import Polynomial
from perturbalg.ppoly import PerturbedPolynomial
from perturbalg.parsing import (
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    MAX_POLY_DEGREE,
    MAX_POWER_BITS,
    parse_matrix_json,
    parse_polynomial,
    parse_rational_function,
    parse_scalar,
    parse_series,
    ring_for,
    scan_generator_names,
)


def test_scan_generator_names():
    assert scan_generator_names("X^3 - 1 + e2 - e1*X") == ("e1", "e2")
    assert scan_generator_names("1 + t", "e3*t") == ("t", "e3")
    assert scan_generator_names("X + 1") == ()


def test_each_text_is_scanned_once():
    texts = ("X^3 - e1*X - 1 + e2", "X^2 + e3*X - 1")
    parsing._scan.cache_clear()
    ring = ring_for(*texts)
    for text in texts:
        parse_polynomial(text, ring)
    assert parsing._scan.cache_info().misses == 2
    assert isinstance(parsing.tokenize(texts[0]), tuple)
    # a bad text is scanned afresh and fails alike each time; of two bad
    # texts the first given is reported
    for _ in range(2):
        with pytest.raises(ParseError) as info:
            ring_for("X + 1", "X $ 2", "X # 3")
        assert (str(info.value), info.value.offset) == (
            "unexpected character '$' (line 1, column 2)",
            2,
        )
    # the size bound counts UTF-8 bytes, not characters
    with pytest.raises(ParseError, match="input exceeds 1 MB"):
        parsing.tokenize("\u00e9" * (parsing.MAX_INPUT_BYTES // 2 + 1))


def test_long_whitespace_scans_in_linear_time():
    # a whitespace run that ends the text holds no token; the scan stops
    # before it, where trying a token at each of its places costs its length
    # squared (minutes for this text)
    assert parsing.tokenize("1" + " " * 200_000) == (
        parsing.Token("int", "1", 0),
        parsing.Token("end", "", 200_001),
    )
    assert parsing.tokenize(" \t\n" * 100_000 + "X") == (
        parsing.Token("name", "X", 300_000),
        parsing.Token("end", "", 300_001),
    )
    ring = SeriesRing(("t",), 8)
    assert parse_polynomial("X + t" + "\n" * 200_000, ring) == parse_polynomial("X + t", ring)


def test_each_matrix_entry_is_scanned_once():
    # n^2 perturbation entries overrun the memo of the last few texts, so the
    # ring and the parses must share one scan of each
    entries = [[f"{row + 1}*t + {col}*e1^2" for col in range(3)] for row in range(3)]
    text = json.dumps({"n": 3, "base": [["1", "2", "3"]] * 3, "pert": entries})
    parsing._scan.cache_clear()
    matrix = parse_matrix_json(text)
    assert parsing._scan.cache_info().misses == 3 + 9  # distinct base and pert texts
    assert matrix.ring.generators == ("t", "e1")
    assert matrix.pert[2][1] == parse_series("3*t + e1^2", matrix.ring)
    # a bad character is reported before a syntax error, even in a later
    # entry; of two bad entries the first is reported, with its own offset
    for pert, message, offset in (
        ([["t +", "t"], ["t $ 2", "t # 3"]], "unexpected character '$' (line 1, column 2)", 2),
        ([["t", "t +"], ["t * * t", "t"]], "syntax error: expected a value (line 1, column 3)", 3),
    ):
        bad = json.dumps({"n": 2, "base": [["0", "0"], ["0", "0"]], "pert": pert})
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                parse_matrix_json(bad)
            assert (str(info.value), info.value.offset) == (message, offset)


def test_parse_cubic_polynomial():
    ring = ring_for("X^3 - 1 + e2 - e1*X")
    poly = parse_polynomial("X^3 - 1 + e2 - e1*X", ring)
    assert poly.degree == 3
    e1, e2 = ring.generator("e1"), ring.generator("e2")
    assert poly.coefficient(0) == e2 - 1
    assert poly.coefficient(1) == -e1
    assert poly.coefficient(3) == ring.one()


def test_parse_series_with_fractions():
    ring = ring_for("1/2 + 3/4*t^2")
    series = parse_series("1/2 + 3/4*t^2", ring)
    t = ring.generator("t")
    assert series == ring.constant(Fraction(1, 2)) + t**2 * Fraction(3, 4)


def test_syntax_error_position():
    ring = ring_for("X^ + 1")
    with pytest.raises(ParseError) as info:
        parse_polynomial("X^ + 1", ring)
    assert info.value.column == 3
    assert info.value.offset == 3


def test_unknown_symbol():
    ring = SeriesRing(("t",), 8)
    with pytest.raises(ParseError, match="unknown symbol"):
        parse_series("1 + q", ring)
    with pytest.raises(ParseError, match="unknown symbol"):
        parse_series("X + 1", ring)  # indeterminate not allowed in a series


def test_missing_generator():
    ring = SeriesRing(("t",), 8)
    with pytest.raises(ParseError, match="missing from the ring"):
        parse_series("e1 + 1", ring)


def test_exponent_overflow():
    ring = SeriesRing(("t",), 8)
    with pytest.raises(ParseError, match="exponent overflow"):
        parse_polynomial("X^9999", ring)
    # generator powers beyond the truncation bound just vanish
    assert parse_series("t^9999", ring).is_zero()


def test_scalar_power_overflow():
    ring = SeriesRing(("t",), 8)
    # ceil(log2 3) = 2 bits per factor: 3^2048 is the largest power of 3 allowed
    assert parse_scalar("3^2048") == GaussianRational(3**2048)
    for text in ("3^2049", "X - 3^10000", "3^2000000", "(1/3 + t)^5000", "(2*i)^5000"):
        with pytest.raises(ParseError, match="exponent overflow"):
            parse_polynomial(text, ring)
    # a power of a sum grows by its binomial coefficients, C(e, k) < 2^(k*bits(e))
    # for the k <= T = 8 factors of t that truncation keeps
    largest = parse_series(f"(1 + t)^{2**511}", ring)
    assert largest.terms[(8,)] == math.comb(2**511, 8)
    assert math.comb(2**511, 8).bit_length() <= MAX_POWER_BITS
    for text in (f"(1 + t)^{2**512}", f"(1/2 - e1*t)^{2**512}", f"X - (i + t^3)^{10**700}"):
        with pytest.raises(ParseError, match="exponent overflow"):
            parse_polynomial(text, ring_for(text))
    # |1 + i| = sqrt(2): one bit per factor, and (1 + i)^4096 = (2*i)^2048 = 2^2048
    assert parse_scalar("(1+i)^4096") == GaussianRational(2**2048)
    for text in ("(1+i)^4097", "(3 + 2*i)^1366", "(1 + i + t)^4097", "X - (1/3 + 1/3*i)^1366"):
        with pytest.raises(ParseError, match="exponent overflow"):
            parse_polynomial(text, ring)
    # units add no bits, however large the exponent
    assert parse_scalar("(-1)^100001") == -1
    assert parse_scalar("i^100002") == -1
    # 1/2 + 1/3*t stores 3, 2 and 6, so each factor adds ceil(log2 6) = 3 bits
    # and the binomial coefficients 8 * bits(1300) = 88: 3988 bits fit
    largest = parse_series("(1/2 + 1/3*t)^1300", ring)
    assert largest == (GaussianRational(Fraction(1, 2)) + ring.generator("t") / 3) ** 1300


def test_coefficient_and_literal_overflow():
    ring = SeriesRing(("t",), 8)
    # each power is within its bound; the first product and the second
    # difference are not, and parsing stops there
    for text, offset in (
        ("X - 3^2048*3^2048*3^2048*3^2048*3^2048", 10),
        ("X - 1/2^4000 - 1/3^2000 - 1/5^1300 - 1/7^1300 - 1/11^1000 - 1/13^1000", 13),
    ):
        with pytest.raises(ParseError, match="coefficient overflow") as info:
            parse_polynomial(text, ring)
        assert info.value.offset == offset
    longest = "9" * MAX_LITERAL_DIGITS
    assert (10**MAX_LITERAL_DIGITS).bit_length() <= MAX_POWER_BITS
    assert parse_scalar(longest) == int(longest)
    for text in ("X - 9" + longest, "X^1" + longest, "1/7" + longest, "0" + longest):
        with pytest.raises(ParseError, match="literal overflow"):
            parse_polynomial(text, ring)


def _primes(count: int) -> list:
    found = []
    n = 2
    while len(found) < count:
        if all(n % p for p in found if p * p <= n):
            found.append(n)
        n += 1
    return found


def test_coefficient_overflow_counts_the_stored_denominator():
    # each term 1/p^e*X^k fits on its own, but the sum stores the product of
    # the denominators: the first sum passes the bound, so nothing after it
    # is built (counting reduced fractions instead, the parse took minutes)
    primes = _primes(400)
    terms = []
    for k in range(1, 101):
        p = primes[k + 299]  # the (k + 300)-th prime
        terms.append(f"1/{p}^{4000 // p.bit_length()}*X^{k}")
    text = " + ".join(terms)
    assert text.startswith("1/1993^363*X^1 + ")
    assert _error_of(lambda: parse_polynomial(text, SeriesRing(("t",), 8))) == (
        "coefficient overflow (line 1, column 15)",
        15,
    )


def test_nesting_overflow():
    ring = SeriesRing(("t",), 8)
    deepest = "(" * MAX_NESTING + "t" + ")" * MAX_NESTING
    assert parse_series(deepest, ring) == ring.generator("t")
    assert parse_polynomial(f"X*{deepest}", ring) == parse_polynomial("t*X", ring)
    # the first '(' past the bound fails before the descent goes deeper
    text = "(" * 100_000 + "t" + ")" * 100_000
    assert _error_of(lambda: parse_series(text, ring)) == (
        f"nesting overflow (line 1, column {MAX_NESTING})",
        MAX_NESTING,
    )


def test_imaginary_unit():
    ring = SeriesRing(("t",), 8)
    assert parse_scalar("2 - 3*i") == GaussianRational(2, -3)
    assert parse_series("i*t", ring) == ring.generator("t") * GaussianRational(0, 1)


def test_unary_minus_and_parens():
    ring = SeriesRing(("t",), 8)
    assert parse_series("-t + 1", ring) == 1 - ring.generator("t")
    assert parse_series("-(1 - t)^2", ring) == -((1 - ring.generator("t")) ** 2)


def test_scalar_rejects_series():
    with pytest.raises(ParseError):
        parse_scalar("1 + t")


@pytest.mark.parametrize("text", ["1 + t^3", "1 + t^9", "t^9", "0*t", "1 + 0*t^2"])
def test_scalar_rejects_every_generator_token(text):
    # exactness is read off the tokens: no truncation can drop a generator term
    with pytest.raises(ParseError, match="expected an exact scalar, found generator terms"):
        parse_scalar(text)
    with pytest.raises(ParseError, match="expected an exact scalar, found generator terms"):
        parse_matrix_json(f'{{"n":1,"base":[["{text}"]]}}')


def test_rational_function_parse():
    ring = ring_for("p^2 - 1")
    function = parse_rational_function("p^2 - 1 / p - 1", ring)
    assert function.num.degree == 2
    assert function.den.degree == 1
    assert parse_rational_function("p + 1 / p - 2", ring).den.degree == 1


def test_matrix_json():
    matrix = parse_matrix_json(
        '{"n":2, "base":[["1","1"],["0","1"]], "pert":[["0","0"],["t","0"]]}'
    )
    assert isinstance(matrix, PerturbedMatrix)
    assert matrix.base == ConstantMatrix([[1, 1], [0, 1]])
    assert matrix.pert[1][0] == matrix.ring.generator("t")
    identity = parse_matrix_json('{"n":2,"base":[["1","0"],["0","1"]]}')
    assert isinstance(identity, ConstantMatrix)


def test_matrix_json_errors():
    with pytest.raises(ParseError):
        parse_matrix_json("not json")
    with pytest.raises(ParseError):
        parse_matrix_json('{"n":2,"base":[["1","0"]]}')
    with pytest.raises(DomainError):
        parse_matrix_json('{"n":1,"base":[["0"]],"pert":[["1 + t"]]}')
    # json gives up on deep nesting with a RecursionError
    with pytest.raises(ParseError, match="invalid matrix JSON: maximum recursion depth"):
        parse_matrix_json("[" * 20_000 + "]" * 20_000)


@pytest.mark.parametrize(
    "text,field",
    [
        ('{"base": 5}', "base"),
        ('{"base": [1]}', "base"),
        ('{"n": 1, "base": [1]}', "base"),
        ('{"base": [["1"]], "pert": 3}', "pert"),
        ('{"base": [["1"]], "pert": [1]}', "pert"),
        ('{"base": [["1"]], "pert": "t"}', "pert"),
    ],
)
def test_matrix_json_needs_lists_of_lists(text, field):
    with pytest.raises(ParseError, match=f"matrix JSON '{field}' must be a list of lists"):
        parse_matrix_json(text)


ROUND_TRIP_CORPUS = [
    ("series", "0"),
    ("series", "1 - 2/3*e1 + e3^2"),
    ("series", "1/2 + 3/4*t^2"),
    ("series", "-t + t^2 - 7*t^3"),
    ("series", "(1 + 2*i)*t"),
    ("series", "i"),
    ("polynomial", "X^3 - e1*X + (-1 + e2)"),
    ("polynomial", "X^2 - 2*X + (1 - t)"),
    ("polynomial", "(1 - e1 + e3^2)*X + (-1 - e3 + e2)"),
    ("polynomial", "X^2 - 3*X + 2"),
    ("polynomial", "-X + 1"),
]


@pytest.mark.parametrize("kind,text", ROUND_TRIP_CORPUS)
def test_print_parse_round_trip(kind, text):
    ring = ring_for(text)
    if kind == "series":
        value = parse_series(text, ring)
        again = parse_series(str(value), ring)
    else:
        value = parse_polynomial(text, ring)
        again = parse_polynomial(str(value), ring)
    assert again == value


# -- the parse equals the value the same tree builds by polynomial arithmetic ----

_PROPERTY_RING = SeriesRing(("t", "e1", "e2"), 3)
_leaves = st.one_of(
    st.sampled_from(("X", "t", "e1", "e2")),
    st.sampled_from(("X", "i")),
    st.tuples(st.just("rational"), st.integers(0, 12), st.integers(1, 6)),
)


@st.composite
def _trees(draw, depth=4):
    """An expression tree; inner nodes are drawn more often than leaves, so
    products of sums, whose X-degree pairs meet in one place, are common."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(_leaves)
    op = draw(st.sampled_from(("+", "-", "*", "*", "^", "neg")))
    if op == "^":
        return op, draw(_trees(depth - 1)), draw(st.integers(0, 3))
    if op == "neg":
        return op, draw(_trees(depth - 1))
    return op, draw(_trees(depth - 1)), draw(_trees(depth - 1))


# binding strength: a child binding less tightly than its place needs
# parentheses, and so does the right operand of an operator of its own level
_LEVEL = {"+": 1, "-": 1, "*": 2, "^": 3}


def _level(tree) -> int:
    return _LEVEL.get(tree[0], 4) if isinstance(tree, tuple) else 4


def _render(tree, place: int = 0) -> str:
    if isinstance(tree, str):
        return tree
    op = tree[0]
    if op == "rational":
        _, num, den = tree
        text = str(num) if den == 1 else f"{num}/{den}"
    elif op == "neg":
        text = f"(-{_render(tree[1], 2)})"
    elif op == "^":
        text = f"{_render(tree[1], 4)}^{tree[2]}"
    else:
        level = _LEVEL[op]
        text = f"{_render(tree[1], level)} {op} {_render(tree[2], level + 1)}"
    return f"({text})" if _level(tree) < place else text


def _build(tree) -> PerturbedPolynomial:
    ring = _PROPERTY_RING
    if isinstance(tree, str):
        if tree == "X":
            return PerturbedPolynomial(ring, [0, 1])
        if tree == "i":
            return PerturbedPolynomial(ring, [GaussianRational(0, 1)])
        return PerturbedPolynomial(ring, [ring.generator(tree)])
    op = tree[0]
    if op == "rational":
        return PerturbedPolynomial(ring, [GaussianRational(Fraction(tree[1], tree[2]))])
    if op == "neg":
        return -_build(tree[1])
    if op == "^":
        return _build(tree[1]) ** tree[2]
    left, right = _build(tree[1]), _build(tree[2])
    return {"+": left + right, "-": left - right, "*": left * right}[op]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_trees())
@example(("*", ("+", ("rational", 1, 1), "X"), ("+", "t", "X")))  # X^1 from two pairs
# a generator at degree T next to a positive X-degree: packed keys do not carry
@example(("+", ("*", ("^", "e2", 3), ("^", "X", 2)), ("*", ("^", "t", 3), "X")))
# a product that truncates in the generators at several X-degrees at once
@example(("*", ("^", ("+", "X", "t"), 3), ("^", ("-", "X", ("*", "e1", "e2")), 2)))
# (X^2 + 2*t - X^2*t - X) * (X*t + 2 + X^2*t + 2*X): X^3*t gets -1 from -X
# times X^2*t, then +1 and -2 from X^2 and -X^2*t times X*t and 2*X; summed
# term by term it would cancel part-way and move behind X^3 and X^3*t^2
@example(
    (
        "*",
        (
            "-",
            ("-", ("+", ("^", "X", 2), ("*", ("rational", 2, 1), "t")), ("*", ("^", "X", 2), "t")),
            "X",
        ),
        (
            "+",
            ("+", ("+", ("*", "X", "t"), ("rational", 2, 1)), ("*", ("^", "X", 2), "t")),
            ("*", ("rational", 2, 1), "X"),
        ),
    )
)
def test_parse_matches_polynomial_arithmetic(tree):
    text = _render(tree)
    parsed = parse_polynomial(text, _PROPERTY_RING)
    built = _build(tree)
    assert parsed == built
    assert str(parsed) == str(built)
    # the row order too: multivariate numeric_sample sums in it
    assert [(c.den, list(c.rows.items())) for c in parsed.coeffs] == [
        (c.den, list(c.rows.items())) for c in built.coeffs
    ]


# -- every parse error, with its message and offset -------------------------------

# (text, offset, message); "{x}" is the indeterminate, and a row that names
# it is skipped for a series or a matrix entry
ERROR_TABLE = [
    ("1 +", 3, "syntax error: expected a value"),
    ("(1 + t", 6, "syntax error: expected ')'"),
    ("t^ + 1", 3, "syntax error: expected an integer exponent"),
    ("t t", 2, "syntax error: expected end of input"),
    ("1 $ t", 2, "unexpected character '$'"),
    ("1 + q", 4, "unknown symbol 'q'"),
    ("1 + e5", 4, "generator 'e5' missing from the ring"),
    ("t + 1/0", 6, "zero denominator"),
    ("t - 9" + "9" * MAX_LITERAL_DIGITS, 4, "literal overflow"),
    ("3^2049*t", 2, "exponent overflow"),
    ("{x}^513", 2, "exponent overflow"),
    # the base stores 6, 3 and 2: 1400 * 3 + 88 bits pass the bound
    ("(1/2 + 1/3*t)^1400", 14, "exponent overflow"),
    # a numerator with both parts nonzero adds one bit per factor
    ("(1+i)^64000", 6, "exponent overflow"),
    ("(1+i+t)^64000", 8, "exponent overflow"),
    ("2^4096 + 2^4096", 7, "coefficient overflow"),
    ("2^4096 - 1/3", 7, "coefficient overflow"),
    ("3^2048*3^2048", 6, "coefficient overflow"),
    # one bit past the bound, in a numerator and in a denominator
    ("2^4096*2", 6, "coefficient overflow"),
    ("1/2^4096*1/2", 8, "coefficient overflow"),
    # each coefficient reduces to a fraction within the bound, but the sum
    # stores their common denominator 2^4000 * 3^2000
    ("1/2^4000*{x} + 1/3^2000*{x}^2", 11, "coefficient overflow"),
    ("(" * (MAX_NESTING + 1) + "t" + ")" * (MAX_NESTING + 1), MAX_NESTING, "nesting overflow"),
    ("{x}^512*{x}", 5, "degree overflow"),
]


def _error_of(call):
    with pytest.raises(ParseError) as info:
        call()
    return str(info.value), info.value.offset


@pytest.mark.parametrize("template,offset,message", ERROR_TABLE)
def test_parse_error_table(template, offset, message):
    ring = SeriesRing(("t",), 8)
    expected = (f"{message} (line 1, column {offset})", offset)
    assert _error_of(lambda: parse_polynomial(template.format(x="X"), ring)) == expected
    function = template.format(x="p")
    assert _error_of(lambda: parse_rational_function(function, ring)) == expected
    if "{x}" in template:
        return
    assert _error_of(lambda: parse_series(template, ring)) == expected
    if "e5" in template:
        return  # a matrix's ring holds every generator its entries name
    matrix = json.dumps({"n": 1, "base": [["0"]], "pert": [[template]]})
    assert _error_of(lambda: parse_matrix_json(matrix)) == expected


def test_degree_overflow_at_the_first_product_past_the_bound():
    ring = SeriesRing(("t",), 8)
    assert parse_polynomial(f"X^{MAX_POLY_DEGREE - 1}*X", ring).degree == MAX_POLY_DEGREE
    # 64 factors of degree 512: the first product already passes the bound,
    # so nothing after it is built
    text = "*".join([f"X^{MAX_POLY_DEGREE}"] * 64)
    assert _error_of(lambda: parse_polynomial(text, ring)) == (
        "degree overflow (line 1, column 5)",
        5,
    )
    text = "X" + "*X" * MAX_POLY_DEGREE
    assert _error_of(lambda: parse_polynomial(text, ring)) == (
        f"degree overflow (line 1, column {len(text) - 2})",
        len(text) - 2,
    )


def test_parse_builds_no_series_polynomial(monkeypatch):
    # a degree-10 text in the style of the roots corpus
    terms = [f"({(-1) ** k * (k + 2)}*t + {k + 1}*t^2)*X^{k}" for k in range(10, 1, -1)]
    text = " + ".join(terms) + " - 7*X + (3 - 2*t)"
    ring = SeriesRing(("t",), 4)
    counts = {"mul": 0, "lift": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Polynomial, "__mul__", counted("mul", Polynomial.__mul__))
    monkeypatch.setattr(Polynomial, "__rmul__", counted("mul", Polynomial.__rmul__))
    monkeypatch.setattr(
        PerturbedPolynomial, "_lift", counted("lift", PerturbedPolynomial._lift)
    )
    poly = parse_polynomial(text, ring)
    assert poly.degree == 10
    assert counts["mul"] == 0
    assert counts["lift"] <= poly.degree + 1


def test_a_product_multiplies_rows_once_per_x_degree(monkeypatch):
    # one row map per value: X^3 and X^2 take 3 row products and the square
    # one per X-degree of its left factor; a product per pair of X-degrees
    # would take 16 for the square alone
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return mul_rows(*args, **kwargs)

    mul_rows = parsing._mul_rows
    monkeypatch.setattr(parsing, "_mul_rows", counted)
    poly = parse_polynomial("(X^3+X^2+X+1)^2", SeriesRing(("t",), 8))
    assert [c.standard_part() for c in poly.coeffs] == [1, 2, 3, 4, 3, 2, 1]
    assert len(calls) <= 7


def test_product_overflow_at_the_operator():
    # (1 + X + t + e1 + e2)^32 stores 4,455 rows at T = 8, and its largest
    # product, the last square, pairs 1,815^2 of them
    ring = SeriesRing(("t", "e1", "e2"), 8)
    base = "(1+X+t+e1+e2)"
    power = parse_polynomial(f"{base}^32", ring)
    assert power.degree == 32
    assert sum(len(c.rows) for c in power.coeffs) == 4455
    # the square that ^64 needs pairs 4,455^2 rows, past MAX_PRODUCT_PAIRS: the
    # error is at the exponent, and ^512 stops at the same square
    assert 4455**2 > parsing.MAX_PRODUCT_PAIRS
    for text, offset in ((f"{base}^64", 14), (f"t*{base}^512", 16)):
        assert _error_of(lambda: parse_polynomial(text, ring)) == (
            f"product overflow (line 1, column {offset})",
            offset,
        )
    # a `*` of two such powers fails at the `*`, before its product is built
    text = f"{base}^32*{base}^32 + t"
    assert _error_of(lambda: parse_polynomial(text, ring)) == (
        "product overflow (line 1, column 16)",
        16,
    )
