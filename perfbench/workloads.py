"""Seeded corpora and per-problem solvers for the four benchmark workloads.

A corpus is a run of slots.  Each slot's shape comes from a stream keyed by
the slot alone, and its values from ``random.Random(f"<workload>:<seed>")``,
so one seed always gives the same inputs.  A problem is plain data: the text
the program receives (matrix JSON, expression text or CLI arguments) plus the
design it was built from, which only the references in ``references.py`` read.

The solvers call the package only through module attributes
(``matrices.char_poly`` and so on), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

WORKLOADS = ("eigen", "pgcd", "roots", "cli")

EIGEN_TRUNC = 8
PGCD_TRUNC = 6
ROOTS_TRUNC = 4
PGCD_T0 = 1e-4
ORACLE_GRID = (1e-2, 1e-3, 1e-4)

# Every corpus repeats a fixed cycle of problem shapes (sizes, degrees,
# multiplicities); the seed draws only the values inside each shape.  Cost is
# set mostly by the shape, so corpora of different seeds cost about the same
# and their latency percentiles fall inside a shape group, not between two.
EIGEN_SIZES = (3, 4, 5, 5, 5, 6, 6, 6)
PGCD_DEGREES = ((2, 3), (3, 2), (3, 4), (4, 3), (4, 5), (5, 4), (5, 5), (2, 5))
ROOTS_CYCLE = 28  # degrees 4..10 x multiple root of order 2 or 3 x Xi(u) = 0 or not

# Seconds one problem (for cli: one invocation) takes on a 2-core x86
# sandbox with Python 3.11.  A corpus holds whole cycles, as many as make one
# pass last about --seconds there.
NOMINAL_SECONDS = {"eigen": 0.27, "pgcd": 0.12, "roots": 0.04, "cli": 0.12}


# -- text helpers ----------------------------------------------------------------


def _term(coeff: int, monomial: str) -> tuple[str, str]:
    """(sign, body) of one integer term; monomial may be empty."""
    sign = "-" if coeff < 0 else "+"
    magnitude = abs(coeff)
    if not monomial:
        return sign, str(magnitude)
    return sign, monomial if magnitude == 1 else f"{magnitude}*{monomial}"


def _join(terms) -> str:
    terms = list(terms)
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


def _power(var: str, degree: int) -> str:
    if degree == 0:
        return ""
    return var if degree == 1 else f"{var}^{degree}"


def poly_text(coeffs, var: str) -> str:
    """Integer polynomial, low degree first, as grammar text."""
    return _join(
        _term(c, _power(var, k)) for k, c in reversed(list(enumerate(coeffs))) if c
    )


def t_series_text(by_power: dict) -> str:
    """Integer univariate series {power: coeff} in t as grammar text."""
    return _join(_term(c, _power("t", k)) for k, c in sorted(by_power.items()) if c)


def poly_from_roots(roots) -> list[int]:
    coeffs = [1]
    for r in roots:
        shifted = [0] + coeffs
        for k, c in enumerate(coeffs):
            shifted[k] -= r * c
        coeffs = shifted
    return coeffs


def poly_mul(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


# -- eigen: perturbed matrices with a known Jordan structure -------------------------


def _unimodular_pair(shape: random.Random, n: int):
    """Dense integer U = L*R with det 1, and its integer inverse.

    L is unit lower and R unit upper triangular with entries +-1 off the
    diagonal, so every entry of U*J*U^-1 mixes several Jordan entries.
    """
    lower = [[int(i == j) or (shape.choice((-1, 1)) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[int(i == j) or (shape.choice((-1, 1)) if j > i else 0) for j in range(n)] for i in range(n)]

    def unit_triangular_inverse(m, lower_side):
        inv = [[int(i == j) for j in range(n)] for i in range(n)]
        order = range(n) if lower_side else range(n - 1, -1, -1)
        for i in order:
            for k in (range(i) if lower_side else range(i + 1, n)):
                factor = m[i][k]
                if factor:
                    inv[i] = [x - factor * y for x, y in zip(inv[i], inv[k])]
        return inv

    u = _matmul(lower, upper)
    u_inv = _matmul(unit_triangular_inverse(upper, False), unit_triangular_inverse(lower, True))
    return u, u_inv


def make_eigen_problem(shape: random.Random, rng: random.Random, n: int, mult: int) -> dict:
    """A = U*J*U^-1 with a Jordan block of size `mult` at the target eigenvalue.

    `shape` fixes the block sizes, U and where the perturbation sits; `rng`
    draws the eigenvalues and the perturbation's coefficients.
    """
    sizes = [mult]
    while sum(sizes) < n:
        sizes.append(shape.choice([s for s in (1, 2, 3) if sum(sizes) + s <= n]))
    u, u_inv = _unimodular_pair(shape, n)
    # F = f1*t + f2*t^2 is the perturbation in Jordan coordinates.  Only the
    # corner entry of the target block reaches the first-order part of
    # Xi(lambda), so Xi(lambda) is never zero; the other entries are noise.
    corner = (mult - 1, 0)
    noise = []
    for order in (1, 2, 2):
        i, j = shape.randrange(n), shape.randrange(n)
        noise.append((2 if (i, j) == corner else order, i, j))

    eigenvalues = rng.sample(range(-3, 4), len(sizes))
    jordan = [[0] * n for _ in range(n)]
    pos = 0
    for size, lam in zip(sizes, eigenvalues):
        for k in range(size):
            jordan[pos + k][pos + k] = lam
            if k + 1 < size:
                jordan[pos + k][pos + k + 1] = 1
        pos += size
    f = {1: [[0] * n for _ in range(n)], 2: [[0] * n for _ in range(n)]}
    f[1][corner[0]][corner[1]] = rng.choice((-3, -2, -1, 1, 2, 3))
    for order, i, j in noise:
        f[order][i][j] += rng.choice((-2, -1, 1, 2))
    a = _matmul(_matmul(u, jordan), u_inv)
    e1 = _matmul(_matmul(u, f[1]), u_inv)
    e2 = _matmul(_matmul(u, f[2]), u_inv)
    text = json.dumps(
        {
            "n": n,
            "base": [[str(x) for x in row] for row in a],
            "pert": [
                [t_series_text({1: e1[i][j], 2: e2[i][j]}) for j in range(n)]
                for i in range(n)
            ],
        }
    )
    return {
        "text": text,
        "target": eigenvalues[0],
        "mult": mult,
        "design": {"A": a, "E1": e1, "E2": e2, "blocks": list(zip(sizes, eigenvalues))},
    }


# -- pgcd: uncertain transfer functions with a designed common factor ---------------

# noise monomials by the generator they must contain, so each problem names
# all three generators and every ring is (e1, e2, e3)
_NOISE = {
    "e1": ("e1", "e1*e2", "e1*e3"),
    "e2": ("e2", "e1*e2", "e2*e3"),
    "e3": ("e3", "e2*e3", "e1*e3", "e3^2"),
}


def make_pgcd_problem(
    shape: random.Random, rng: random.Random, num_degree: int, den_degree: int, gcd_degree: int
) -> dict:
    """num = G*C1 + noise, den = G*C2 + noise with monic integer-root G, C1, C2.

    `shape` picks the noise monomials and their powers of p; `rng` draws the
    roots and the noise coefficients.
    """
    generators = ("e1", "e2", "e3", shape.choice(("e1", "e2", "e3")))
    degrees = (num_degree, num_degree, den_degree, den_degree)
    monomials = [
        "*".join(x for x in (shape.choice(_NOISE[g]), _power("p", shape.randint(0, d - 1))) if x)
        for g, d in zip(generators, degrees)
    ]

    pool = rng.sample(range(-4, 5), num_degree + den_degree - gcd_degree)
    g = poly_from_roots(pool[:gcd_degree])
    c1 = poly_from_roots(pool[gcd_degree:num_degree])
    c2 = poly_from_roots(pool[num_degree:])
    noise = [_term(rng.choice((-2, -1, 1, 2)), monomial) for monomial in monomials]

    def exact_terms(coeffs):
        return [_term(c, _power("p", k)) for k, c in reversed(list(enumerate(coeffs))) if c]

    return {
        "num": _join(exact_terms(poly_mul(g, c1)) + noise[:2]),
        "den": _join(exact_terms(poly_mul(g, c2)) + noise[2:]),
        "design": {"gcd": g, "cof1": c1, "cof2": c2},
    }


# -- roots: exact bases with one multiple integer root, perturbed in t ---------------


def _int_eval(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def make_roots_problem(rng: random.Random, degree: int, multiple: int, vanishing: bool) -> dict:
    """Base with one root of order `multiple` and simple roots; Xi = t*S1 + t^2*S2.

    With `vanishing` (double roots only) Xi is zero at the double root, which
    sends that root through dominant_balance; every other root keeps
    Xi(u) != 0, so root_correction answers it.  The slot fixes degree,
    multiplicity and `vanishing`; `rng` draws roots and coefficients.
    """
    roots = rng.sample(range(-6, 7), degree - multiple + 1)
    mults = [multiple] + [1] * (degree - multiple)
    base = poly_from_roots([r for r, m in zip(roots, mults) for _ in range(m)])
    zero_at = roots[0] if vanishing else None
    others = roots[1:] if vanishing else roots

    def draw():
        while True:
            coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(degree - vanishing)]
            if zero_at is not None:
                coeffs = poly_mul(coeffs, [-zero_at, 1])
            if all(_int_eval(coeffs, r) for r in others):
                return coeffs

    s1, s2 = draw(), draw()
    xi_terms = []
    for k in range(degree - 1, -1, -1):
        if not (s1[k] or s2[k]):
            continue
        coeff_text = f"({t_series_text({1: s1[k], 2: s2[k]})})"
        power = _power("X", k)
        xi_terms.append(("+", f"{coeff_text}*{power}" if power else coeff_text))
    return {
        "base": poly_text(base, "X"),
        "xi": _join(xi_terms),
        "roots": list(zip(roots, mults)),
        "design": {"base": base, "s1": s1, "s2": s2},
    }


# -- cli: every subcommand with the README inputs, and every verify case ------------

_JORDAN2 = '{"n":2,"base":[["1","1"],["0","1"]],"pert":[["0","0"],["t","0"]]}'
CLI_COMMANDS = (
    ["pgcd", "--p1", "X^3 - e1*X - 1 + e2", "--p2", "X^2 + e3*X - 1", "--json"],
    ["roots", "--base", "X^2 - 2*X + 1", "--pert=-t", "--root", "1", "--json"],
    ["goze", "--vector", "t + 2*t^2, 3*t^2", "--json"],
    ["charpoly", "--matrix", _JORDAN2, "--json"],
    ["eigshift", "--matrix", _JORDAN2, "--eigenvalue", "1", "--json"],
    [
        "conservative",
        "--matrix",
        '{"n":2,"base":[["0","0"],["0","0"]],"pert":[["0","t"],["0","0"]]}',
        "--json",
    ],
    ["orbitdim", "--matrix", '{"n":2,"base":[["1","0"],["0","1"]]}', "--json"],
    [
        "hermitian",
        "--matrix",
        '{"n":2,"base":[["0","0"],["0","1"]]}',
        "--direction",
        '{"n":2,"base":[["1","0"],["0","0"]]}',
        "--alpha",
        "t",
        "--eigenvalue",
        "0",
        "--json",
    ],
    ["simplify-tf", "--num", "p^3 - e1*p - 1 + e2", "--den", "p^2 + e3*p - 1", "--json"],
) + tuple(
    ["verify", "--case", case, "--grid", "1e-2,1e-3,1e-4"]
    for case in ("simple", "double", "jordan2", "nilpotent3", "pgcd", "transfer", "refute-half")
)
CYCLE = {
    "eigen": len(EIGEN_SIZES),
    "pgcd": len(PGCD_DEGREES),
    "roots": ROOTS_CYCLE,
    "cli": len(CLI_COMMANDS),
}


def make_cli_problem(argv, seed: int) -> dict:
    argv = list(argv) + ["--seed", str(seed)]
    return {"argv": argv, "is_verify": argv[0] == "verify", "refute": "refute-half" in argv}


# -- corpora ---------------------------------------------------------------------------


def corpus_size(workload: str, seconds: float) -> int:
    cycle = CYCLE[workload]
    return cycle * max(1, round(seconds / (NOMINAL_SECONDS[workload] * cycle)))


def _make(workload: str, rng: random.Random, slot: int, seed: int) -> dict:
    """Problem of the given slot.

    The slot alone fixes the problem's shape (through its own stream, the
    same for every seed); `rng` draws the values inside that shape.
    """
    shape = random.Random(f"{workload}:shape:{slot}")
    if workload == "eigen":
        return make_eigen_problem(shape, rng, EIGEN_SIZES[slot % len(EIGEN_SIZES)], 1 + slot % 3)
    if workload == "pgcd":
        num_degree, den_degree = PGCD_DEGREES[slot % len(PGCD_DEGREES)]
        return make_pgcd_problem(shape, rng, num_degree, den_degree, 1 + slot % 2)
    if workload == "roots":
        multiple = 2 + (slot // 7) % 2
        vanishing = multiple == 2 and (slot // 14) % 2 == 0
        return make_roots_problem(rng, 4 + slot % 7, multiple, vanishing)
    if workload == "cli":
        return make_cli_problem(CLI_COMMANDS[slot % len(CLI_COMMANDS)], seed)
    raise ValueError(f"unknown workload {workload!r}")


def corpus(workload: str, seed: int, size: int) -> list[dict]:
    """The seeded problem list; problem ids are positions in the list."""
    rng = random.Random(f"{workload}:{seed}")
    problems = [_make(workload, rng, slot, seed) for slot in range(size)]
    if workload == "cli":
        # the seed orders the calls inside each pass over the commands
        cycle = CYCLE["cli"]
        passes = [problems[k:k + cycle] for k in range(0, size, cycle)]
        for chunk in passes:
            rng.shuffle(chunk)
        problems = [problem for chunk in passes for problem in chunk]
    for index, problem in enumerate(problems):
        problem["id"] = index
    return problems


def warmup_problem(workload: str, seed: int) -> dict:
    """The untimed first problem, from a stream of its own."""
    problem = _make(workload, random.Random(f"{workload}:warmup:{seed}"), 0, seed)
    problem["id"] = -1
    return problem


# -- solvers: one problem through the package's public entry points ----------------


def _oracle(call) -> str:
    """Outcome of one oracle call: pass, fail, inconclusive or error."""
    from perturbalg.errors import PerturbAlgError

    try:
        report = call()
    except PerturbAlgError:
        return "error"
    if report.verdict:
        return "pass"
    return "inconclusive" if report.inconclusive else "fail"


def _verify_claim(oracle, base, xi, claim) -> str:
    from perturbalg.ppoly import BalanceQuadratic

    if isinstance(claim, BalanceQuadratic):
        return _oracle(lambda: oracle.verify_quadratic_balance(base, xi, claim, ORACLE_GRID))
    return _oracle(lambda: oracle.verify_root_asymptotics(base, xi, claim, ORACLE_GRID))


def solve_eigen(problem: dict):
    from perturbalg import matrices, oracle, parsing, ppoly

    matrix = parsing.parse_matrix_json(problem["text"], EIGEN_TRUNC)
    base = matrix.base
    base_poly = matrices.char_poly(base)
    full_poly = matrices.char_poly(matrix)
    xi = full_poly - ppoly.PerturbedPolynomial.from_exact(base_poly, matrix.ring)
    if problem["mult"] == 2:
        claims = ppoly.dominant_balance(base_poly, xi, problem["target"])
    else:
        claims = [matrices.eigenvalue_correction(base, matrix, problem["target"])]
    first = matrices.xi_first_order(base, matrix)
    verdicts = [_verify_claim(oracle, base_poly, xi, claim) for claim in claims]
    return {"charpoly": full_poly, "first_order": first, "claims": claims}, verdicts


def solve_pgcd(problem: dict):
    from perturbalg import oracle, parsing, transfer

    ring = parsing.ring_for(problem["num"], problem["den"], truncation=PGCD_TRUNC)
    num = parsing.parse_polynomial(problem["num"], ring, "p")
    den = parsing.parse_polynomial(problem["den"], ring, "p")
    report = transfer.simplify(transfer.RationalFunction(num, den))
    verdict = _oracle(lambda: oracle.verify_pgcd(num, den, PGCD_T0, report.pgcd))
    return {"pgcd": report.pgcd, "reduced": report.reduced_shadow}, [verdict]


def solve_roots(problem: dict):
    from perturbalg import goze, oracle, parsing, ppoly
    from perturbalg.errors import DegenerateError

    ring = parsing.ring_for(problem["xi"], truncation=ROOTS_TRUNC)
    base = parsing.parse_polynomial(problem["base"], ring, "X").shadow()
    xi = parsing.parse_polynomial(problem["xi"], ring, "X")
    decomposition = goze.decompose(list(xi.coeffs))
    claims = []
    for root, mult in problem["roots"]:
        try:
            claims.append(ppoly.root_correction(base, xi, root, decomposition=decomposition))
        except DegenerateError:
            if mult != 2:
                raise
            claims.extend(ppoly.dominant_balance(base, xi, root))
    verdicts = [_verify_claim(oracle, base, xi, claim) for claim in claims]
    return {"claims": claims}, verdicts


def run_cli_inprocess(argv) -> tuple[int, str]:
    """(exit code, stdout) of one CLI call made inside this interpreter."""
    from perturbalg import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    return code, buffer.getvalue()


def solve_cli_inprocess(problem: dict):
    code, stdout = run_cli_inprocess(problem["argv"])
    verdicts = []
    if problem["is_verify"]:
        verdicts = ["pass" if code == 0 else "fail"]
    return {"code": code, "stdout": stdout}, verdicts


SOLVERS = {
    "eigen": solve_eigen,
    "pgcd": solve_pgcd,
    "roots": solve_roots,
    "cli": solve_cli_inprocess,
}


def cli_argv(workload: str, problem: dict) -> list[str]:
    """The CLI call that does a problem's main computation (for cli.run_s)."""
    if workload == "eigen":
        return ["eigshift", "--matrix", problem["text"], "--eigenvalue", str(problem["target"]),
                "--trunc", str(EIGEN_TRUNC), "--json"]
    if workload == "pgcd":
        return ["simplify-tf", "--num", problem["num"], "--den", problem["den"],
                "--trunc", str(PGCD_TRUNC), "--json"]
    if workload == "roots":
        return ["roots", "--base", problem["base"], f"--pert={problem['xi']}",
                "--root", str(problem["roots"][0][0]), "--trunc", str(ROOTS_TRUNC), "--json"]
    return problem["argv"]
