"""Command-line front end: subcommand dispatch and report emission.

Exit codes: 0 success, 1 parse/usage error or a closed stdout, 2 domain
error, 3 oracle failure or inconclusive verification.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import partial

from .errors import (
    DomainError,
    NonUnitError,
    OracleError,
    ParseError,
    RingMismatchError,
)
from .exactpoly import ExactPolynomial
from .goze import decompose
from .matrices import (
    PerturbedMatrix,
    char_poly,
    conservative_residuals,
    eigenvalue_correction,
    hermitian_first_order,
    orbit_dimension,
    perturbation_poly,
)
from .oracle import (
    DEFAULT_GRID,
    DEFAULT_TOLERANCE,
    ConvergenceReport,
    Sample,
    _descending_grid,
    _judge,
    default_values,
    transfer_residual,
    verify_pgcd,
    verify_root_asymptotics,
)
from .parsing import (
    parse_matrix_json,
    parse_polynomial,
    parse_scalar,
    parse_series,
    parse_series_list,
    ring_for,
    scan_generator_names,
)
from .ppoly import (
    BalanceQuadratic,
    PerturbedPolynomial,
    RootAsymptotics,
    dominant_balance,
    monic_shadow,
    pgcd,
    root_correction,
)
from .series import DEFAULT_TRUNCATION, SeriesRing, univariate_ring
from .transfer import RationalFunction, simplify


def _emit(args, payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
        return
    for key, value in payload.items():
        if isinstance(value, list):
            print(f"{key}:")
            for item in value:
                print(f"  {json.dumps(item) if isinstance(item, (dict, list)) else item}")
        elif isinstance(value, dict):
            print(f"{key}:")
            for inner_key, inner_value in value.items():
                print(f"  {inner_key}: {inner_value}")
        else:
            print(f"{key}: {value}")


def _exact_polynomial(text: str) -> ExactPolynomial:
    """A polynomial in X that names no generator; truncation cannot touch it."""
    generators = scan_generator_names(text)
    poly = parse_polynomial(text, SeriesRing(generators or ("t",), 1), "X")
    if generators:
        raise DomainError("base polynomial must have exact scalar coefficients")
    return poly.shadow()


def _trace_payload(trace) -> list:
    return [
        {
            "remainder": str(step.remainder),
            "wholly_infinitesimal": step.wholly_infinitesimal,
            "exact_zero": step.exact_zero,
            "stripped_degrees": list(step.divisor_stripped_degrees),
        }
        for step in trace
    ]


def _asym_payload(result) -> dict:
    """One branch of the Newton-polygon walk, as printed by roots and eigshift."""
    if isinstance(result, BalanceQuadratic):
        return {
            "kind": "balance",
            "quad_coeff": str(result.quad_coeff),
            "linear": str(result.linear),
            "constant": str(result.constant),
        }
    return {"kind": "power", "order": result.order, "rhs": str(result.rhs)}


def _branches(base: ExactPolynomial, shift, root, declared) -> list:
    """JSON payloads of the branches at a root, once its declared multiplicity holds."""
    branches = dominant_balance(base, shift, root)
    # the branch orders add up to the multiplicity; a balance holds two
    mult = sum(branch.order for branch in branches)
    if declared is not None and declared != mult:
        raise DomainError(f"declared multiplicity {declared} but {root} has multiplicity {mult}")
    return [_asym_payload(branch) for branch in branches]


# -- subcommand handlers -------------------------------------------------------


def _cmd_pgcd(args) -> int:
    ring = ring_for(args.p1, args.p2, truncation=args.trunc)
    a = parse_polynomial(args.p1, ring, "X")
    b = parse_polynomial(args.p2, ring, "X")
    result, trace = pgcd(a, b)
    _emit(
        args,
        {
            "pgcd": str(result),
            "monic_shadow": str(monic_shadow(result)),
            "trace": _trace_payload(trace),
        },
    )
    return 0


def _cmd_roots(args) -> int:
    base = _exact_polynomial(args.base)
    ring = ring_for(args.pert, truncation=args.trunc)
    shift = parse_polynomial(args.pert, ring, "X")
    root = parse_scalar(args.root)
    branches = _branches(base, shift, root, args.mult)
    _emit(args, {"base_root": str(root), "asymptotics": branches})
    return 0


def _cmd_goze(args) -> int:
    result = decompose(parse_series_list(args.vector, args.trunc))
    levels = [
        {"alpha": str(alpha), "U": [str(u) for u in direction]}
        for alpha, direction in result.levels
    ]
    _emit(args, {"levels": levels, "rank": result.rank()})
    return 0


def _cmd_charpoly(args) -> int:
    matrix = parse_matrix_json(args.matrix, args.trunc)
    _emit(args, {"charpoly": str(char_poly(matrix))})
    return 0


def _perturbed_matrix(args) -> PerturbedMatrix:
    matrix = parse_matrix_json(args.matrix, args.trunc)
    if not isinstance(matrix, PerturbedMatrix):
        raise DomainError(f"{args.command} needs a matrix with a 'pert' block")
    return matrix


def _cmd_eigshift(args) -> int:
    matrix = _perturbed_matrix(args)
    eigenvalue = parse_scalar(args.eigenvalue)
    branches = _branches(
        char_poly(matrix).shadow(), perturbation_poly(matrix), eigenvalue, args.mult
    )
    # one power branch keeps the flat shape; a balance or several branches are listed
    flat = len(branches) == 1 and branches[0]["kind"] == "power"
    payload = branches[0] if flat else {"asymptotics": branches}
    _emit(args, {"eigenvalue": str(eigenvalue), **payload})
    return 0


def _cmd_conservative(args) -> int:
    matrix = _perturbed_matrix(args)
    residuals = conservative_residuals(matrix.base, matrix)
    _emit(
        args,
        {
            "residuals": [str(r) for r in residuals],
            "conservative": all(r.is_zero() for r in residuals),
        },
    )
    return 0


def _cmd_orbitdim(args) -> int:
    matrix = parse_matrix_json(args.matrix, args.trunc)
    if isinstance(matrix, PerturbedMatrix):
        matrix = matrix.base
    _emit(args, {"dimension": orbit_dimension(matrix)})
    return 0


def _cmd_hermitian(args) -> int:
    matrix = parse_matrix_json(args.matrix, args.trunc)
    direction = parse_matrix_json(args.direction, args.trunc)
    if isinstance(matrix, PerturbedMatrix) or isinstance(direction, PerturbedMatrix):
        raise DomainError("hermitian takes exact base and direction matrices")
    ring = ring_for(args.alpha, truncation=args.trunc)
    alpha = parse_series(args.alpha, ring)
    eigenvalue = parse_scalar(args.eigenvalue)
    shift = hermitian_first_order(matrix, direction, alpha, eigenvalue)
    _emit(args, {"shift": str(shift)})
    return 0


def _cmd_simplify_tf(args) -> int:
    ring = ring_for(args.num, args.den, truncation=args.trunc)
    function = RationalFunction(
        parse_polynomial(args.num, ring, "p"), parse_polynomial(args.den, ring, "p")
    )
    report = simplify(function)
    _emit(
        args,
        {
            "reduced_shadow": str(report.reduced_shadow),
            "pgcd": str(report.pgcd),
            "num_residual": str(function.num % report.pgcd),
            "den_residual": str(function.den % report.pgcd),
            "first_order": {g: str(c) for g, c in report.first_order.items()},
        },
    )
    return 0


# -- verification cases ----------------------------------------------------------


# Root cases at the root 1: base coefficients (low degree first), the sign of
# Xi = +-t, and c to claim xi^k ~ c*t in place of root_correction's claim, or
# None.  refute-half claims xi^2 ~ t/2, which drops the factorial; the oracle
# must reject it.
_ROOT_CASES = {
    "simple": ([-1, 0, 1], 1, None),
    "double": ([1, -2, 1], -1, None),
    "refute-half": ([1, -2, 1], -1, Fraction(1, 2)),
}

# Matrix cases: matrix JSON and the eigenvalue whose correction is checked.
_MATRIX_CASES = {
    "jordan2": ('{"n":2,"base":[["1","1"],["0","1"]],"pert":[["0","0"],["t","0"]]}', 1),
    "nilpotent3": (
        '{"n":3,"base":[["0","1","0"],["0","0","1"],["0","0","0"]],'
        '"pert":[["0","0","0"],["0","0","0"],["t","0","0"]]}',
        0,
    ),
}


def _root_case(coeffs, sign, claimed, trunc, grid, seed, tolerance):
    ring = univariate_ring(trunc)
    t = ring.generator("t")
    base = ExactPolynomial(coeffs)
    shift = PerturbedPolynomial(ring, [t * sign])
    asym = root_correction(base, shift, 1)
    if claimed is not None:
        asym = RootAsymptotics(asym.base_root, asym.order, t * claimed)
    return verify_root_asymptotics(base, shift, asym, grid, tolerance, seed)


def _matrix_case(text, eigenvalue, trunc, grid, seed, tolerance):
    matrix = parse_matrix_json(text, trunc)
    asym = eigenvalue_correction(matrix.base, matrix, eigenvalue)
    return verify_root_asymptotics(
        char_poly(matrix).shadow(), perturbation_poly(matrix), asym, grid, tolerance, seed
    )


def _case_pgcd(trunc, grid, seed, tolerance):
    ring = SeriesRing(("e1", "e2", "e3"), trunc)
    a = parse_polynomial("X^3 - e1*X - 1 + e2", ring, "X")
    b = parse_polynomial("X^2 + e3*X - 1", ring, "X")
    result, _ = pgcd(a, b)
    return verify_pgcd(a, b, min(grid), result, tolerance, seed)


def _case_transfer(trunc, grid, seed, tolerance):
    """The first-order map leaves a second-order residual; no step is seeded."""
    ring = SeriesRing(("e1", "e2", "e3"), trunc)
    function = RationalFunction(
        parse_polynomial("p^3 - e1*p - 1 + e2", ring, "p"),
        parse_polynomial("p^2 + e3*p - 1", ring, "p"),
    )
    report = simplify(function)
    out = ConvergenceReport(tolerance=tolerance)
    points = [
        (t0, transfer_residual(function, report, 2.0, default_values(ring.generators, t0)))
        for t0 in grid
    ]
    for (t_prev, previous), (t0, residual) in zip(points, points[1:]):
        # quadratic decay predicts each residual from the one before
        predicted = previous * (t0 / t_prev) ** 2
        deviation = abs(residual / predicted - 1) if predicted else math.inf
        out.samples.append(Sample(t0, residual, predicted, deviation))
    if not out.samples:
        out.inconclusive = True
        out.note = "one grid point leaves no decay to judge"
    return _judge(out)


_VERIFY_CASES = {
    **{name: partial(_root_case, *row) for name, row in _ROOT_CASES.items()},
    **{name: partial(_matrix_case, *row) for name, row in _MATRIX_CASES.items()},
    "pgcd": _case_pgcd,
    "transfer": _case_transfer,
}


def _cmd_verify(args) -> int:
    case = _VERIFY_CASES.get(args.case)
    if case is None:
        known = ", ".join(sorted(_VERIFY_CASES))
        raise DomainError(f"unknown case {args.case!r}; known cases: {known}")
    grid = _descending_grid(args.grid)
    if not 0 < args.tolerance < math.inf:  # NaN fails too
        raise DomainError("tolerance must be finite and positive")
    report = case(args.trunc, grid, args.seed, args.tolerance)
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.verdict else 3


# -- argument plumbing --------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _truncation(text: str) -> int:
    """--trunc value: an int >= 1, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"truncation degree must be >= 1, got {value}")
    return value


def _grid(text: str) -> list[float]:
    """--grid value: comma-separated numbers, else a usage error."""
    try:
        return [float(chunk) for chunk in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid grid: {text!r}") from None


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="perturbalg")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--trunc", type=_truncation, default=DEFAULT_TRUNCATION,
                        help="truncation degree T")
    common.add_argument("--seed", type=int, default=0,
                        help="oracle seed (verify --case transfer has no seeded step)")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pgcd", parents=[common], help="perturbed GCD of two polynomials")
    p.add_argument("--p1", required=True)
    p.add_argument("--p2", required=True)
    p.set_defaults(handler=_cmd_pgcd)

    p = sub.add_parser("roots", parents=[common], help="root asymptotics of P + Xi")
    p.add_argument("--base", required=True, help="exact polynomial in X")
    p.add_argument("--pert", required=True, help="infinitesimal polynomial in X")
    p.add_argument("--root", required=True, help="exact root of the base polynomial")
    p.add_argument("--mult", type=int, default=None)
    p.set_defaults(handler=_cmd_roots)

    p = sub.add_parser("goze", parents=[common], help="nested-scale decomposition")
    p.add_argument("--vector", required=True, help="comma-separated series")
    p.set_defaults(handler=_cmd_goze)

    p = sub.add_parser("charpoly", parents=[common], help="characteristic polynomial")
    p.add_argument("--matrix", required=True, help="matrix JSON")
    p.set_defaults(handler=_cmd_charpoly)

    p = sub.add_parser("eigshift", parents=[common], help="eigenvalue correction")
    p.add_argument("--matrix", required=True, help="matrix JSON with a pert block")
    p.add_argument("--eigenvalue", required=True)
    p.add_argument("--mult", type=int, default=None)
    p.set_defaults(handler=_cmd_eigshift)

    p = sub.add_parser("conservative", parents=[common],
                       help="characteristic-polynomial residuals of A + E")
    p.add_argument("--matrix", required=True)
    p.set_defaults(handler=_cmd_conservative)

    p = sub.add_parser("orbitdim", parents=[common], help="conjugation orbit dimension")
    p.add_argument("--matrix", required=True)
    p.set_defaults(handler=_cmd_orbitdim)

    p = sub.add_parser("hermitian", parents=[common],
                       help="first-order Hermitian eigenvalue shift")
    p.add_argument("--matrix", required=True, help="Hermitian base matrix JSON")
    p.add_argument("--direction", required=True, help="Hermitian direction JSON")
    p.add_argument("--alpha", required=True, help="infinitesimal scale series")
    p.add_argument("--eigenvalue", required=True)
    p.set_defaults(handler=_cmd_hermitian)

    p = sub.add_parser("simplify-tf", parents=[common],
                       help="reduce an uncertain transfer function")
    p.add_argument("--num", required=True, help="numerator polynomial in p")
    p.add_argument("--den", required=True, help="denominator polynomial in p")
    p.set_defaults(handler=_cmd_simplify_tf)

    p = sub.add_parser("verify", parents=[common], help="run a named oracle check")
    p.add_argument("--case", required=True)
    p.add_argument("--grid", type=_grid, default=DEFAULT_GRID,
                   help="comma-separated sample scales, each in (0, 0.1]")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.set_defaults(handler=_cmd_verify)
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, NonUnitError, RingMismatchError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
