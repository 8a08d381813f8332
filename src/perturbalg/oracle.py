"""Floating-point brute force: the independent check on every asymptotic claim.

Symbolic results are validated by substituting small numeric values for the
infinitesimal generators, computing roots or eigenvalues with a
simultaneous-iteration root finder, and testing that observed/predicted
ratios converge to 1 as the substituted values shrink.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
import sys
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Sequence

from .errors import DomainError, OracleError
from .exactpoly import ExactPolynomial
from .matrices import PerturbedMatrix, char_poly
from .ppoly import BalanceQuadratic, PerturbedPolynomial, RootAsymptotics

MAX_ITERATIONS = 200
NOISE_FLOOR = 1e-6  # deviations below this are rounding noise, not asymptotics
DEFAULT_GRID = (1e-2, 1e-3, 1e-4)  # the values t0 a claim is sampled at
DEFAULT_TOLERANCE = 0.2  # the deviation a check passes at its last sample


def poly_roots_numeric(
    coeffs: Sequence[complex], seed: int = 0, *, start: Sequence[complex] | None = None
) -> list[complex]:
    """All complex roots by Aberth-type simultaneous iteration.

    Coefficients are listed low degree first, with finite parts, a nonzero
    leading coefficient and degree at most 30.  Exact zero roots are deflated
    first.  `start` gives one point per root before deflation; the points
    nearest 0, one per deflated root, are dropped and the rest start the
    iteration, when they are finite and pairwise distinct.  Otherwise (or
    without `start`) the roots start on a circle of radius given by the
    Fujiwara root bound with seed-determined phases.  A root stops once
    |p(z)| is within Horner's rounding error n * eps * sum |a_i| |z|^i
    (MPSolve's stop, which multiple roots meet too).  Every root returned is
    finite: OracleError for a degree-1 root that overflows, or after
    MAX_ITERATIONS Aberth sweeps, with the last iterates as its
    `best_iterate`.  Nothing is remembered between calls: the result depends
    on the coefficients, the seed and the start alone.
    """
    coeffs = [complex(c) for c in coeffs]
    if not all(map(cmath.isfinite, coeffs)):
        raise DomainError("coefficients must be finite")
    if not coeffs or coeffs[-1] == 0:
        raise DomainError("leading coefficient must be nonzero")
    degree = len(coeffs) - 1
    if degree > 30:
        raise DomainError("degree above 30 is out of the oracle's scope")
    if degree == 0:
        return []

    roots: list[complex] = []
    while len(coeffs) > 1 and coeffs[0] == 0:
        roots.append(0j)
        coeffs = coeffs[1:]
    degree = len(coeffs) - 1
    if degree == 0:
        return roots
    if degree == 1:
        root = -coeffs[0] / coeffs[1]
        if not cmath.isfinite(root):
            raise OracleError("the root of a degree-1 polynomial overflows")
        return roots + [root]

    high_first = [c / coeffs[-1] for c in reversed(coeffs)]
    sizes = [_magnitude(c) for c in high_first]
    current = _start_points(start, len(roots), degree)
    if current is None:
        # Fujiwara bound: every root has modulus <= 2 * max |a_{n-k}/a_n|^(1/k)
        radius = 2.0 * max(sizes[k] ** (1.0 / k) for k in range(1, degree + 1))
        current = _circle(max(radius, 1e-12), degree, seed)

    bound = degree * sys.float_info.epsilon
    hypot = math.hypot
    terms = list(zip(high_first, sizes))
    moving = list(range(degree))  # the roots not yet done, in sweep order
    for _ in range(MAX_ITERATIONS):
        still = []
        for k in moving:
            z = current[k]
            r = hypot(z.real, z.imag)
            value = slope = 0j
            scale = 0.0
            for c, size in terms:
                slope = slope * z + value
                value = value * z + c
                scale = scale * r + size
            # an overflowed scale, or a NaN anywhere, never counts as done
            if hypot(value.real, value.imag) <= bound * scale < math.inf:
                continue
            still.append(k)
            ratio = 0j if slope == 0 else value / slope
            repulse = 0j
            for w in current:
                if w != z:
                    repulse += 1 / (z - w)
            denom = 1 - ratio * repulse
            current[k] = z - (ratio if denom == 0 else ratio / denom)
        moving = still
        if not moving:
            return roots + current
    error = OracleError("root iteration did not converge")
    error.best_iterate = roots + current
    raise error


def _start_points(start, zeros: int, degree: int) -> list[complex] | None:
    """`start` less its `zeros` points nearest 0, or None where they cannot start Aberth.

    Aberth needs `degree` finite starts, and two equal starts would never part.
    """
    if start is None or len(start) != zeros + degree:
        return None
    points = [complex(p) for p in start]
    if not all(map(cmath.isfinite, points)):
        return None
    for _ in range(zeros):
        points.remove(min(points, key=_magnitude))
    return points if len(set(points)) == degree else None


def _circle(radius: float, count: int, seed: int) -> list[complex]:
    """`count` points of modulus `radius`, evenly spaced from a seed-determined phase."""
    phase = 2 * math.pi * random.Random(seed).random()
    return [
        radius * cmath.exp(1j * (2 * math.pi * (k + 0.5) / count + phase))
        for k in range(count)
    ]


def _magnitude(z: complex) -> float:
    """|z|, or inf where abs() would raise OverflowError."""
    return math.hypot(z.real, z.imag)


def _horner(coeffs: Sequence[complex], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def default_values(generators: Sequence[str], t0: float) -> dict:
    """Sample map: the k-th generator goes to (k+1) * t0."""
    return {name: (index + 1) * t0 for index, name in enumerate(generators)}


@dataclass
class Sample:
    t0: float
    observed: complex
    predicted: complex
    deviation: float

    def to_dict(self) -> dict:
        return {
            "t0": self.t0,
            "observed": [self.observed.real, self.observed.imag],
            "predicted": [self.predicted.real, self.predicted.imag],
            "deviation": self.deviation,
        }


@dataclass
class ConvergenceReport:
    """Grid of (t0, observed, predicted) with a pass/fail verdict."""

    samples: list[Sample] = field(default_factory=list)
    verdict: bool = False
    tolerance: float = DEFAULT_TOLERANCE
    inconclusive: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "samples": [s.to_dict() for s in self.samples],
            "verdict": "pass" if self.verdict else "fail",
            "tolerance": self.tolerance,
            "inconclusive": self.inconclusive,
            "note": self.note,
        }


def _judge(report: ConvergenceReport) -> ConvergenceReport:
    """Final deviation within tolerance, improving monotonically within 10%."""
    if report.inconclusive or not report.samples:
        report.verdict = False
        return report
    deviations = [s.deviation for s in report.samples]
    monotone = all(
        later <= earlier * 1.1 or later <= NOISE_FLOOR
        for earlier, later in zip(deviations, deviations[1:])
    )
    report.verdict = monotone and deviations[-1] <= report.tolerance
    return report


def _overflow_is_oracle_error(check):
    """`check`, raising OracleError where a float sample of an exact value overflows."""

    @functools.wraps(check)
    def guarded(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except OverflowError:
            raise OracleError("a sampled coefficient overflows") from None

    return guarded


def _trimmed(coeffs: list[complex]) -> list[complex]:
    """`coeffs`, low degree first, without the leading ones that sample to exactly 0."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise OracleError("a sampled polynomial vanishes")
    return coeffs


def _descending_grid(grid: Sequence[float]) -> list[float]:
    """The grid from largest to smallest, once every value lies in (0, 0.1]."""
    grid = sorted(grid, reverse=True)
    if not grid or not all(0 < g <= 0.1 for g in grid):  # NaN fails too
        raise DomainError("grid values must lie in (0, 0.1]")
    return grid


class _Solved:
    """The roots of P and of each P + Xi(t0) solved so far for one (P, Xi, seed).

    A failure raises and leaves no entry, so the next claim runs Aberth again.
    """

    def __init__(self, base: ExactPolynomial, shift_poly: PerturbedPolynomial, seed: int):
        self.base, self.shift_poly, self.seed = base, shift_poly, seed
        self.base_coeffs = _trimmed(base.numeric_coeffs())
        self.base_roots = poly_roots_numeric(self.base_coeffs, seed=seed)
        self.shifted: dict[float, list[complex]] = {}

    def roots_at(self, t0: float) -> list[complex]:
        """The roots of P + Xi(t0), Xi sampled at default_values.

        Each root of P + Xi(t0) lies within O(t0^(1/m)) of a root of P, so
        Aberth starts from P's roots, each moved by sqrt(t0) in its own
        direction.  Where the sampled degree is not P's, that start has the
        wrong count and poly_roots_numeric starts on its circle.
        """
        roots = self.shifted.get(t0)
        if roots is None:
            values = default_values(self.shift_poly.ring.generators, t0)
            shift_coeffs = self.shift_poly.numeric_coeffs(values)
            mixed = [p + x for p, x in zip_longest(self.base_coeffs, shift_coeffs, fillvalue=0)]
            offsets = _circle(math.sqrt(t0), len(self.base_roots), self.seed)
            start = [r + w for r, w in zip(self.base_roots, offsets)]
            roots = self.shifted[t0] = poly_roots_numeric(
                _trimmed(mixed), seed=self.seed, start=start
            )
        return roots


_last_solved: _Solved | None = None


def _solved(base: ExactPolynomial, shift_poly: PerturbedPolynomial, seed: int) -> _Solved:
    """The memo of the last problem checked, or a fresh one for a new (P, Xi, seed).

    P and Xi are immutable and compared by identity, so the claims on one
    problem share its roots without hashing a series; the memo holds both,
    so neither id can be reused while it is kept.
    """
    global _last_solved
    solved = _last_solved
    if (
        solved is None
        or solved.base is not base
        or solved.shift_poly is not shift_poly
        or solved.seed != seed
    ):
        solved = _last_solved = _Solved(base, shift_poly, seed)
    return solved


@_overflow_is_oracle_error
def verify_root_asymptotics(
    base: ExactPolynomial,
    shift_poly: PerturbedPolynomial,
    claim: RootAsymptotics | BalanceQuadratic,
    grid: Sequence[float] = DEFAULT_GRID,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int = 0,
) -> ConvergenceReport:
    """Test a claim at a root u of multiplicity m branch by branch, against P + Xi(t0).

    A grid point is skipped where another shadow root lies within 10x the
    largest shift the claim accepts there: max(|rhs|, 10 * t0^2)^(1/q) for
    xi^q ~ rhs, the larger root of a BalanceQuadratic.  With fewer than two
    points kept (one, on a one-point grid) the claim is inconclusive, and
    only the roots of P are solved.

    At each kept point the m roots of P + Xi(t0) nearest u form the cluster.
    For xi^q ~ rhs (q <= m) the q cluster shifts xi_j whose size is nearest
    |rhs|^(1/q) must each satisfy xi_j^q / rhs -> 1; the sample keeps the
    worst of them.  A zero right-hand side requires |xi_j^q| <= 10 * t0^2
    instead.  A BalanceQuadratic pairs its two predicted roots with the two
    cluster shifts by the better of the two matchings.

    P and each P + Xi(t0), leading zeros trimmed, are solved once for the
    claims on one problem: their roots are kept for the last (base,
    shift_poly, seed) checked, compared by identity.
    """
    grid = _descending_grid(grid)
    report = ConvergenceReport(tolerance=tolerance)
    root = complex(claim.base_root)
    multiplicity = base.multiplicity(claim.base_root)
    if multiplicity == 0:
        raise DomainError("asymptotics anchored at a non-root")
    balance = isinstance(claim, BalanceQuadratic)
    order = claim.order
    if order > multiplicity:
        raise DomainError(f"order {order} exceeds multiplicity {multiplicity}")
    problem = _solved(base, shift_poly, seed)
    # the nearest shadow root past u's own m copies, found once
    distances = sorted(abs(r - root) for r in problem.base_roots)
    nearest_other = distances[multiplicity] if len(distances) > multiplicity else math.inf

    kept = []
    for t0 in grid:
        sampled_values = default_values(shift_poly.ring.generators, t0)
        if balance:
            a2 = complex(claim.quad_coeff)
            a1 = claim.linear.numeric_sample(sampled_values)
            a0 = claim.constant.numeric_sample(sampled_values)
            disc = cmath.sqrt(a1 * a1 - 4 * a2 * a0)
            predicted = [(-a1 + disc) / (2 * a2), (-a1 - disc) / (2 * a2)]
            size = reach = max(map(abs, predicted))
        else:
            predicted = claim.rhs.numeric_sample(sampled_values)
            size = abs(predicted) ** (1 / order)
            reach = max(abs(predicted), 10 * t0 * t0) ** (1 / order)
        if nearest_other > 10 * reach:
            kept.append((t0, predicted, size))
    if len(kept) < min(2, len(grid)):
        report.inconclusive = True
        report.note = "another shadow root lies within 10x the predicted shift"
        return _judge(report)

    for t0, predicted, size in kept:
        shifts = sorted((r - root for r in problem.roots_at(t0)), key=abs)[:multiplicity]

        if balance:
            deviation = min(
                max(abs(o / p - 1) for o, p in zip(shifts, pair))
                for pair in (predicted, predicted[::-1])
            )
            report.samples.append(Sample(t0, shifts[0], predicted[0], deviation))
            continue

        branches = sorted(shifts, key=lambda xi: abs(abs(xi) - size))[:order]
        deviation = abs if predicted == 0 else (lambda observed: abs(observed / predicted - 1))
        observed = max((xi**order for xi in branches), key=deviation)
        report.samples.append(Sample(t0, observed, predicted, deviation(observed)))
        if predicted == 0 and abs(observed) > 10 * t0 * t0:
            report.note = "zero prediction but observed shift is first order"
            return report

    if all(s.predicted == 0 for s in report.samples):
        report.verdict = True
        return report
    return _judge(report)


verify_quadratic_balance = verify_root_asymptotics


@_overflow_is_oracle_error
def verify_pgcd(
    a: PerturbedPolynomial,
    b: PerturbedPolynomial,
    t0: float,
    symbolic_pgcd: PerturbedPolynomial,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int = 0,
) -> ConvergenceReport:
    """The PGCD against the Bezout combination of a and b at the roots they share.

    At the shadow each root u of the PGCD is paired with the nearest unused root
    of a and of b; roots count as equal where their inclusion discs meet.  The
    roots left over are those of the shadow cofactors A and B.  To first order
    the monic PGCD is p*a + q*b with p*A + q*B = 1 (the subresultant of its
    degree), p and q interpolating 1/A at the unshared roots of b and 1/B at
    those of a; where one side's roots repeat exactly (a deflated zero root),
    its value at u is read off p*A + q*B = 1 instead.  So at t0 it must take
    the value p(u)*a(u) + q(u)*b(u);
    miss = |observed - predicted| / (max(|p(u)|, |q(u)|) * (|a(u)| + |b(u)|)),
    the denominator floored at NOISE_FLOOR times the size of the evaluation.
    A chain that stripped a divisor's infinitesimal leading terms leaves that
    combination, so its PGCD can fail here.

    Fails when the PGCD has more roots than a or b (or at t0 than at the
    shadow), when one is not a root of a and of b at the shadow, when a and b
    share a root there that it leaves out, or when miss > tolerance;
    inconclusive when drift = |gap(t0) / gap(0) - 1| > tolerance, gap being the
    least distance between unshared roots of a and b.  The sample
    holds the monic PGCD's value (observed) and p(u)*a(u) + q(u)*b(u)
    (predicted) at the worst u, and deviation = max(miss, drift).
    """
    values = default_values(a.ring.generators, _descending_grid([t0])[0])
    (a0, b0, g0), (a1, b1, g1) = (
        [_sampled(p, v) for p in (a, b, symbolic_pgcd)] for v in (None, values)
    )
    report = ConvergenceReport(tolerance=tolerance)
    shared = poly_roots_numeric(g0, seed=seed)
    if len(g0) > min(len(a0), len(b0)) or len(g1) != len(g0):
        report.note = "the PGCD has more roots than a or b, or at t0 than at the shadow"
        return report
    (paired_a, rest_a), (paired_b, rest_b) = (_split_roots(c, shared, seed) for c in (a0, b0))
    if not all(
        _magnitude(r - u) <= _inclusion_radius(g0, u) + _inclusion_radius(c, r)
        for c, paired in ((a0, paired_a), (b0, paired_b))
        for u, r in zip(shared, paired)
    ):
        report.note = "a root of the PGCD is not a root of a and b at the shadow"
        return report
    radii_a, radii_b = (
        [_inclusion_radius(c, r) for r in rest] for c, rest in ((a0, rest_a), (b0, rest_b))
    )
    if any(
        _magnitude(x - y) <= rx + ry
        for x, rx in zip(rest_a, radii_a)
        for y, ry in zip(rest_b, radii_b)
    ):
        report.note = "a and b share a root the PGCD leaves out"
        return report
    try:
        misses = [_bezout_miss(u, a0[-1], rest_a, b0[-1], rest_b, a1, b1, g1) for u in shared]
    except ZeroDivisionError:
        raise OracleError("a and b both repeat a root they do not share") from None
    miss, observed, predicted = max(misses, default=(0.0, 0j, 0j), key=lambda m: m[0])
    gap0 = _gap(rest_a, rest_b)
    gap = _gap(*(_split_roots(c, shared, seed)[1] for c in (a1, b1)))
    drift = abs(gap / gap0 - 1) if 0 < gap0 < math.inf else 0.0
    report.samples.append(Sample(t0, observed, predicted, max(miss, drift)))
    if miss > tolerance:
        report.note = "the PGCD is not p*a + q*b to first order at its roots"
    elif drift > tolerance:
        report.inconclusive = True
        report.note = "t0 is too large for how far apart the unshared roots lie"
    else:
        report.verdict = True
    return report


def _sampled(poly: PerturbedPolynomial, values) -> list[complex]:
    """Coefficients at `values` (the shadow's for None), low degree first, leading zeros trimmed."""
    coeffs = poly.shadow().numeric_coeffs() if values is None else poly.numeric_coeffs(values)
    return _trimmed(coeffs)


def _split_roots(coeffs, shared, seed: int) -> tuple[list[complex], list[complex]]:
    """(paired, rest): the unused root nearest each of `shared` in turn, and the roots left."""
    roots = poly_roots_numeric(coeffs, seed=seed)
    paired = [
        roots.pop(min(range(len(roots)), key=lambda k: _magnitude(roots[k] - u)))
        for u in shared
        if roots
    ]
    return paired, roots


def _gap(xs, ys) -> float:
    return min((_magnitude(x - y) for x in xs for y in ys), default=math.inf)


def _size(coeffs, z: complex) -> float:
    """sum |a_i| |z|^i, the scale of Horner's rounding error at z."""
    return _horner([abs(c) for c in coeffs], _magnitude(z)).real


def _inclusion_radius(coeffs, z: complex) -> float:
    """n * (|p(z)| + n * eps * _size) / |p'(z)|: a root of p lies this close to z.

    The rounding term is the root finder's own stop, so the disc holds a root
    however many roots cluster there.
    """
    n = len(coeffs) - 1
    slope = _magnitude(_horner([k * c for k, c in enumerate(coeffs)][1:], z))
    error = _magnitude(_horner(coeffs, z)) + n * sys.float_info.epsilon * _size(coeffs, z)
    radius = n * error / slope if slope else (math.inf if error else 0.0)
    return math.inf if math.isnan(radius) else radius


def _bezout_miss(u, lead_a, rest_a, lead_b, rest_b, a, b, g) -> tuple[float, complex, complex]:
    """(miss, observed, predicted) at the shared root u, as verify_pgcd defines them."""
    # an exactly repeated node (a deflated zero root) admits no Lagrange
    # interpolant; p*A + q*B = 1 at u then gives that side from the other
    if _repeats(rest_b):
        q = _interpolate(rest_a, lambda x: 1 / _cofactor(lead_b, rest_b, x), u)
        p = (1 - q * _cofactor(lead_b, rest_b, u)) / _cofactor(lead_a, rest_a, u)
    else:
        p = _interpolate(rest_b, lambda x: 1 / _cofactor(lead_a, rest_a, x), u)
        if not (rest_a or rest_b):
            q = 1 / lead_b  # with no cofactor left Euclid keeps b, so the PGCD is b made monic
        elif _repeats(rest_a):
            q = (1 - p * _cofactor(lead_a, rest_a, u)) / _cofactor(lead_b, rest_b, u)
        else:
            q = _interpolate(rest_a, lambda x: 1 / _cofactor(lead_b, rest_b, x), u)
    at_a, at_b = _horner(a, u), _horner(b, u)
    observed, predicted = _horner(g, u) / g[-1], p * at_a + q * at_b
    size = max(_magnitude(p), _magnitude(q)) * (_magnitude(at_a) + _magnitude(at_b))
    floor = NOISE_FLOOR * sum(
        _magnitude(w) * _size(c, u) for w, c in ((1 / g[-1], g), (p, a), (q, b))
    )
    miss = _magnitude(observed - predicted)
    ratio = miss / max(size, floor) if miss else 0.0
    if math.isnan(ratio):
        raise OracleError("the Bezout check overflows")
    return ratio, observed, predicted


def _cofactor(lead, roots, x: complex) -> complex:
    """lead * prod (x - r): the shadow cofactor A or B at x, from its lead and roots."""
    return lead * math.prod(x - r for r in roots)


def _repeats(nodes) -> bool:
    return len(set(nodes)) < len(nodes)


def _interpolate(nodes, f, x: complex) -> complex:
    """The Lagrange interpolant of f at `nodes`, evaluated at x (0 with no nodes)."""
    return sum(
        f(node) * math.prod((x - other) / (node - other) for j, other in enumerate(nodes) if j != k)
        for k, node in enumerate(nodes)
    )


@_overflow_is_oracle_error
def verify_eigenvalues(
    matrix: PerturbedMatrix, t0: float, values=None, seed: int = 0
) -> list[complex]:
    """Eigenvalues of the numerically sampled matrix via its char poly roots."""
    if matrix.n > 8:
        raise DomainError("matrices above order 8 are out of the oracle's scope")
    sampled_values = values if values is not None else default_values(
        matrix.ring.generators, t0
    )
    poly = char_poly(matrix)
    return poly_roots_numeric(poly.numeric_coeffs(sampled_values), seed=seed)


@_overflow_is_oracle_error
def transfer_residual(function, report, point: complex, values) -> float:
    """|H(p0) - reduced(p0) - sum_g c_g(p0)*g| at sampled generator values.

    The linear term uses the first-order correction map; the residual should
    shrink quadratically with the sample scale.  Every rational function is
    evaluated here by Horner's rule on its sampled coefficients.
    """
    z = complex(point)

    def at(num, den, *sample) -> complex:
        return _horner(num.numeric_coeffs(*sample), z) / _horner(den.numeric_coeffs(*sample), z)

    shadow = report.reduced_shadow
    linear = sum(at(c.num, c.den) * complex(values[g]) for g, c in report.first_order.items())
    return abs(at(function.num, function.den, values) - at(shadow.num, shadow.den) - linear)
