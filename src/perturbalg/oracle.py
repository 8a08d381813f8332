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
import struct
import sys
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DomainError, OracleError
from .exactpoly import ExactPolynomial
from .matrices import PerturbedMatrix, char_poly
from .ppoly import BalanceQuadratic, PerturbedPolynomial, RootAsymptotics

MAX_ITERATIONS = 200
NOISE_FLOOR = 1e-6  # deviations below this are rounding noise, not asymptotics
ROOTS_MEMO_SIZE = 64  # distinct polynomials poly_roots_numeric remembers


def poly_roots_numeric(
    coeffs: Sequence[complex], seed: int = 0
) -> list[complex]:
    """All complex roots by Aberth-type simultaneous iteration.

    Coefficients are listed low degree first, with finite parts, a nonzero
    leading coefficient and degree at most 30.  Exact zero roots are deflated
    first; the rest start on a circle of radius given by the Fujiwara root
    bound with seed-determined phases.  A root stops once |p(z)| is within
    Horner's rounding error n * eps * sum |a_i| |z|^i (MPSolve's stop, which
    multiple roots meet too); OracleError("root iteration did not converge")
    after MAX_ITERATIONS sweeps is the only failure.

    The outcomes for the ROOTS_MEMO_SIZE most recently solved polynomials
    are remembered for the life of the process, keyed by the exact bits of
    the deflated coefficients (so -0.0 and 0.0 differ) and the seed.  Several claims checked against one
    P + Xi(t0) therefore run Aberth once per distinct polynomial.  Every
    call gets a fresh list, and a remembered failure is raised as a fresh
    OracleError with a fresh `best_iterate`.
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
        return roots + [-coeffs[0] / coeffs[1]]

    parts = [part for c in coeffs for part in (c.real, c.imag)]
    found, failure = _aberth(struct.pack(f"<{len(parts)}d", *parts), seed)
    if failure is not None:
        error = OracleError(failure)
        error.best_iterate = roots + list(found)
        raise error
    return roots + list(found)


@functools.lru_cache(maxsize=ROOTS_MEMO_SIZE)
def _aberth(packed: bytes, seed: int) -> tuple[tuple[complex, ...], str | None]:
    """(iterates, None) on success, (best iterates, OracleError message) on failure.

    `packed` holds the real and imaginary parts of coefficients low degree
    first, degree at least 2, no zero root.  A failure is returned rather
    than raised, so the cache keeps it.
    """
    parts = struct.unpack(f"<{len(packed) // 8}d", packed)
    coeffs = [complex(real, imag) for real, imag in zip(parts[::2], parts[1::2])]
    degree = len(coeffs) - 1
    high_first = [c / coeffs[-1] for c in reversed(coeffs)]
    sizes = [_magnitude(c) for c in high_first]
    # Fujiwara bound: every root has modulus <= 2 * max |a_{n-k}/a_n|^(1/k)
    radius = 2.0 * max(sizes[k] ** (1.0 / k) for k in range(1, degree + 1))
    radius = max(radius, 1e-12)
    phase = 2 * math.pi * random.Random(seed).random()
    current = [
        radius * cmath.exp(1j * (2 * math.pi * (k + 0.5) / degree + phase))
        for k in range(degree)
    ]

    bound = degree * sys.float_info.epsilon
    done = [False] * degree
    for _ in range(MAX_ITERATIONS):
        for k in range(degree):
            if done[k]:
                continue
            z = current[k]
            r = _magnitude(z)
            value = slope = 0j
            scale = 0.0
            for c, size in zip(high_first, sizes):
                slope = slope * z + value
                value = value * z + c
                scale = scale * r + size
            # an overflowed scale, or a NaN anywhere, never counts as done
            if _magnitude(value) <= bound * scale < math.inf:
                done[k] = True
                continue
            ratio = 0j if slope == 0 else value / slope
            repulse = 0j
            for j, w in enumerate(current):
                if j != k and z != w:
                    repulse += 1 / (z - w)
            denom = 1 - ratio * repulse
            current[k] = z - (ratio if denom == 0 else ratio / denom)
        if all(done):
            return tuple(current), None
    return tuple(current), "root iteration did not converge"


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
    tolerance: float = 0.2
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


def _descending_grid(grid: Sequence[float]) -> list[float]:
    """The grid from largest to smallest, once every value lies in (0, 0.1]."""
    grid = sorted(grid, reverse=True)
    if not grid or not all(0 < g <= 0.1 for g in grid):  # NaN fails too
        raise DomainError("grid values must lie in (0, 0.1]")
    return grid


def _mixed(base_coeffs: Sequence[complex], shift_coeffs: Sequence[complex]) -> list:
    """Coefficients of P + Xi(t0), low degree first."""
    size = max(len(base_coeffs), len(shift_coeffs))
    return [
        (base_coeffs[i] if i < len(base_coeffs) else 0)
        + (shift_coeffs[i] if i < len(shift_coeffs) else 0)
        for i in range(size)
    ]


def _verify_branches(base, shift_poly, claim, grid, tolerance, seed) -> ConvergenceReport:
    """Test a claim at a root u of multiplicity m branch by branch.

    At each grid point the m roots of P + Xi(t0) nearest u form the cluster.
    For xi^q ~ rhs (q <= m) the q cluster shifts xi_j whose size is nearest
    |rhs|^(1/q) must each satisfy xi_j^q / rhs -> 1; the sample keeps the
    worst of them.  A zero right-hand side requires |xi_j^q| <= 10 * t0^2
    instead.  A BalanceQuadratic pairs its two predicted roots with the two
    cluster shifts by the better of the two matchings.
    """
    grid = _descending_grid(grid)
    report = ConvergenceReport(tolerance=tolerance)
    root = complex(claim.base_root)
    multiplicity = base.multiplicity(claim.base_root)
    if multiplicity == 0:
        raise DomainError("asymptotics anchored at a non-root")
    order = 2 if isinstance(claim, BalanceQuadratic) else claim.order
    if order > multiplicity:
        raise DomainError(f"order {order} exceeds multiplicity {multiplicity}")
    base_coeffs = base.numeric_coeffs()
    # the nearest shadow root past u's own m copies, found once; a
    # perturbation within a tenth of its distance is too large to cluster the
    # roots unambiguously
    distances = sorted(abs(r - root) for r in poly_roots_numeric(base_coeffs, seed=seed))
    nearest_other = distances[multiplicity] if len(distances) > multiplicity else math.inf

    for t0 in grid:
        sampled_values = default_values(shift_poly.ring.generators, t0)
        shift_coeffs = shift_poly.numeric_coeffs(sampled_values)
        max_pert = max((abs(c) for c in shift_coeffs), default=0.0)
        if nearest_other <= 10 * max_pert:
            report.inconclusive = True
            report.note = "another shadow root lies within 10x the perturbation size"
            return _judge(report)
        all_roots = poly_roots_numeric(_mixed(base_coeffs, shift_coeffs), seed=seed)
        shifts = sorted((r - root for r in all_roots), key=abs)[:multiplicity]

        if isinstance(claim, BalanceQuadratic):
            a2 = complex(claim.quad_coeff)
            a1 = claim.linear.numeric_sample(sampled_values)
            a0 = claim.constant.numeric_sample(sampled_values)
            disc = cmath.sqrt(a1 * a1 - 4 * a2 * a0)
            predicted_pair = [(-a1 + disc) / (2 * a2), (-a1 - disc) / (2 * a2)]
            deviation = min(
                max(abs(o / p - 1) for o, p in zip(shifts, pair))
                for pair in (predicted_pair, predicted_pair[::-1])
            )
            report.samples.append(Sample(t0, shifts[0], predicted_pair[0], deviation))
            continue

        predicted = claim.rhs.numeric_sample(sampled_values)
        size = abs(predicted) ** (1 / order)
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


def verify_root_asymptotics(
    base: ExactPolynomial,
    shift_poly: PerturbedPolynomial,
    asym: RootAsymptotics,
    grid: Sequence[float] = (1e-2, 1e-3, 1e-4),
    tolerance: float = 0.2,
    seed: int = 0,
) -> ConvergenceReport:
    """Numerically test xi^k ~ rhs, branch by branch, against the roots of P + Xi(t0)."""
    return _verify_branches(base, shift_poly, asym, grid, tolerance, seed)


def verify_quadratic_balance(
    base: ExactPolynomial,
    shift_poly: PerturbedPolynomial,
    balance: BalanceQuadratic,
    grid: Sequence[float] = (1e-2, 1e-3, 1e-4),
    tolerance: float = 0.2,
    seed: int = 0,
) -> ConvergenceReport:
    """Check both branches of a balanced double-root quadratic numerically."""
    return _verify_branches(base, shift_poly, balance, grid, tolerance, seed)


def verify_pgcd(
    a: PerturbedPolynomial,
    b: PerturbedPolynomial,
    t0: float,
    symbolic_pgcd: PerturbedPolynomial,
) -> ConvergenceReport:
    """Numeric Euclidean algorithm versus the symbolic perturbed GCD.

    Remainder coefficients at most 10*t0 in modulus count as numerically
    zero; a remainder in the ambiguous band (10*t0, 100*t0] makes the check
    inconclusive.  The surviving numeric GCD, normalized monic, must match
    the sampled symbolic PGCD coefficient-by-coefficient within 10*t0.
    """
    threshold = 10 * t0
    sampled_values = default_values(a.ring.generators, t0)
    report = ConvergenceReport(tolerance=threshold)

    def strip(coeffs: list[complex]) -> list[complex]:
        while coeffs and abs(coeffs[-1]) <= threshold:
            coeffs.pop()
        return coeffs

    previous = strip(a.numeric_coeffs(sampled_values))
    current = strip(b.numeric_coeffs(sampled_values))
    while True:
        if not current:
            break
        peak = max(abs(c) for c in current)
        if peak <= threshold:
            break
        if peak <= 10 * threshold:
            report.inconclusive = True
            report.note = f"remainder magnitude {peak:.3e} inside the ambiguous band"
            return report
        if len(previous) < len(current):
            previous, current = current, previous
            continue
        rest = list(previous)
        lead = current[-1]
        for k in range(len(previous) - len(current), -1, -1):
            factor = rest[k + len(current) - 1] / lead
            for j, c in enumerate(current):
                rest[k + j] -= factor * c
        previous, current = current, strip(rest[: len(current) - 1])

    if not previous:
        report.note = "all numeric remainders fell below the zero threshold"
        report.inconclusive = True
        return report
    numeric_gcd = [c / previous[-1] for c in previous]
    symbolic = strip(symbolic_pgcd.numeric_coeffs(sampled_values))
    if not symbolic:
        report.note = "sampled symbolic PGCD fell below the zero threshold"
        report.inconclusive = True
        return report
    symbolic = [c / symbolic[-1] for c in symbolic]
    if len(numeric_gcd) != len(symbolic):
        report.note = "numeric and symbolic PGCD degrees differ"
        report.verdict = False
        return report
    worst = max(abs(x - y) for x, y in zip(numeric_gcd, symbolic))
    report.samples.append(Sample(t0, worst, 0j, worst))
    report.verdict = worst <= threshold
    return report


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
