"""Independent references for the exact outputs.

Each check reads the problem's design and plain numbers out of the outputs
(coefficient dictionaries, rational parts), and recomputes the expected
answer with numpy, mpmath or integer arithmetic.  None of them calls the
package's arithmetic, formatting or oracle.  A check returns a list of
findings; an empty list means the outputs are right.

The tolerances are fixed here, before any measurement.
"""

from __future__ import annotations

import json
from fractions import Fraction

EIGEN_T0 = 1e-3
EIGEN_POINTS = (0.5 + 0.25j, -1.7 + 0.3j, 2.3 - 0.6j, 4.1 + 0j)
EIGEN_REL_TOL = 1e-8
ROOTS_T0 = "1e-15"
ROOTS_DPS = 100  # roots that split by t0^2 sit closer than 50 digits resolve
ROOTS_REL_TOL = 1e-3  # leading-order claims are off by O(t0^(1/3)) = 1e-5 here
ROOTS_ZERO_TOL = "1e-30"
ROOTS_START_SPREAD = 1e-5


# -- plain data out of the package's objects --------------------------------------------


def _pair(scalar) -> tuple[Fraction, Fraction]:
    return Fraction(scalar.re), Fraction(scalar.im)


def _series_terms(series) -> dict:
    """{exponent tuple: (re, im)} of a series."""
    return {index: _pair(coeff) for index, coeff in series.terms.items()}


def _series_at(series, t0: complex) -> complex:
    return sum(
        complex(float(re), float(im)) * t0 ** index[0]
        for index, (re, im) in _series_terms(series).items()
    )


# -- eigen -------------------------------------------------------------------------------


def check_eigen(problem: dict, outputs: dict) -> list[str]:
    """char_poly(A+E) against numpy's det(xI - M(t0)) at a few points, and the
    t-coefficient of xi_first_order against -det(B)*tr(B^-1 E1), B = xI - A."""
    import numpy as np

    design = problem["design"]
    a = np.array(design["A"], dtype=complex)
    e1 = np.array(design["E1"], dtype=complex)
    e2 = np.array(design["E2"], dtype=complex)
    n = len(a)
    identity = np.eye(n)
    sampled = a + EIGEN_T0 * e1 + EIGEN_T0**2 * e2
    charpoly = [_series_at(c, EIGEN_T0) for c in outputs["charpoly"].coeffs]
    first = [
        complex(*map(float, _series_terms(c).get((1,), (0, 0))))
        for c in outputs["first_order"].coeffs
    ]
    findings = []
    if len(charpoly) != n + 1:
        findings.append(f"char_poly has degree {len(charpoly) - 1}, expected {n}")
        return findings
    for x in EIGEN_POINTS:
        expected = np.linalg.det(x * identity - sampled)
        got = sum(c * x**k for k, c in enumerate(charpoly))
        scale = max(1.0, abs(expected), sum(abs(c) * abs(x) ** k for k, c in enumerate(charpoly)))
        if abs(got - expected) > EIGEN_REL_TOL * scale:
            findings.append(f"char_poly at x={x}: {got} != det {expected}")
        shifted = x * identity - a
        slope = -np.linalg.det(shifted) * np.trace(np.linalg.solve(shifted, e1))
        got = sum(c * x**k for k, c in enumerate(first))
        scale = max(1.0, abs(slope), sum(abs(c) * abs(x) ** k for k, c in enumerate(first)))
        if abs(got - slope) > EIGEN_REL_TOL * scale:
            findings.append(f"xi_first_order t-coefficient at x={x}: {got} != {slope}")
    return findings


# -- pgcd --------------------------------------------------------------------------------


def _monic(pairs: list) -> list:
    while pairs and pairs[-1] == (0, 0):
        pairs.pop()
    if not pairs:
        return pairs
    lead_re, lead_im = pairs[-1]
    norm = lead_re * lead_re + lead_im * lead_im
    inv = (lead_re / norm, -lead_im / norm)
    return [(re * inv[0] - im * inv[1], re * inv[1] + im * inv[0]) for re, im in pairs]


def _real(coeffs) -> list:
    return [(Fraction(c), Fraction(0)) for c in coeffs]


def check_pgcd(problem: dict, outputs: dict) -> list[str]:
    """PGCD shadow against the designed divisor; reduced shadow against C1/C2."""
    design = problem["design"]
    findings = []
    pgcd = outputs["pgcd"]
    width = len(pgcd.ring.generators)
    shadow = [_series_terms(c).get((0,) * width, (0, 0)) for c in pgcd.coeffs]
    if _monic(shadow) != _real(design["gcd"]):
        findings.append(f"monic PGCD shadow {shadow} != designed divisor {design['gcd']}")
    reduced = outputs["reduced"]
    num = [_pair(c) for c in reduced.num.coeffs]
    den = [_pair(c) for c in reduced.den.coeffs]
    if num != _real(design["cof1"]) or den != _real(design["cof2"]):
        findings.append(
            f"reduced shadow {num}/{den} != {design['cof1']}/{design['cof2']}"
        )
    return findings


# -- roots -------------------------------------------------------------------------------


def check_roots(problem: dict, outputs: dict) -> list[str]:
    """Each claim against mpmath.polyroots of P + Xi(t0)."""
    import mpmath

    design = problem["design"]
    mults = dict(problem["roots"])
    findings = []
    with mpmath.workdps(ROOTS_DPS):
        t0 = mpmath.mpf(ROOTS_T0)
        coeffs = [
            mpmath.mpf(b) + s1 * t0 + s2 * t0 * t0
            for b, s1, s2 in zip(design["base"], design["s1"] + [0], design["s2"] + [0])
        ]
        # start from the designed roots, a cluster's copies spread on a circle
        start = [
            mpmath.mpf(u) + ROOTS_START_SPREAD * mpmath.expj(2 * mpmath.pi * (k + 0.25) / mult)
            for u, mult in problem["roots"]
            for k in range(mult)
        ]
        roots = mpmath.polyroots(
            coeffs[::-1], maxsteps=400, extraprec=2 * ROOTS_DPS, roots_init=start
        )

        def mp_scalar(scalar):
            re, im = _pair(scalar)
            return mpmath.mpc(
                mpmath.mpf(re.numerator) / re.denominator,
                mpmath.mpf(im.numerator) / im.denominator,
            )

        def mp_series(series):
            return sum(
                (mp_scalar(c) * t0 ** index[0] for index, c in series.terms.items()),
                mpmath.mpc(0),
            )

        for claim in outputs["claims"]:
            u = mp_scalar(claim.base_root)
            mult = mults.get(int(claim.base_root.re))
            if mult is None:
                findings.append(f"claim at {claim.base_root}, which is not a designed root")
                continue
            cluster = sorted(roots, key=lambda r: abs(r - u))[:mult]
            if hasattr(claim, "quad_coeff"):
                a2 = mp_scalar(claim.quad_coeff)
                a1, a0 = mp_series(claim.linear), mp_series(claim.constant)
                disc = mpmath.sqrt(a1 * a1 - 4 * a2 * a0)
                predicted = [(-a1 + disc) / (2 * a2), (-a1 - disc) / (2 * a2)]
                observed = [r - u for r in cluster]
                deviation = min(
                    max(abs(o / p - 1) for o, p in zip(observed, order))
                    for order in (predicted, predicted[::-1])
                )
            else:
                predicted = mp_series(claim.rhs)
                if claim.order == mult:
                    product = mpmath.mpc(1)
                    for r in cluster:
                        product *= r - u
                    observed = (-1) ** (mult + 1) * product
                else:
                    observed = min(cluster, key=lambda r: abs(r - u - predicted)) - u
                if predicted == 0:
                    if abs(observed) > mpmath.mpf(ROOTS_ZERO_TOL):
                        findings.append(
                            f"claim {claim}: predicted 0, reference root moved {observed}"
                        )
                    continue
                deviation = abs(observed / predicted - 1)
            if deviation > ROOTS_REL_TOL:
                findings.append(f"claim {claim}: deviation {float(deviation):.3e} from reference")
    return findings


# -- cli ---------------------------------------------------------------------------------


def check_cli(problem: dict, outputs: dict, inprocess: tuple[int, str]) -> list[str]:
    """Subprocess exit code and JSON against the same call made in-process."""
    findings = []
    code, stdout = outputs["code"], outputs["stdout"]
    expected_code, expected_stdout = inprocess
    if code != expected_code:
        findings.append(f"exit code {code} != in-process {expected_code}")
    try:
        if json.loads(stdout) != json.loads(expected_stdout):
            findings.append("stdout JSON differs from the in-process result")
    except json.JSONDecodeError:
        findings.append("stdout is not JSON")
    if problem["refute"]:
        if code != 3:
            findings.append(f"refute-half exited {code}: the oracle accepted a false claim")
    elif not problem["is_verify"] and code != 0:
        findings.append(f"{problem['argv'][0]} exited {code}")
    return findings


CHECKS = {"eigen": check_eigen, "pgcd": check_pgcd, "roots": check_roots}
