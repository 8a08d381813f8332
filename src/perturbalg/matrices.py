"""Matrix perturbation analysis over exact scalars and truncated series.

Principal-minor sums Q^(k) give the characteristic polynomial coefficients;
their symmetric multilinear polarizations (normalized so that the diagonal
recovers k! * Q^(k)) expand the characteristic polynomial of a perturbed
matrix exactly, order by order in the perturbation.

`minor_sum`, `polarize` and `charpoly_expansion` evaluate these definitions
directly and serve as the reference.  `char_poly` and the first-order forms
use Berkowitz's division-free algorithm instead, which takes polynomial
time and stays exact over the truncated series ring (not a field); the
first-order forms come from one extra generator s, as
Theta(A,...,A,U)/(k-1)! = [s^1] Q^(k)(A + s*U).
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

from .errors import DomainError, RingMismatchError
from .exactpoly import ExactPolynomial
from .goze import first_level, rank_of_rows, row_reduce
from .ppoly import PerturbedPolynomial, RootAsymptotics, root_correction
from .scalars import GaussianRational
from .series import SeriesRing, TruncatedSeries, sum_of_products


class ConstantMatrix:
    """Square matrix of Gaussian rationals."""

    __slots__ = ("n", "rows", "_charpoly")

    def __init__(self, rows):
        rows = tuple(tuple(GaussianRational.coerce(x) for x in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DomainError("matrix must be square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_charpoly", None)  # set by char_poly

    def __setattr__(self, name, value):
        raise AttributeError("ConstantMatrix is immutable")

    def __reduce__(self):  # through the constructor, so _charpoly starts empty
        return ConstantMatrix, (self.rows,)

    @staticmethod
    def identity(n: int) -> "ConstantMatrix":
        return ConstantMatrix(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zero(n: int) -> "ConstantMatrix":
        return ConstantMatrix([[0] * n for _ in range(n)])

    def __eq__(self, other):
        if not isinstance(other, ConstantMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __add__(self, other):
        if not isinstance(other, ConstantMatrix):
            return NotImplemented
        return ConstantMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ConstantMatrix([[-a for a in row] for row in self.rows])

    def scaled(self, factor) -> "ConstantMatrix":
        factor = GaussianRational.coerce(factor)
        return ConstantMatrix([[a * factor for a in row] for row in self.rows])

    def __matmul__(self, other: "ConstantMatrix") -> "ConstantMatrix":
        n = self.n
        return ConstantMatrix(
            [
                [
                    sum((self.rows[i][k] * other.rows[k][j] for k in range(n)),
                        GaussianRational(0))
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

    def trace(self) -> GaussianRational:
        return sum((self.rows[i][i] for i in range(self.n)), GaussianRational(0))

    def conjugate_transpose(self) -> "ConstantMatrix":
        return ConstantMatrix(
            [[self.rows[j][i].conjugate() for j in range(self.n)] for i in range(self.n)]
        )

    def is_hermitian(self) -> bool:
        return self == self.conjugate_transpose()

    def inverse(self) -> "ConstantMatrix":
        """Exact inverse: the right half of the reduced form of [A | I]."""
        n = self.n
        reduced, pivots = row_reduce(
            [list(row) + [1 if i == j else 0 for j in range(n)]
             for i, row in enumerate(self.rows)]
        )
        if pivots != list(range(n)):
            raise DomainError("matrix is singular")
        return ConstantMatrix([row[n:] for row in reduced])

    def lift(self, ring: SeriesRing) -> list[list[TruncatedSeries]]:
        return [[ring.constant(x) for x in row] for row in self.rows]

    def __str__(self):
        return "[" + "; ".join(
            " ".join(str(x) for x in row) for row in self.rows
        ) + "]"

    def __repr__(self):
        return f"ConstantMatrix({[[str(x) for x in row] for row in self.rows]})"


class PerturbedMatrix:
    """A + E: exact base matrix plus an infinitesimal series matrix."""

    __slots__ = ("base", "pert", "ring", "_charpoly")

    def __init__(self, base: ConstantMatrix, pert: Sequence[Sequence[TruncatedSeries]]):
        pert = [list(row) for row in pert]
        if len(pert) != base.n or any(len(row) != base.n for row in pert):
            raise DomainError("perturbation shape does not match the base matrix")
        ring = None
        for row in pert:
            for entry in row:
                if not isinstance(entry, TruncatedSeries):
                    raise DomainError("perturbation entries must be series")
                if ring is None:
                    ring = entry.ring
                elif entry.ring != ring:
                    raise RingMismatchError("perturbation entries from different rings")
                if not entry.is_infinitesimal():
                    raise DomainError(f"perturbation entry {entry} is not infinitesimal")
        if ring is None:
            raise DomainError("empty perturbation")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "pert", tuple(tuple(row) for row in pert))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_charpoly", None)  # set by char_poly

    def __setattr__(self, name, value):
        raise AttributeError("PerturbedMatrix is immutable")

    def __reduce__(self):  # through the constructor, so _charpoly starts empty
        return PerturbedMatrix, (self.base, self.pert)

    @property
    def n(self) -> int:
        return self.base.n

    def total(self) -> list[list[TruncatedSeries]]:
        """Entries of A + E as series."""
        lifted = self.base.lift(self.ring)
        return [
            [lifted[i][j] + self.pert[i][j] for j in range(self.n)]
            for i in range(self.n)
        ]

    def numeric_sample(self, values) -> list[list[complex]]:
        return [
            [complex(self.base.rows[i][j]) + self.pert[i][j].numeric_sample(values)
             for j in range(self.n)]
            for i in range(self.n)
        ]


# -- generic element matrices ------------------------------------------------------

def _entry_rows(matrix):
    if isinstance(matrix, ConstantMatrix):
        return [list(row) for row in matrix.rows]
    if isinstance(matrix, PerturbedMatrix):
        return matrix.total()
    return [list(row) for row in matrix]


def _det(rows) -> object:
    """Exact determinant by first-row expansion, memoized on column subsets."""
    n = len(rows)
    if n == 0:
        raise DomainError("empty determinant")
    memo = {}

    def minor(depth: int, cols: tuple) -> object:
        if len(cols) == 1:
            return rows[depth][cols[0]]
        key = cols  # depth is determined by len(cols)
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = None
        for position, col in enumerate(cols):
            entry = rows[depth][col]
            rest = cols[:position] + cols[position + 1:]
            term = entry * minor(depth + 1, rest)
            if position % 2:
                term = -term
            total = term if total is None else total + term
        memo[key] = total
        return total

    return minor(0, tuple(range(n)))


def minor_sum(matrix, k: int):
    """Sum of all k-by-k principal minors (rows = columns)."""
    rows = _entry_rows(matrix)
    n = len(rows)
    if not 1 <= k <= n:
        raise DomainError(f"minor order {k} out of range 1..{n}")
    total = None
    for subset in combinations(range(n), k):
        sub = [[rows[i][j] for j in subset] for i in subset]
        term = _det(sub)
        total = term if total is None else total + term
    return total


def _add_rows(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def polarize(k: int, *matrices):
    """Symmetric k-linear polarization of the k-th minor sum.

    Defined by inclusion-exclusion over argument subsets, which normalizes
    the diagonal to polarize(k, A, ..., A) = k! * minor_sum(A, k).
    """
    if k < 1:
        raise DomainError(f"polarization order {k} must be at least 1")
    if len(matrices) != k:
        raise DomainError(f"polarize of order {k} needs exactly {k} matrices")
    rows_list = [_entry_rows(m) for m in matrices]
    n = len(rows_list[0])
    if any(len(rows) != n or any(len(r) != n for r in rows) for rows in rows_list):
        raise DomainError("polarize arguments must share one square shape")
    if k > n:
        raise DomainError(f"polarization order {k} exceeds the matrix order {n}")

    # Repeated arguments are common (A, ..., A, E, ..., E); label equal
    # operands so identical subset sums are evaluated once.
    labels = []
    for rows in rows_list:
        for seen_label, seen_rows in enumerate(rows_list[:len(labels)]):
            if rows == seen_rows:
                labels.append(labels[seen_label])
                break
        else:
            labels.append(len(labels))

    cache = {}
    total = None
    for mask in range(1, 1 << k):
        key = tuple(sorted(labels[i] for i in range(k) if mask & (1 << i)))
        value = cache.get(key)
        if value is None:
            acc = None
            for i in range(k):
                if mask & (1 << i):
                    acc = rows_list[i] if acc is None else _add_rows(acc, rows_list[i])
            value = minor_sum(acc, k)
            cache[key] = value
        if (k - bin(mask).count("1")) % 2:
            value = -value
        total = value if total is None else total + value
    return total


def _dot(xs, ys, start):
    """start + sum of x*y over the pairs, skipping products with a zero factor."""
    if isinstance(start, TruncatedSeries):
        return sum_of_products(start, zip(xs, ys))
    total = start
    for x, y in zip(xs, ys):
        if x and y:
            total = total + x * y
    return total


def _berkowitz(rows, zero, one) -> list:
    """Coefficients of det(X*I - M), highest degree first (Berkowitz 1984).

    Step r extends the characteristic polynomial p of the leading r-by-r
    block M to that of the leading (r+1)-block, with new row R, column c and
    corner a:  p' = T p, where T is the lower-triangular Toeplitz matrix
    with first column 1, -a, -R c, -R M c, ..., -R M^(r-1) c.  It uses no
    division, so it is exact over any commutative ring, and costs about
    n^4/4 ring products in all.
    """
    coeffs = [one]
    for r in range(len(rows)):
        block = [row[:r] for row in rows[:r]]
        row = rows[r][:r]
        vector = [rows[i][r] for i in range(r)]
        toeplitz = [one, -rows[r][r]]
        for power in range(r):
            if power:
                vector = [_dot(block_row, vector, zero) for block_row in block]
            toeplitz.append(-_dot(row, vector, zero))
        # (T p)_i = sum_j toeplitz[i - j] * coeffs[j]; the terms with
        # coeffs[0] = one or toeplitz[0] = one need no product.
        extended = [one]
        for i in range(1, r + 2):
            start = toeplitz[i] + coeffs[i] if i <= r else toeplitz[i]
            extended.append(_dot(toeplitz[i - 1:0:-1], coeffs[1:], start))
        coeffs = extended
    return coeffs


def char_poly(matrix):
    """Characteristic polynomial X^n + sum_k (-1)^k Q^(k) X^(n-k).

    Exact matrices yield an ExactPolynomial; perturbed matrices yield a
    PerturbedPolynomial over their series ring.  Computed by Berkowitz's
    algorithm once per matrix; later calls return the same polynomial.
    """
    if isinstance(matrix, ConstantMatrix):
        if matrix._charpoly is None:
            coeffs = _berkowitz(matrix.rows, GaussianRational(0), GaussianRational(1))
            object.__setattr__(matrix, "_charpoly", ExactPolynomial(coeffs[::-1]))
        return matrix._charpoly
    if isinstance(matrix, PerturbedMatrix):
        if matrix._charpoly is None:
            ring = matrix.ring
            coeffs = _berkowitz(matrix.total(), ring.zero(), ring.one())
            object.__setattr__(matrix, "_charpoly", PerturbedPolynomial(ring, coeffs[::-1]))
        return matrix._charpoly
    raise TypeError("char_poly expects a ConstantMatrix or a PerturbedMatrix")


def perturbation_poly(matrix: PerturbedMatrix) -> PerturbedPolynomial:
    """Xi = char_poly(A + E) - char_poly(A); wholly infinitesimal."""
    full = char_poly(matrix)
    base = PerturbedPolynomial.from_exact(char_poly(matrix.base), matrix.ring)
    return full - base


def _on_base(base: ConstantMatrix, pert) -> PerturbedMatrix:
    """A + E from E's series rows, or the given A + E once its base is A."""
    if not isinstance(pert, PerturbedMatrix):
        return PerturbedMatrix(base, pert)
    if pert.base != base:
        raise DomainError("the perturbed matrix has a different base matrix")
    return pert


def charpoly_expansion(base: ConstantMatrix, pert, k: int):
    """Q^(k)(A+E) expanded through polarized forms.

    Evaluates Q^(k)(A) + sum_i Theta(A,...,A,E,...,E)/(i!(k-i)!), which equals
    minor_sum(A+E, k) exactly in the truncated ring.
    """
    matrix = _on_base(base, pert)
    ring = matrix.ring
    lifted = base.lift(ring)
    total = ring.constant(minor_sum(base, k))
    for i in range(1, k + 1):
        theta = polarize(k, *([lifted] * (k - i) + [matrix.pert] * i))
        weight = GaussianRational(1) / GaussianRational(
            math.factorial(i) * math.factorial(k - i)
        )
        total = total + theta * weight
    return total


# Coefficients of char_poly(A + s*U) are only needed to first order in s.
_FIRST_ORDER_RING = SeriesRing(("s",), 1)


def _first_order_coeffs(base: ConstantMatrix, direction: ConstantMatrix) -> list:
    """[s^1] of the coefficients of char_poly(A + s*U), lowest degree first.

    The coefficient of X^(n-k) is (-1)^k Theta(A,...,A,U)/(k-1)!, by
    Theta(A,...,A,U)/(k-1)! = [s^1] Q^(k)(A + s*U); the list has n entries.
    """
    ring = _FIRST_ORDER_RING
    rows = [
        [TruncatedSeries(ring, {(0,): a, (1,): u}) for a, u in zip(row_a, row_u)]
        for row_a, row_u in zip(base.rows, direction.rows)
    ]
    coeffs = _berkowitz(rows, ring.zero(), ring.one())
    zero = GaussianRational(0)
    return [c.terms.get((1,), zero) for c in reversed(coeffs[1:])]


def xi_first_order(base: ConstantMatrix, pert) -> PerturbedPolynomial:
    """First-order part of char_poly(A+E) - char_poly(A).

    E is decomposed (row-major flattening) as alpha_1*U_1 + ...; the result is

        alpha_1 * sum_k (-1)^k Theta(A,...,A,U_1)/(k-1)! * X^(n-k)

    and the exact difference minus this polynomial has coefficient valuations
    strictly above v(alpha_1).
    """
    n = base.n
    flat = [entry for row in _on_base(base, pert).pert for entry in row]
    if all(entry.is_zero() for entry in flat):
        raise DomainError("zero perturbation has no first-order part")
    alpha1, u1_flat = first_level(flat)
    direction = ConstantMatrix(
        [u1_flat[i * n:(i + 1) * n] for i in range(n)]
    )
    return PerturbedPolynomial(
        alpha1.ring, [alpha1 * c for c in _first_order_coeffs(base, direction)]
    )


def eigenvalue_correction(base: ConstantMatrix, pert, eigenvalue) -> RootAsymptotics:
    """Leading eigenvalue shift of A + E at an exact eigenvalue of A.

    Forms Xi = char_poly(A+E) - char_poly(A) and delegates to root_correction,
    which answers only where the Newton polygon at the eigenvalue is one edge.
    """
    matrix = _on_base(base, pert)
    xi = perturbation_poly(matrix)
    return root_correction(char_poly(matrix.base), xi, eigenvalue)


def conservative_residuals(base: ConstantMatrix, pert) -> list[TruncatedSeries]:
    """Q^(k)(A+E) - Q^(k)(A) for k = 1..n; all zero iff E is conservative."""
    matrix = _on_base(base, pert)
    xi = perturbation_poly(matrix)
    # Q^(k) is (-1)^k times the coefficient of X^(n-k)
    coeffs = [xi.coefficient(matrix.n - k) for k in range(1, matrix.n + 1)]
    return [-c if k % 2 else c for k, c in enumerate(coeffs, 1)]


def orbit_dimension(matrix: ConstantMatrix) -> int:
    """Dimension of the conjugation orbit: rank of M -> M*A - A*M."""
    n = matrix.n
    columns = []
    for i in range(n):
        for j in range(n):
            # image of the basis matrix with a single 1 at (i, j)
            image = [[GaussianRational(0)] * n for _ in range(n)]
            for l in range(n):
                image[i][l] = image[i][l] + matrix.rows[j][l]
            for r in range(n):
                image[r][j] = image[r][j] - matrix.rows[r][i]
            columns.append([image[r][c] for r in range(n) for c in range(n)])
    return rank_of_rows(columns)


def hermitian_first_order(
    base: ConstantMatrix,
    direction: ConstantMatrix,
    alpha: TruncatedSeries,
    eigenvalue,
) -> TruncatedSeries:
    """First-order shift of a simple eigenvalue under a Hermitian deformation.

    For Hermitian A and U with infinitesimal alpha, the eigenvalue lambda of A
    moves by rho = -Xi_1(lambda)/C'_A(lambda) where Xi_1 is the first-order
    characteristic-polynomial shift of A + alpha*U; rho/alpha is real.
    """
    if not base.is_hermitian():
        raise DomainError("base matrix is not Hermitian")
    if not direction.is_hermitian():
        raise DomainError("direction matrix is not Hermitian")
    if not alpha.is_infinitesimal():
        raise DomainError("alpha must be infinitesimal")
    eigenvalue = GaussianRational.coerce(eigenvalue)
    # C_A(lambda), then C_A'(lambda): the first two values of one Taylor shift
    taylor = char_poly(base).taylor_coefficients(eigenvalue)
    if next(taylor):
        raise DomainError(f"{eigenvalue} is not an eigenvalue of the base matrix")
    slope = next(taylor)
    if not slope:
        raise DomainError(f"{eigenvalue} is not a simple eigenvalue")
    shift = ExactPolynomial(_first_order_coeffs(base, direction)).evaluate(eigenvalue)
    return alpha * (-shift / slope)
