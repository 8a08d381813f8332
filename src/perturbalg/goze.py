"""Goze decomposition of vectors of univariate infinitesimals.

A vector E of infinitesimal series is rewritten as

    E = alpha_1*U_1 + alpha_1*alpha_2*U_2 + ... + alpha_1*...*alpha_l*U_l

where every alpha_i is an infinitesimal series and the constant direction
vectors U_i are linearly independent over Q(i).  The pivot convention (the
entry of minimal valuation, lowest index on ties, becomes the next alpha)
makes the result canonical and the recursion terminate in at most dim(E)
levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, PerturbAlgError
from .scalars import GaussianRational
from .series import TruncatedSeries, divide_univariate


@dataclass
class GozeDecomposition:
    """Ordered levels (alpha_i, U_i) over a shared univariate ring."""

    ring: object
    dimension: int
    levels: list = field(default_factory=list)
    truncation_limited: bool = False

    def rank(self) -> int:
        """Number of levels, i.e. the rank of the decomposed vector."""
        return len(self.levels)

    def reconstruct(self) -> list[TruncatedSeries]:
        """Expand the nested-product form back into a plain vector."""
        out = [self.ring.zero() for _ in range(self.dimension)]
        prefix = self.ring.one()
        for alpha, direction in self.levels:
            prefix = prefix * alpha
            for i, u in enumerate(direction):
                if u:
                    out[i] = out[i] + prefix * u
        return out

    def direction_rows(self) -> list[list[GaussianRational]]:
        return [list(direction) for _, direction in self.levels]


def rank_of_rows(rows) -> int:
    """Exact rank over Q(i) by Gaussian elimination."""
    work = [list(row) for row in rows]
    rank = 0
    width = len(work[0]) if work else 0
    col = 0
    while rank < len(work) and col < width:
        pivot_row = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot_row is None:
            col += 1
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        for r in range(rank + 1, len(work)):
            if work[r][col]:
                factor = work[r][col] / pivot
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
        col += 1
    return rank


_rank_of_rows = rank_of_rows  # the name the test suites import


def _validated(entries) -> list[TruncatedSeries]:
    """The entries as a list, once they share one univariate ring and are infinitesimal."""
    entries = list(entries)
    if not entries:
        raise DomainError("cannot decompose an empty vector")
    ring = entries[0].ring
    if not ring.is_univariate:
        raise DomainError(
            "decomposition needs the univariate ring; specialize multivariate input first"
        )
    for entry in entries:
        if entry.ring != ring:
            raise DomainError("vector entries live in different rings")
        if not entry.is_infinitesimal():
            raise DomainError(f"entry {entry} is not infinitesimal")
    return entries


def _pivot_index(residual) -> int:
    """Index of the nonzero entry of minimal valuation, lowest index on ties."""
    return min(
        (i for i, e in enumerate(residual) if not e.is_zero()),
        key=lambda i: residual[i].valuation(),
    )


def first_level(entries) -> tuple[TruncatedSeries, tuple[GaussianRational, ...]]:
    """The first level (alpha_1, U_1) of decompose(entries), without the others.

    alpha_1 is the pivot entry, of valuation v.  The standard part of
    e / alpha_1 is the ratio of the t^v coefficients of e and alpha_1, so U_1
    needs no series division.  Raises DomainError on the zero vector, which
    has no levels, and on input that decompose rejects.
    """
    entries = _validated(entries)
    if all(e.is_zero() for e in entries):
        raise DomainError("the zero vector has no first level")
    alpha = entries[_pivot_index(entries)]
    index = (alpha.valuation(),)
    lead = alpha.terms[index]
    zero = GaussianRational(0)
    return alpha, tuple(e.terms.get(index, zero) / lead for e in entries)


def decompose(entries) -> GozeDecomposition:
    """Decompose a vector of univariate infinitesimal series.

    Raises DomainError when an entry is not infinitesimal or the entries do
    not share a univariate ring.  When the alpha-chain valuation reaches the
    truncation bound before the residual vanishes, the result is flagged
    truncation_limited and reconstruction holds up to degree T only (which is
    all the ring can express anyway).
    """
    entries = _validated(entries)
    ring = entries[0].ring
    result = GozeDecomposition(ring=ring, dimension=len(entries))
    residual = entries
    chain_valuation = 0
    while any(not e.is_zero() for e in residual):
        alpha = residual[_pivot_index(residual)]
        if chain_valuation + alpha.valuation() > ring.truncation:
            result.truncation_limited = True
            break
        quotients = [divide_univariate(e, alpha) for e in residual]
        direction = tuple(q.standard_part() for q in quotients)
        result.levels.append((alpha, direction))
        chain_valuation += alpha.valuation()
        residual = [q - u for q, u in zip(quotients, direction)]

    # The pivot convention zeroes one coordinate per level, which forces the
    # direction rows to be unit-triangular up to a column permutation.
    if result.levels and rank_of_rows(result.direction_rows()) != len(result.levels):
        raise PerturbAlgError("internal error: dependent direction vectors")
    return result
