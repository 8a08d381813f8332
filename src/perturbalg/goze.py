"""Goze decomposition of vectors of univariate infinitesimals.

A vector E of infinitesimal series is rewritten as

    E = alpha_1*U_1 + alpha_1*alpha_2*U_2 + ... + alpha_1*...*alpha_l*U_l

where every alpha_i is an infinitesimal series and the constant direction
vectors U_i are linearly independent over Q(i): each level pivots on the entry
of minimal valuation (lowest index on ties) of the undivided remainder and
zeroes that coordinate, so the result is canonical and has at most dim(E) levels.
"""

from __future__ import annotations

from .errors import DomainError
from .scalars import GaussianRational
from .series import TruncatedSeries, _check_bits, _leading_ratios, divide_univariate


def _pivot(entries) -> TruncatedSeries:
    """The nonzero entry of least valuation, the first on ties (min keeps the first)."""
    return min((e for e in entries if e), key=TruncatedSeries.valuation)


class GozeDecomposition:
    """Ordered levels (alpha_i, U_i) over a shared univariate ring, built as they are read.

    Iteration builds the levels one at a time, so a reader that stops early,
    as root_correction does, builds only the levels it reads; each level
    checks its bits when it is built.  `levels`, rank(), reconstruct() and
    direction_rows() build every level.
    """

    __slots__ = ("ring", "dimension", "_built", "_remainder", "_previous", "_pivot")

    def __init__(self, entries: list[TruncatedSeries]):
        self.ring = entries[0].ring
        self.dimension = len(entries)
        self._built = []  # the levels built so far
        self._remainder = entries  # E minus the terms of every built level but the last
        self._previous = self.ring.one()  # the pivot before the last built level's
        self._pivot = None  # the last built level's pivot, until it leaves the remainder

    def _grow(self) -> bool:
        """Build the next level; False once the remainder is zero.

        The pivot is the remainder's `_pivot`, of valuation v, and U the t^v
        coefficients of the remainder over the pivot's.
        """
        if self._pivot is not None:
            direction = self._built[-1][1]
            self._remainder = [e - self._pivot * u for e, u in zip(self._remainder, direction)]
            self._previous, self._pivot = self._pivot, None
        if not any(self._remainder):
            return False
        pivot = _pivot(self._remainder)
        direction = _leading_ratios(pivot, self._remainder)
        alpha = divide_univariate(pivot, self._previous)
        _check_bits((alpha, *direction), "Goze level")
        self._built.append((alpha, direction))
        self._pivot = pivot
        return True

    def __iter__(self):
        index = 0
        while index < len(self._built) or self._grow():
            yield self._built[index]
            index += 1

    @property
    def levels(self) -> list:
        """Every level."""
        while self._grow():
            pass
        return self._built

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
    """Exact rank over Q(i): the number of rows forward elimination takes as pivots.

    A pivot row clears its column in the rows left, updating them only where it
    is nonzero (a row of orbit_dimension's commutator matrix starts with at most
    2n - 1 nonzero entries).
    """
    work = [list(row) for row in rows]
    height = len(work)
    for col in range(len(work[0]) if work else 0):
        index = next((r for r, row in enumerate(work) if row[col]), None)
        if index is None:
            continue
        pivot = work.pop(index)
        pivot_inv = GaussianRational(1) / pivot[col]
        support = [j for j in range(col + 1, len(pivot)) if pivot[j]]
        for row in work:
            if row[col]:  # columns up to col are not read again
                factor = row[col] * pivot_inv
                for j in support:
                    row[j] = row[j] - factor * pivot[j]
    return height - len(work)


def _check_univariate(ring) -> None:
    """DomainError unless `ring` is univariate, as a decomposition needs."""
    if not ring.is_univariate:
        raise DomainError(
            "decomposition needs the univariate ring; specialize multivariate input first"
        )


def decompose(entries) -> GozeDecomposition:
    """Decompose a vector of univariate infinitesimal series.

    Each level pivots on the remainder E - sum_i prefix_i*U_i, with
    prefix_i = alpha_1*...*alpha_i, until it is zero; U is the pivot's
    leading ratios (series._leading_ratios).  The level-l pivot is prefix_l,
    exact in the ring, so alpha_l is that pivot over the previous one (one
    series division per level), determined up to degree
    T - val(prefix_(l-1)).  The input is checked here, and each level is
    built when it is first read (see GozeDecomposition).
    Raises DomainError when the vector is empty, an entry is not an
    infinitesimal series or the entries do not share a univariate ring; a
    level that stores more than MAX_POWER_BITS bits raises it when the level
    is built.
    """
    entries = list(entries)
    if not entries:
        raise DomainError("cannot decompose an empty vector")
    if not all(isinstance(entry, TruncatedSeries) for entry in entries):
        raise DomainError("vector entries must be series")
    ring = entries[0].ring
    _check_univariate(ring)
    for entry in entries:
        if entry.ring != ring:
            raise DomainError("vector entries live in different rings")
        if not entry.is_infinitesimal():
            raise DomainError(f"entry {entry} is not infinitesimal")
    return GozeDecomposition(entries)
