"""Exact Gaussian elimination over a NumberField.

Matrices are lists of rows of FieldElement.  Everything is small and
exact; no pivoting heuristics beyond first nonzero entry.  One routine,
Elimination, reduces columns in order; solve and independent_subset are
built on it, and graded modules keep one per degree.  Yes/no membership
(in_span) reads an echelon of the kept columns and needs no inverse; a
solution needs the row transform, built from the kept columns on first
use.  Left-nullspace certificates are the rows, below rank, of
Elimination.transform once it is built.
"""

from __future__ import annotations

from typing import List, Optional

from .errors import InputError
from .field import FieldElement, NumberField


def _columns(matrix: List[List[FieldElement]]) -> List[List[FieldElement]]:
    ncols = len(matrix[0]) if matrix else 0
    for row in matrix:
        if len(row) != ncols:
            raise InputError("ragged matrix")
    return [[row[c] for row in matrix] for c in range(ncols)]


def _pivot_columns(elimination: "Elimination", columns) -> List[int]:
    """Add columns in order until full rank; indices of the pivot columns."""
    pivots = []
    for idx, col in enumerate(columns):
        if elimination.full:
            break
        if elimination.add(col):
            pivots.append(idx)
    return pivots


def solve(
    matrix: List[List[FieldElement]],
    rhs: List[FieldElement],
    field: NumberField,
) -> Optional[List[FieldElement]]:
    """Solve matrix * x = rhs exactly; None when inconsistent.

    Free variables are set to zero, so the returned solution is the
    deterministic one produced by forward elimination.
    """
    if len(matrix) != len(rhs):
        raise InputError("dimension mismatch between matrix and rhs")
    columns = _columns(matrix)
    elimination = Elimination(len(matrix), field)
    pivots = _pivot_columns(elimination, columns)
    coeffs = elimination.solve(rhs)
    if coeffs is None:
        return None
    sol = [field.zero()] * len(columns)
    for col, c in zip(pivots, coeffs):
        sol[col] = c
    return sol


def independent_subset(
    vectors: List[List[FieldElement]], field: NumberField
) -> List[int]:
    """Indices of a maximal linearly independent subset (greedy, in order)."""
    if not vectors:
        return []
    return _pivot_columns(Elimination(len(vectors[0]), field), vectors)


class Elimination:
    """Column elimination of a matrix fed column by column, kept for reuse.

    add keeps a column when it is independent of the columns kept so far,
    so the kept columns are the greedy independent choice, and keeps it
    reduced against the earlier ones in an echelon: fraction-free, as
    lead * v - v[p] * e, so add needs no inverse.  in_span decides
    membership in the span from that echelon, at once when the rank is
    full.  The Gauss-Jordan row transform T, with T * A = RREF(A) for the
    columns added so far, is built from the kept columns on the first
    solve (or read of transform) and extended after later adds.  Applying
    T to a right-hand side b decides b in span(A) and gives the
    coefficients on the pivot columns of the solution whose free
    variables are zero, which is unique.
    """

    def __init__(self, nrows: int, field: NumberField):
        self.nrows = nrows
        # Entries of T that are still the identity's one are this object,
        # so _apply and the transform step can skip multiplying by them.
        self._one = field.one()
        self._zero = field.zero()
        self._kept: List[List[FieldElement]] = []  # the kept columns, as given
        # Per kept column: its pivot row, its reduced vector and the entry
        # there (None when it is one).
        self._echelon: List[tuple] = []
        self._transform: Optional[List[List[FieldElement]]] = None
        self._transform_rank = 0

    @property
    def rank(self) -> int:
        return len(self._kept)

    @property
    def full(self) -> bool:
        return self.rank == self.nrows

    def _reduce(self, vec: List[FieldElement]) -> List[FieldElement]:
        """vec reduced against the echelon: zero exactly when in the span."""
        v = list(vec)
        for p, e, lead in self._echelon:
            x = v[p]
            if not x:
                continue
            if lead is not None:
                v = [lead * a if a else a for a in v]
            for r, b in enumerate(e):
                if b:
                    term = x * b
                    v[r] = v[r] - term if v[r] else -term
        return v

    def add(self, col: List[FieldElement]) -> bool:
        """Keep one more column when it adds a pivot; True when it does."""
        if self.full:
            return False
        v = self._reduce(col)
        pivot = next((r for r, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        lead = v[pivot]
        self._echelon.append((pivot, v, None if lead == self._one else lead))
        self._kept.append(col)
        return True

    def in_span(self, vec: List[FieldElement]) -> bool:
        """Whether vec is a combination of the columns added so far."""
        return self.full or not any(self._reduce(vec))

    @property
    def transform(self) -> List[List[FieldElement]]:
        """T with T * A = RREF(A); its rows below rank vanish on A."""
        if self._transform is None:
            self._transform = [
                [self._one if r == k else self._zero for k in range(self.nrows)]
                for r in range(self.nrows)
            ]
        while self._transform_rank < self.rank:
            self._transform_step(self._kept[self._transform_rank])
        return self._transform

    def _transform_step(self, col: List[FieldElement]) -> None:
        """One Gauss-Jordan pivot of T on a kept column."""
        t = self._transform
        prow = self._transform_rank
        v = self._apply(t, col)
        pivot = next(r for r in range(prow, len(t)) if v[r])
        t[prow], t[pivot] = t[pivot], t[prow]
        v[prow], v[pivot] = v[pivot], v[prow]
        if v[prow] != self._one:
            inv = v[prow].inv()
            t[prow] = [x * inv if x else x for x in t[prow]]
        for r, factor in enumerate(v):
            if r != prow and factor:
                t[r] = [a - self._times(factor, b) if b else a for a, b in zip(t[r], t[prow])]
        self._transform_rank += 1

    def _times(self, x: FieldElement, entry: FieldElement) -> FieldElement:
        return x if entry is self._one else x * entry

    def _apply(self, t, vec: List[FieldElement]) -> List[FieldElement]:
        """t * vec."""
        out = [self._zero] * len(t)
        for k, x in enumerate(vec):
            if x:
                for r, row in enumerate(t):
                    if row[k]:
                        term = self._times(x, row[k])
                        out[r] = out[r] + term if out[r] else term
        return out

    def solve(self, rhs: List[FieldElement]) -> Optional[List[FieldElement]]:
        """Coefficients on the pivot columns of the unique solution, or None."""
        y = self._apply(self.transform, rhs)
        if any(y[self.rank:]):
            return None
        return y[:self.rank]
