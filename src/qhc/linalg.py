"""Exact Gaussian elimination over a NumberField.

Matrices are lists of rows of FieldElement.  Everything is small and
exact; no pivoting heuristics beyond first nonzero entry.  One routine,
Elimination, reduces columns in order; solve and independent_subset are
built on it, and graded modules keep one per degree.  Left-nullspace
certificates are the rows of Elimination.transform below rank.
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
    """Gauss-Jordan elimination of a matrix fed column by column, kept for reuse.

    Each added column is reduced by the row operations so far; its pivot
    is its first nonzero entry at or below the current pivot row.  Only
    the row transform T is stored, with T * A = RREF(A) for the columns
    added so far, so the pivot columns are the greedy independent choice.
    Applying T to a right-hand side b decides b in span(A) and gives the
    coefficients on the pivot columns of the solution whose free
    variables are zero, which is unique.
    """

    def __init__(self, nrows: int, field: NumberField):
        # Entries of T that are still the identity's one are this object,
        # so apply and add can skip multiplying by them.
        self._one = field.one()
        self._zero = field.zero()
        self.transform = [
            [self._one if r == k else self._zero for k in range(nrows)]
            for r in range(nrows)
        ]
        self.rank = 0

    @property
    def full(self) -> bool:
        return self.rank == len(self.transform)

    def add(self, col: List[FieldElement]) -> bool:
        """Eliminate one more column; True when it adds a pivot."""
        t = self.transform
        prow = self.rank
        v = self.apply(col)
        pivot = next((r for r in range(prow, len(t)) if v[r]), None)
        if pivot is None:
            return False
        t[prow], t[pivot] = t[pivot], t[prow]
        v[prow], v[pivot] = v[pivot], v[prow]
        if v[prow] != self._one:
            inv = v[prow].inv()
            t[prow] = [x * inv if x else x for x in t[prow]]
        for r, factor in enumerate(v):
            if r != prow and factor:
                t[r] = [a - self._times(factor, b) if b else a for a, b in zip(t[r], t[prow])]
        self.rank += 1
        return True

    def _times(self, x: FieldElement, entry: FieldElement) -> FieldElement:
        return x if entry is self._one else x * entry

    def apply(self, vec: List[FieldElement]) -> List[FieldElement]:
        """T * vec."""
        out = [self._zero] * len(self.transform)
        for k, x in enumerate(vec):
            if x:
                for r, row in enumerate(self.transform):
                    if row[k]:
                        term = self._times(x, row[k])
                        out[r] = out[r] + term if out[r] else term
        return out

    def solve(self, rhs: List[FieldElement]) -> Optional[List[FieldElement]]:
        """Coefficients on the pivot columns of the unique solution, or None."""
        y = self.apply(rhs)
        if any(y[self.rank:]):
            return None
        return y[:self.rank]
