"""Exact Gaussian elimination over a NumberField.

Vectors are sparse maps {row key: nonzero FieldElement}, such as a module
element's coefficients; solve and independent_subset take dense lists and
key them by position.  Everything is small and exact; the pivot is the
least key.  One routine, Elimination, reduces columns in order; solve and
independent_subset are built on it, and graded modules keep one per degree.
Yes/no membership (in_span) reads a fraction-free echelon of the kept
columns and needs no inverse; a solution (solve) eliminates the square
system of the kept columns on the echelon's pivot rows.
"""

from __future__ import annotations

from typing import List, Optional

from .errors import InputError
from .field import FieldElement, NumberField


def sub_multiple(v: dict, c: FieldElement, e: dict) -> dict:
    """v - c*e as a new map, keeping no zero."""
    out = dict(v)
    for k, b in e.items():
        s = out[k] - c * b if k in out else -(c * b)
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _columns(matrix: List[List[FieldElement]]) -> List[List[FieldElement]]:
    ncols = len(matrix[0]) if matrix else 0
    for row in matrix:
        if len(row) != ncols:
            raise InputError("ragged matrix")
    return [[row[c] for row in matrix] for c in range(ncols)]


def _sparse(vec: List[FieldElement]) -> dict:
    return {r: x for r, x in enumerate(vec) if x}


def _pivot_columns(elimination: "Elimination", columns) -> List[int]:
    """Add dense columns in order; indices of the ones kept as pivot columns."""
    return [idx for idx, col in enumerate(columns) if elimination.add(_sparse(col))]


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
    coeffs = elimination.solve(_sparse(rhs))
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

    Columns are sparse vectors on nrows keys, read and never changed.  add
    keeps a column when it is independent of the columns kept so far, so
    the kept columns are the greedy independent choice, and keeps it
    reduced against the earlier ones in an echelon: fraction-free, by steps
    v -> lead * v - x * e with x = v[p] on the pivot row p, the least key,
    of an earlier vector e, so add needs no inverse.  in_span decides
    membership in the span from that echelon, at once when the rank is full.

    solve reads the k x k system K_P of the kept columns on the echelon's
    pivot rows p_0, ..., p_k-1, in echelon order.  A step against e_j zeroes
    row p_j and keeps the zeros of the earlier steps, so e_i[p_j] = 0 for
    j < i: on those rows the echelon is lower triangular with its nonzero
    leads on the diagonal.  Kept column i is a combination of e_0, ..., e_i
    with a nonzero multiple of e_i, so K_P is that triangle times an upper
    triangular matrix with no zero on its diagonal.  Every leading
    principal minor of K_P is nonzero, and Gaussian elimination on it
    needs no row exchange.  The kept columns are independent, so a vector
    in their span is K c for exactly one c, and c solves K_P c = rhs_P.
    """

    def __init__(self, nrows: int, field: NumberField):
        self.nrows = nrows
        self.field = field
        self._kept: List[dict] = []
        # Per kept column: its pivot row, its reduced vector and the entry
        # there (None when it is one).
        self._echelon: List[tuple] = []

    @property
    def rank(self) -> int:
        return len(self._echelon)

    @property
    def full(self) -> bool:
        return self.rank == self.nrows

    def _reduce(self, vec: dict) -> dict:
        """vec reduced against the echelon: empty exactly when in the span."""
        v = vec
        for p, e, lead in self._echelon:
            x = v.get(p)
            if x is not None:
                if lead is not None:
                    v = {k: lead * a for k, a in v.items()}
                v = sub_multiple(v, x, e)
        return v

    def add(self, col: dict) -> bool:
        """Keep one more column when it adds a pivot; True when it does."""
        if self.full:
            return False
        v = self._reduce(col)
        if not v:
            return False
        pivot = min(v)
        lead = v[pivot]
        self._kept.append(col)
        self._echelon.append((pivot, v, None if lead == self.field.one() else lead))
        return True

    def in_span(self, vec: dict) -> bool:
        """Whether vec is a combination of the columns added so far."""
        return self.full or not self._reduce(vec)

    def solve(self, rhs: dict) -> Optional[List[FieldElement]]:
        """Coefficients on the kept columns of the unique solution, or None."""
        if not self.in_span(rhs):
            return None
        # [K_P | rhs_P] to unit upper triangular form (the diagonal is read,
        # not rewritten), then back-substitution in the last column.
        zero = self.field.zero()
        rows = [[col.get(p, zero) for col in self._kept] + [rhs.get(p, zero)]
                for p, _, _ in self._echelon]
        for j, top in enumerate(rows):
            if top[j] != self.field.one():
                inv = top[j].inv()
                top[j + 1:] = [b * inv if b else b for b in top[j + 1:]]
            for row in rows[j + 1:]:
                x = row[j]
                if x:
                    row[j + 1:] = [a - x * b if b else a for a, b in zip(row[j + 1:], top[j + 1:])]
        for j in reversed(range(len(rows))):
            x = rows[j][-1]
            if x:
                for row in rows[:j]:
                    if row[j]:
                        row[-1] = row[-1] - row[j] * x
        return [row[-1] for row in rows]
