"""Exact Gaussian elimination over a NumberField.

Matrices are lists of rows of FieldElement.  Everything is small and
exact; no pivoting heuristics beyond first nonzero entry.  One routine,
Elimination, reduces columns in order; solve and independent_subset are
built on it, and graded modules keep one per degree.  Yes/no membership
(in_span) reads an echelon of the kept columns and needs no inverse; a
solution (solve) reduces the right-hand side against the same echelon and
back-substitutes through the steps that built it, with at most one
inverse.
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
    reduced against the earlier ones in an echelon: fraction-free, by steps
    v -> lead * v - x * e with x = v[p] on the pivot row p of an earlier
    vector e, so add needs no inverse.  It records those steps.  in_span
    decides membership in the span from that echelon, at once when the
    rank is full.  solve reduces a right-hand side the same way and
    back-substitutes through the recorded steps, last vector first, into
    the coefficients on the kept columns of the solution whose free
    variables are zero, which is unique.
    """

    def __init__(self, nrows: int, field: NumberField):
        self.nrows = nrows
        self.field = field
        # Per kept column: its pivot row, its reduced vector, the entry
        # there (None when it is one) and the steps (j, x) that reduced it.
        self._echelon: List[tuple] = []
        self._backs: dict = {}  # per kept column, from its first solve: see _back

    @property
    def rank(self) -> int:
        return len(self._echelon)

    @property
    def full(self) -> bool:
        return self.rank == self.nrows

    def _reduce(self, vec: List[FieldElement], steps: Optional[list] = None) -> List[FieldElement]:
        """vec reduced against the echelon: zero exactly when in the span.

        Each step v -> lead_j * v - x * e_j taken is appended to steps as
        (j, x) when steps is a list.
        """
        v = list(vec)
        for j, (p, e, lead, _) in enumerate(self._echelon):
            x = v[p]
            if not x:
                continue
            if steps is not None:
                steps.append((j, x))
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
        steps: list = []
        v = self._reduce(col, steps)
        pivot = next((r for r, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        lead = v[pivot]
        self._echelon.append((pivot, v, None if lead == self.field.one() else lead, steps))
        return True

    def in_span(self, vec: List[FieldElement]) -> bool:
        """Whether vec is a combination of the columns added so far."""
        return self.full or not any(self._reduce(vec))

    def solve(self, rhs: List[FieldElement]) -> Optional[List[FieldElement]]:
        """Coefficients on the pivot columns of the unique solution, or None."""
        steps: list = []
        if any(self._reduce(rhs, steps)):
            return None
        echelon = self._echelon
        # Undone last first, the steps write scale * rhs as a combination of
        # echelon vectors, scale being the product of the leads they met.
        coeffs = [self.field.zero()] * self.rank
        scale = None
        for j, x in reversed(steps):
            coeffs[j] = x if scale is None else x * scale
            lead = echelon[j][2]
            if lead is not None:
                scale = lead if scale is None else scale * lead
        # Back-substitution.  By its steps, e_k = P * col_k - the sum of
        # x * (the leads of its later steps) * e_j, P all their leads; so
        # c * e_k is c * P on col_k less c times that sum, whose e_j come
        # later in this loop.
        for k in range(self.rank - 1, -1, -1):
            t = coeffs[k]
            if not t:
                continue
            multipliers, leads = self._back(k)
            for j, m in multipliers:
                term = m * t
                coeffs[j] = coeffs[j] - term if coeffs[j] else -term
            coeffs[k] = t if leads is None else t * leads
        if scale is None:
            return coeffs
        inv = scale.inv()
        return [c * inv if c else c for c in coeffs]

    def _back(self, k: int) -> tuple:
        """Back-substitution's factors for echelon vector k, kept from its first
        use: [(j, x * the leads of the steps after it)] over its recorded
        steps, and the product P of all their leads (None when each is one)."""
        back = self._backs.get(k)
        if back is None:
            echelon = self._echelon
            multipliers, leads = [], None
            for j, x in reversed(echelon[k][3]):
                multipliers.append((j, x if leads is None else x * leads))
                lead = echelon[j][2]
                if lead is not None:
                    leads = lead if leads is None else leads * lead
            back = self._backs[k] = (multipliers, leads)
        return back
