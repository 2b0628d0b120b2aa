"""Exact linear algebra over number fields."""

import random
from fractions import Fraction

import pytest

from qhc import linalg
from qhc.errors import InputError
from qhc.field import QQ


def _m(rows):
    return [[QQ.from_rational(Fraction(v)) for v in row] for row in rows]


def _v(vals):
    return [QQ.from_rational(Fraction(v)) for v in vals]


def test_identity_system():
    sol = linalg.solve(_m([[1, 0], [0, 1]]), _v([3, -2]), QQ)
    assert sol == _v([3, -2])


def test_inconsistent_system():
    assert linalg.solve(_m([[1, 1], [2, 2]]), _v([1, 3]), QQ) is None


def test_scalar_system():
    assert linalg.solve(_m([[2]]), _v([1]), QQ) == _v([Fraction(1, 2)])


def test_underdetermined_sets_free_variables_to_zero():
    sol = linalg.solve(_m([[1, 1]]), _v([5]), QQ)
    assert sol == _v([5, 0])


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        linalg.solve(_m([[1]]), _v([1, 2]), QQ)


def test_nullspace_of_rank_one_matrix():
    basis = linalg.nullspace(_m([[1, 1]]), QQ)
    assert len(basis) == 1
    (vec,) = basis
    assert vec[0] + vec[1] == QQ.zero()
    assert any(vec)


def test_nullspace_of_invertible_matrix_is_empty():
    assert linalg.nullspace(_m([[1, 2], [3, 4]]), QQ) == []


def test_independent_subset_greedy_order():
    vecs = _m([[1, 0], [2, 0], [0, 1], [1, 1]])
    assert linalg.independent_subset(vecs, QQ) == [0, 2]
    assert linalg.independent_subset([], QQ) == []


def test_random_solutions_satisfy_the_system():
    rng = random.Random(23)
    for _ in range(100):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        matrix = _m([[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)])
        rhs = _v([rng.randint(-4, 4) for _ in range(n)])
        sol = linalg.solve(matrix, rhs, QQ)
        if sol is None:
            continue
        for row, b in zip(matrix, rhs):
            acc = QQ.zero()
            for a, x in zip(row, sol):
                acc = acc + a * x
            assert acc == b


# The elimination loops that solve, nullspace and independent_subset ran
# before they were built on linalg.Elimination, kept as references.


def reference_solve(matrix, rhs, field):
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots = []
    prow = 0
    for col in range(ncols):
        pivot = next((r for r in range(prow, nrows) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[prow], aug[pivot] = aug[pivot], aug[prow]
        inv = aug[prow][col].inv()
        aug[prow] = [v * inv for v in aug[prow]]
        for r in range(nrows):
            if r != prow and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[prow])]
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    if any(aug[r][ncols] for r in range(prow, nrows)):
        return None, pivots, aug
    sol = [field.zero()] * ncols
    for r, col in enumerate(pivots):
        sol[col] = aug[r][ncols]
    return sol, pivots, aug


def reference_nullspace(matrix, field):
    ncols = len(matrix[0]) if matrix else 0
    _, pivots, aug = reference_solve(matrix, [field.zero()] * len(matrix), field)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [field.zero()] * ncols
        vec[free] = field.one()
        for r, col in enumerate(pivots):
            vec[col] = -aug[r][free]
        basis.append(vec)
    return basis


def reference_independent_subset(vectors, field):
    if not vectors:
        return []
    rows, chosen = [], []
    for idx, vec in enumerate(vectors):
        work = list(vec)
        for row in rows:
            lead = next((j for j, v in enumerate(row) if v), None)
            if lead is not None and work[lead]:
                factor = work[lead] / row[lead]
                work = [a - factor * b for a, b in zip(work, row)]
        if any(work):
            rows.append(work)
            chosen.append(idx)
        if len(rows) == len(vectors[0]):
            break
    return chosen


def test_elimination_matches_the_reference_loops():
    rng = random.Random(7)
    for _ in range(300):
        nrows, ncols = rng.randint(0, 4), rng.randint(0, 6)
        matrix = _m([[rng.choice([0, 0, 1, -2, 3]) for _ in range(ncols)] for _ in range(nrows)])
        cols = [[row[c] for row in matrix] for c in range(ncols)]
        assert linalg.independent_subset(cols, QQ) == reference_independent_subset(cols, QQ)
        assert linalg.nullspace(matrix, QQ) == reference_nullspace(matrix, QQ)
        member = [sum((c[r] for c in cols[:2]), QQ.zero()) for r in range(nrows)]
        for rhs in (_v([rng.randint(-2, 2) for _ in range(nrows)]), member):
            assert linalg.solve(matrix, rhs, QQ) == reference_solve(matrix, rhs, QQ)[0]
