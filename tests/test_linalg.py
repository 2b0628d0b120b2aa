"""Exact linear algebra over number fields."""

import random
from fractions import Fraction

import pytest

from qhc import linalg
from qhc.errors import InputError
from qhc.field import QQ, NumberField

Q_I = NumberField((1, 0, 1))  # Q[a]/(a^2 + 1)
Q_ZETA8 = NumberField((1, 0, 0, 0, 1))  # Q[a]/(a^4 + 1)
Q_ZETA12 = NumberField((1, 0, -1, 0, 1))  # Q[a]/(a^4 - a^2 + 1)


def _m(rows):
    return [[QQ.from_rational(Fraction(v)) for v in row] for row in rows]


def _v(vals):
    return [QQ.from_rational(Fraction(v)) for v in vals]


def _sparse(vec):
    """A dense vector as the map {position: nonzero entry} Elimination takes."""
    return {r: x for r, x in enumerate(vec) if x}


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


# The elimination loops that solve and independent_subset ran
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
        member = [sum((c[r] for c in cols[:2]), QQ.zero()) for r in range(nrows)]
        for rhs in (_v([rng.randint(-2, 2) for _ in range(nrows)]), member):
            assert linalg.solve(matrix, rhs, QQ) == reference_solve(matrix, rhs, QQ)[0]


@pytest.mark.parametrize("field", [QQ, Q_I, Q_ZETA8], ids=["Q", "Qi", "Qzeta8"])
def test_in_span_agrees_with_solve(field):
    rng = random.Random(31)
    entries = [0, 0, 0, 1, -1, 2, -3]

    def draw():
        return field.element([rng.choice(entries) for _ in range(field.degree)])

    def combination(coeffs, columns, nrows):
        out = [field.zero()] * nrows
        for c, col in zip(coeffs, columns):
            out = [m + c * x for m, x in zip(out, col)]
        return out

    ranks = set()
    for _ in range(300):
        nrows, ncols = rng.randint(0, 5), rng.randint(0, 7)
        cols = [[draw() for _ in range(nrows)] for _ in range(ncols)]
        if ncols > 1 and rng.random() < 0.5:
            # A repeated combination of two columns lowers the rank.
            c = draw()
            cols.append([c * a + b for a, b in zip(cols[0], cols[1])])
        elimination = linalg.Elimination(nrows, field)
        kept = []
        # Solve before the first add and after every add, so
        # back-substitution runs at every rank.
        for n in range(len(cols) + 1):
            if n and elimination.add(_sparse(cols[n - 1])):
                kept.append(n - 1)
            matrix = [[c[r] for c in cols[:n]] for r in range(nrows)]
            member = combination([draw() for _ in range(n)], cols[:n], nrows)
            for rhs in ([draw() for _ in range(nrows)], member):
                expected = linalg.solve(matrix, rhs, field)
                assert expected == reference_solve(matrix, rhs, field)[0]
                coeffs = elimination.solve(_sparse(rhs))
                assert elimination.in_span(_sparse(rhs)) is (coeffs is not None)
                if coeffs is None:
                    assert rhs is not member and expected is None
                    continue
                assert coeffs == [expected[k] for k in kept]
                assert combination(coeffs, [cols[k] for k in kept], nrows) == rhs
        ranks.add((elimination.rank < nrows, elimination.rank < len(cols)))
    assert ranks == {(False, False), (False, True), (True, False), (True, True)}


def test_solve_when_the_pivot_rows_are_out_of_order():
    # The echelon's pivot rows are 0, 2, 1, and two of its leads are not
    # one, so the square system on the pivot rows is read in echelon order,
    # not in row order.
    cols = [_v([2, 2, 2, 0]), _v([1, 1, 0, 0]), _v([0, 3, 0, 0])]
    elimination = linalg.Elimination(4, QQ)
    assert all(elimination.add(_sparse(c)) for c in cols)
    assert [p for p, _, _ in elimination._echelon] == [0, 2, 1]
    coeffs = _v([Fraction(1, 2), -3, 5])
    rhs = [sum((c * col[r] for c, col in zip(coeffs, cols)), QQ.zero()) for r in range(4)]
    assert rhs == _v([-2, 13, 1, 0])
    assert elimination.solve(_sparse(rhs)) == coeffs
    assert elimination.solve(_sparse(_v([0, 0, 0, 1]))) is None
    matrix = [[col[r] for col in cols] for r in range(4)]
    assert linalg.solve(matrix, rhs, QQ) == coeffs


@pytest.mark.parametrize(
    "field", [QQ, Q_I, Q_ZETA8, Q_ZETA12], ids=["Q", "Qi", "Qzeta8", "Qzeta12"]
)
def test_sparse_maps_keyed_by_tuples_match_the_dense_references(field):
    """Columns given as maps on tuple keys, inserted out of key order, keep
    the columns and solve as the dense references do on the vectors listed
    in key order, and the maps given are left as they were."""
    rng = random.Random(41)
    entries = [0, 0, 0, 1, -1, 2, -3]

    def draw():
        return field.element([rng.choice(entries) for _ in range(field.degree)])

    def as_map(vec, keys):
        order = list(range(len(keys)))
        rng.shuffle(order)
        return {keys[r]: vec[r] for r in order if vec[r]}

    ranks = set()
    for _ in range(200):
        nrows, ncols = rng.randint(0, 5), rng.randint(0, 7)
        keys = sorted(rng.sample([(i, j, rng.randint(0, 9)) for i in range(3) for j in range(3)], nrows))
        cols = [[draw() for _ in range(nrows)] for _ in range(ncols)]
        if ncols > 1 and rng.random() < 0.5:
            c = draw()
            cols.append([c * a + b for a, b in zip(cols[0], cols[1])])
        maps = [as_map(col, keys) for col in cols]
        snapshot = [dict(m) for m in maps]
        elimination = linalg.Elimination(nrows, field)
        kept = [k for k, m in enumerate(maps) if elimination.add(m)]
        assert kept == reference_independent_subset(cols, field)
        # The pivot of each reduced vector is its least key.
        assert all(p == min(e) for p, e, _ in elimination._echelon)
        matrix = [[col[r] for col in cols] for r in range(nrows)]
        member = [field.zero()] * nrows
        for col in cols:
            c = draw()
            member = [m + c * x for m, x in zip(member, col)]
        for rhs in ([draw() for _ in range(nrows)], member):
            rhs_map = as_map(rhs, keys)
            rhs_snapshot = dict(rhs_map)
            expected = reference_solve(matrix, rhs, field)[0]
            coeffs = elimination.solve(rhs_map)
            assert elimination.in_span(rhs_map) is (coeffs is not None)
            assert (coeffs is None) is (expected is None)
            if coeffs is not None:
                assert coeffs == [expected[k] for k in kept]
                assert [sum((c * cols[k][r] for c, k in zip(coeffs, kept)), field.zero())
                        for r in range(nrows)] == rhs
            assert rhs_map == rhs_snapshot
        assert maps == snapshot
        ranks.add((elimination.rank < nrows, elimination.rank < len(cols)))
    assert ranks == {(False, False), (False, True), (True, False), (True, True)}
