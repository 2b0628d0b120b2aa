"""Graded submodules of free covers: pieces, membership, embedding, conditions."""

import math
import random
from fractions import Fraction

import pytest

from qhc.catalog import ADE_LABELS, catalog_get, fixture_modules
from qhc.connection import (
    apply_nabla_D,
    apply_nabla_E,
    default_degree_bound,
    natural_connection,
    verify_properties,
)
from qhc.derivation import q_element
from qhc.errors import ConsistencyError, InputError
from qhc.field import QQ
from qhc.module import (
    FreeCover,
    GradedSubmodule,
    ModuleElement,
    basis_element,
    coordinate_ring,
    element_degree,
    element_degrees,
)
from qhc.poly import BiPoly, UniPoly
from qhc.semigroup import gamma_formula, gamma_oracle

from conftest import cusp_curve, y_family_curve
from test_linalg import reference_solve
from test_terms import reference_image


def _t(exp, coeff=1):
    return UniPoly.monomial(QQ, QQ.from_rational(Fraction(coeff)), exp)


def _elem(entries):
    """The element sum c t_i^e e_ij over entries (i, j) -> (c, e)."""
    return ModuleElement(
        QQ, {(i, j, e): QQ.from_rational(Fraction(c)) for (i, j), (c, e) in entries.items()}
    )


def entries_of(v):
    """The (branch, slot) -> UniPoly view of v's cover coordinates."""
    slots = {}
    for (i, j, e), c in v.coeffs.items():
        slots.setdefault((i, j), {})[e] = c
    return {k: UniPoly.make(v.field, d) for k, d in slots.items()}


def element_of(field, entries):
    """The element with the (branch, slot) -> UniPoly entries."""
    return ModuleElement(field, {(i, j, e): c for (i, j), p in entries.items() for e, c in p.terms})


def case1_module(curve, h):
    """Generators { e_11 + e_21, t_2^h e_21 } in the rank-(1,1) cover."""
    cover = FreeCover(((0,), (0,)))
    gens = [
        _elem({(0, 0): (1, 0), (1, 0): (1, 0)}),
        _elem({(1, 0): (1, h)}),
    ]
    return GradedSubmodule(curve, cover, gens)


def case2_module(curve, h):
    """Generators { e_11 + t_2^h e_21, e_21 } with shifted first slot."""
    cover = FreeCover(((h,), (0,)))
    gens = [
        _elem({(0, 0): (1, 0), (1, 0): (1, h)}),
        _elem({(1, 0): (1, 0)}),
    ]
    return GradedSubmodule(curve, cover, gens)


def unstable_cusp_module(curve):
    """Cover shifts (0, 1) with generators { e_1, e_2 + t e_1 }."""
    cover = FreeCover(((0, 1),))
    gens = [_elem({(0, 0): (1, 0)}), _elem({(0, 1): (1, 0), (0, 0): (1, 1)})]
    return GradedSubmodule(curve, cover, gens)


def test_element_degree_and_components():
    curve = y_family_curve(3, 2)
    cover = FreeCover(((0,), (0,)))
    v = _elem({(0, 0): (1, 1)})  # t_1 e_11, degree 3
    assert element_degree(curve, cover, v) == 3
    mixed = _elem({(0, 0): (1, 0), (1, 0): (1, 3)})
    with pytest.raises(InputError, match="not homogeneous"):
        element_degree(curve, cover, mixed)
    # the degrees of the components; zero has none
    assert element_degrees(curve, cover, mixed) == {0, 3}
    assert element_degrees(curve, cover, v) == {3}
    assert element_degrees(curve, cover, ModuleElement(QQ, {})) == frozenset()


def test_zero_generator_rejected():
    curve = y_family_curve(3, 2)
    with pytest.raises(InputError, match="zero generator"):
        GradedSubmodule(curve, FreeCover(((0,), (0,))), [ModuleElement(QQ, {})])


def test_graded_piece_of_cyclic_free_module():
    curve = y_family_curve(3, 2)
    cover = FreeCover(((0,), (0,)))
    M = GradedSubmodule(
        curve, cover, [_elem({(0, 0): (1, 0), (1, 0): (1, 0)})]
    )
    assert len(M.graded_piece(0)) == 1
    assert M.graded_piece(-1) == []
    assert M.graded_piece(1) == []  # no monomials of weight 1 for (3, 2)


def test_graded_piece_of_cusp_normalization():
    curve = cusp_curve()
    M = GradedSubmodule(
        curve,
        FreeCover(((0,),)),
        [_elem({(0, 0): (1, 0)}), _elem({(0, 0): (1, 1)})],
    )
    piece = M.graded_piece(4)
    assert len(piece) == 1
    assert piece[0] == _elem({(0, 0): (1, 4)})


def test_contains_with_witness_replay():
    curve = y_family_curve(3, 2)
    M = case1_module(curve, 3)
    # x*(e_11 + e_21) - t_2^3 e_21 = t_1 e_11
    target = _elem({(0, 0): (1, 1)})
    witness = M.contains(target)
    assert witness is not None
    assert M.replay_witness(witness) == target
    # t_2^6 e_21 = x * (t_2^3 e_21)
    target2 = _elem({(1, 0): (1, 6)})
    witness2 = M.contains(target2)
    assert witness2 is not None
    assert M.replay_witness(witness2) == target2


def test_contains_zero_element_is_trivial():
    curve = y_family_curve(3, 2)
    M = case1_module(curve, 3)
    assert M.contains(ModuleElement(QQ, {})) == []


def test_is_member_of_zero_and_of_a_mixed_degree_element():
    curve = y_family_curve(3, 2)
    M = case1_module(curve, 3)
    assert M.is_member(ModuleElement(QQ, {})) is True
    mixed = _elem({(0, 0): (1, 1)}) + _elem({(1, 0): (1, 1)})
    with pytest.raises(InputError) as from_contains:
        M.contains(mixed)
    with pytest.raises(InputError) as from_is_member:
        M.is_member(mixed)
    assert str(from_is_member.value) == str(from_contains.value)


def test_contains_rejects_outsiders():
    curve = y_family_curve(3, 2)
    M = case1_module(curve, 3)
    # t_2 e_21 has degree 1; M_1 is empty
    assert M.contains(_elem({(1, 0): (1, 1)})) is None


def test_action_preserves_membership(rng):
    curve = y_family_curve(3, 2)
    M = case1_module(curve, 1)
    for _ in range(20):
        gen = M.generators[rng.randrange(len(M.generators))]
        a, b = rng.choice([(1, 0), (0, 1), (2, 0), (1, 1)])
        v = gen.act(curve.monomial_terms(a, b))
        if v:
            witness = M.contains(v)
            assert witness is not None
            assert M.replay_witness(witness) == v


def test_canonical_embedding_of_the_cusp_ideal():
    curve = cusp_curve()
    M = GradedSubmodule(
        curve,
        FreeCover(((0,),)),
        [_elem({(0, 0): (1, 3)}), _elem({(0, 0): (-1, 2)})],
    )
    Mc = M.canonical_embedding()
    assert Mc.cover.shifts == ((2,),)
    assert Mc.generators[0] == _elem({(0, 0): (1, 1)})
    assert Mc.generators[1] == _elem({(0, 0): (-1, 0)})


def test_canonical_embedding_is_idempotent():
    curve = y_family_curve(3, 2)
    for M in (case1_module(curve, 3), case2_module(curve, 1)):
        Mc = M.canonical_embedding()
        Mcc = Mc.canonical_embedding()
        assert Mcc.cover.shifts == Mc.cover.shifts
        assert Mcc.generators == Mc.generators


def test_canonical_embedding_keeps_already_minimal_modules():
    curve = y_family_curve(3, 2)
    M = case1_module(curve, 3)
    Mc = M.canonical_embedding()
    assert Mc.cover.shifts == M.cover.shifts
    assert Mc.generators == M.generators


def test_canonical_embedding_preserves_graded_dimensions():
    curve = cusp_curve()
    M = GradedSubmodule(
        curve,
        FreeCover(((0,),)),
        [_elem({(0, 0): (1, 3)}), _elem({(0, 0): (-1, 2)})],
    )
    Mc = M.canonical_embedding()
    for w in range(0, 12):
        assert len(M.graded_piece(w)) == len(Mc.graded_piece(w))


def reference_canonical_embedding(M):
    """The UniPoly column reduction canonical_embedding replaced, kept whole
    (with its echelon pass) as the reference: (cover, generators)."""
    field = M.curve.field

    def branch_projection(gen, i, rank):
        entries = entries_of(gen)
        return [entries.get((i, j), UniPoly.zero(field)) for j in range(rank)]

    new_shifts = []
    bases = []  # per branch: list of (pivot_row, column vector)
    for i, branch_shifts in enumerate(M.cover.shifts):
        rank = len(branch_shifts)
        d_i = M.curve.branches[i].t_degree
        work = []
        for gen in M.generators:
            col = branch_projection(gen, i, rank)
            if any(col):
                work.append(col)
        basis = []
        for row in range(rank):
            candidates = [idx for idx, c in enumerate(work) if c[row]]
            if not candidates:
                continue
            best = min(candidates, key=lambda idx: work[idx][row].terms[0][0])
            pivot = work.pop(best)
            pe, pc = pivot[row].terms[0]
            pivot = [p.scale(pc.inv()) for p in pivot]
            remaining = []
            for c in work:
                if c[row]:
                    ce, cc = c[row].terms[0]
                    if ce < pe:
                        raise ConsistencyError("pivot was not minimal")
                    factor = UniPoly.monomial(field, cc, ce - pe)
                    c = [a - factor * b for a, b in zip(c, pivot)]
                if any(c):
                    remaining.append(c)
            work = remaining
            basis.append((row, pivot))
        for k in range(len(basis)):
            row_k, col_k = basis[k]
            for j in range(k):
                row_j, col_j = basis[j]
                if not col_k[row_j]:
                    continue
                ce, cc = col_k[row_j].terms[0]
                pe = col_j[row_j].terms[0][0]
                if ce >= pe:
                    factor = UniPoly.monomial(field, cc, ce - pe)
                    col_k = [a - factor * b for a, b in zip(col_k, col_j)]
            basis[k] = (row_k, col_k)
        shifts = []
        for row, col in basis:
            j_nz, nz = next((j, p) for j, p in enumerate(col) if p)
            e = nz.terms[0][0]
            shifts.append(branch_shifts[j_nz] + e * d_i)
        new_shifts.append(tuple(shifts))
        bases.append(basis)
    new_gens = []
    for gen in M.generators:
        entries = {}
        for i, branch_shifts in enumerate(M.cover.shifts):
            rank = len(branch_shifts)
            p = branch_projection(gen, i, rank)
            for new_j, (row, col) in enumerate(bases[i]):
                if not p[row]:
                    continue
                pe, pc = p[row].terms[0]
                be, bc = col[row].terms[0]
                if pe < be:
                    raise ConsistencyError("projection not in branch module")
                q = UniPoly.monomial(field, pc / bc, pe - be)
                p = [a - q * b for a, b in zip(p, col)]
                entries[(i, new_j)] = q
            if any(p):
                raise ConsistencyError("projection not reduced to zero")
        new_gens.append(element_of(field, entries))
    return FreeCover(tuple(new_shifts)), new_gens


def _assert_embedding_matches_the_reference(M):
    Mc = M.canonical_embedding()
    cover, generators = reference_canonical_embedding(M)
    assert Mc.cover == cover
    assert Mc.generators == generators
    return Mc


CATALOG_LABELS = list(ADE_LABELS) + [
    "Y_%d_%d" % (m, n) for m in range(1, 11) for n in range(1, 11) if math.gcd(m, n) == 1
]


def test_canonical_embedding_matches_the_reference_on_every_catalog_fixture():
    count = 0
    for label in CATALOG_LABELS:
        entry = catalog_get(label)
        curve = entry.curve()
        for fx in fixture_modules(entry):
            Mc = _assert_embedding_matches_the_reference(fx.module(curve))
            _assert_embedding_matches_the_reference(Mc)
            count += 1
    assert count > 1000


def random_module(rng, curve):
    """Up to 3 slots per branch with shifts in 0..6, and 1 to 6 homogeneous
    generators of degree at most 12 with coefficients in {1, -1, 2}."""
    field = curve.field
    ranks = [rng.randint(0, 3) for _ in range(curve.r)]
    if not any(ranks):
        ranks[rng.randrange(curve.r)] = 1
    cover = FreeCover(tuple(tuple(rng.randint(0, 6) for _ in range(s)) for s in ranks))
    generators = []
    for _ in range(rng.randint(1, 6)):
        slots = []
        while not slots:
            w = rng.randint(0, 12)
            for i, j in cover.slots():
                delta, d_i = w - cover.shifts[i][j], curve.branches[i].t_degree
                if delta >= 0 and delta % d_i == 0:
                    slots.append((i, j, delta // d_i))
        generators.append(ModuleElement(field, {
            (i, j, e): field.from_rational(rng.choice((1, -1, 2)))
            for i, j, e in rng.sample(slots, rng.randint(1, len(slots)))
        }))
    return GradedSubmodule(curve, cover, generators)


# Y_3_2 and Y_5_3 have two branches over Q, D_4 three over Q(i), D_6 three
# over a quartic field.
@pytest.mark.parametrize("label", ["Y_3_2", "Y_5_3", "D_4", "D_6"])
def test_canonical_embedding_matches_the_reference_on_random_modules(label):
    curve = catalog_get(label).curve()
    for seed in range(60):
        M = random_module(random.Random(seed), curve)
        Mc = _assert_embedding_matches_the_reference(M)
        Mcc = Mc.canonical_embedding()
        assert Mcc.cover == Mc.cover, seed
        assert Mcc.generators == Mc.generators, seed


def test_condition_checks_on_the_fixture_cases():
    curve = y_family_curve(3, 2)
    M1 = case1_module(curve, 3).canonical_embedding()
    assert all(M1.check_C1().values())
    assert all(M1.check_C2().values())
    assert M1.check_C3() == (True, 0)
    M2 = case2_module(curve, 1).canonical_embedding()
    assert all(M2.check_C1().values())
    assert all(M2.check_C2().values())
    assert M2.check_C3() == (False, None)


def test_c1_depends_on_the_embedding():
    curve = y_family_curve(3, 2)
    M = GradedSubmodule(
        curve, FreeCover(((0,), ())), [_elem({(0, 0): (1, 1)})]
    )
    assert M.check_C1() == {(0, 0): False}
    Mc = M.canonical_embedding()
    assert Mc.cover.shifts == ((3,), ())
    assert Mc.check_C1() == {(0, 0): True}


def test_c2_failures_on_the_unstable_cusp_module():
    curve = cusp_curve()
    M = unstable_cusp_module(curve).canonical_embedding()
    c2 = M.check_C2()
    assert c2[(0, 0)] is False and c2[(0, 1)] is False
    c1 = M.check_C1()
    assert c1[(0, 0)] is True and c1[(0, 1)] is False
    assert M.check_C3() == (False, None)


def test_c2_undefined_for_smooth_curves():
    from qhc.curve import QuasiCurve
    from conftest import rational_poly

    line = QuasiCurve.create(
        QQ, rational_poly(QQ, {(1, 0): 1, (0, 1): -1}), (1, 1)
    )
    M = GradedSubmodule(line, FreeCover(((0,),)), [_elem({(0, 0): (1, 0)})])
    with pytest.raises(InputError, match="Frobenius"):
        M.check_C2()


def test_shift_round_trip():
    curve = y_family_curve(3, 2)
    M = case1_module(curve, 3)
    assert M.shifted(0).cover.shifts == M.cover.shifts
    back = M.shifted(5).shifted(-5)
    assert back.cover.shifts == M.cover.shifts
    assert back.weights == M.weights
    shifted = M.shifted(5)
    assert shifted.check_C3() == (True, 5)
    assert shifted.weights == [w + 5 for w in M.weights]


def test_graded_piece_monotone_under_extra_generators():
    curve = y_family_curve(3, 2)
    small = case1_module(curve, 3)
    big = GradedSubmodule(
        curve,
        small.cover,
        small.generators + [basis_element(curve, 0, 0, 2)],
    )
    for w in range(0, 10):
        assert len(small.graded_piece(w)) <= len(big.graded_piece(w))


# GradedSubmodule.check_C1 as it solved the branch-i projections of a basis
# of M_{f_ij} before it asked the projection module, kept as a reference.


def reference_check_C1(M):
    field = M.curve.field
    out = {}
    for i, j in M.cover.slots():
        w = M.cover.shifts[i][j]
        index = {slot: pos for pos, slot in enumerate(M._degree_slots(w))}
        rows = [pos for slot, pos in index.items() if slot[0] == i]
        coords = [[elem.coeffs.get(slot, field.zero()) for slot in index] for elem in M.graded_piece(w)]
        matrix = [[vec[pos] for vec in coords] for pos in rows]
        rhs = [field.zero()] * len(rows)
        rhs[rows.index(index[(i, j, 0)])] = field.one()
        out[(i, j)] = bool(coords) and reference_solve(matrix, rhs, field)[0] is not None
    return out


@pytest.mark.parametrize("label", list(ADE_LABELS) + ["Y_3_2", "Y_5_3", "Y_5_4"])
def test_check_C1_matches_the_reference(label):
    entry = catalog_get(label)
    curve = entry.curve()
    for fx in fixture_modules(entry):
        M = fx.module(curve)
        for module in (M, M.canonical_embedding()):
            assert module.check_C1() == reference_check_C1(module), (label, fx.name)


# (C1) as check_C1 once asked it: the branch-i projection of M built as a
# module of its own, on the cover with the other branches emptied and
# generated by the branch-i parts of the generators, and e_ij asked there.


def branch_projection_module(M, i):
    cover = FreeCover(tuple(s if k == i else () for k, s in enumerate(M.cover.shifts)))
    parts = [
        ModuleElement(M.curve.field, {key: c for key, c in g.coeffs.items() if key[0] == i})
        for g in M.generators
    ]
    return GradedSubmodule(M.curve, cover, [g for g in parts if g])


def projection_check_C1(M):
    out = {}
    for i, branch_shifts in enumerate(M.cover.shifts):
        projection = branch_projection_module(M, i)
        for j in range(len(branch_shifts)):
            out[(i, j)] = projection.is_member(basis_element(M.curve, i, j))
    return out


def _c1_variants(M):
    """M, its canonical embedding and two shifts of that; the shifts are
    taken after (C1) has built the canonical embedding's pieces, so they
    start with them."""
    Mc = M.canonical_embedding()
    yield "module", M
    yield "canonical", Mc
    Mc.check_C1()
    yield "shifted(2)", Mc.shifted(2)
    yield "shifted(-2)", Mc.shifted(-2)


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_check_C1_agrees_with_the_projection_module(label):
    entry = catalog_get(label)
    curve = entry.curve()
    for fx in fixture_modules(entry):
        for name, M in _c1_variants(fx.module(curve)):
            assert M.check_C1() == projection_check_C1(M), (label, fx.name, name)


@pytest.mark.parametrize("label", ["Y_3_2", "Y_5_3", "D_4", "D_6"])
def test_check_C1_agrees_with_the_projection_module_on_random_modules(label):
    curve = catalog_get(label).curve()
    answers = set()
    for seed in range(40):
        for name, M in _c1_variants(random_module(random.Random(seed), curve)):
            c1 = M.check_C1()
            assert c1 == projection_check_C1(M), (label, seed, name)
            answers.update(c1.values())
    assert answers == {True, False}, label


def _membership_variants(curve, M):
    """M, its canonical embedding, two shifts, the coordinate ring and the
    branch projections of M and of its canonical embedding."""
    Mc = M.canonical_embedding()
    yield "module", M
    yield "canonical", Mc
    yield "shifted(2)", M.shifted(2)
    yield "shifted(-2)", M.shifted(-2)
    yield "coordinate_ring", coordinate_ring(curve)
    for name, N in (("module", M), ("canonical", Mc)):
        for i in range(curve.r):
            yield "%s/projection(%d)" % (name, i), branch_projection_module(N, i)


def _membership_candidates(M, w, q, lam, rng):
    """Basis vectors, nabla_D images, random piece elements and cover
    monomials (with a piece element added) of degree w."""
    field = M.curve.field
    basis = M.graded_piece(w)
    images = [apply_nabla_D(M.curve, M.cover, v, q) for v in M.graded_piece(w - lam)]
    combos = []
    for _ in range(2):
        total = ModuleElement(field, {})
        for v in basis:
            total = total + v.scale(field.from_rational(rng.randint(-3, 3)))
        combos.append(total)
    monomials = []
    for i, j in M.cover.slots():
        delta = w - M.cover.shifts[i][j]
        d_i = M.curve.branches[i].t_degree
        if delta >= 0 and delta % d_i == 0:
            t = basis_element(M.curve, i, j, delta // d_i)
            monomials += [t, t + combos[0]]
    return basis + [v for v in images if v] + combos + monomials


@pytest.mark.parametrize("label", list(ADE_LABELS) + ["Y_3_2", "Y_5_3", "Y_5_4"])
def test_is_member_agrees_with_contains(label):
    entry = catalog_get(label)
    curve = entry.curve()
    q = q_element(curve)
    lam = curve.wf - curve.wx - curve.wy
    rng = random.Random(label)
    seen = set()
    for fx in fixture_modules(entry):
        for name, M in _membership_variants(curve, fx.module(curve)):
            for w in range(M.min_shift(), default_degree_bound(curve, M) + lam + 1):
                elimination = M._piece(w)[1]
                for v in _membership_candidates(M, w, q, lam, rng):
                    expected = M.contains(v) is not None
                    assert M.is_member(v) is expected, (label, fx.name, name, w, str(v))
                    seen.add((elimination.full, expected))
    # Full pieces answer yes at once; rank-deficient ones answer both ways.
    assert seen == {(True, True), (False, True), (False, False)}, label


def test_subtraction_negates_instead_of_scaling(rng):
    one = QQ.one()
    for _ in range(30):
        a = _elem({(rng.randint(0, 1), 0): (rng.randint(-5, 5), rng.randint(0, 4)) for _ in range(3)})
        b = _elem({(rng.randint(0, 1), 0): (rng.randint(-5, 5), rng.randint(0, 4)) for _ in range(3)})
        assert a - b == a + b.scale(-one)
        assert -b == b.scale(-one)
        assert -(-a) == a
        assert not (a - a)
        assert (a - b) + b == a


# ModuleElement as it was stored before the flat cover coordinates, a
# (branch, slot) -> UniPoly map with UniPoly arithmetic, kept as a reference.


class ReferenceElement:
    def __init__(self, field, entries):
        self.field = field
        self.entries = {k: v for k, v in entries.items() if v}

    def __eq__(self, other):
        return isinstance(other, ReferenceElement) and self.entries == other.entries

    def __add__(self, other):
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, UniPoly.zero(self.field)) + v
        return ReferenceElement(self.field, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ReferenceElement(self.field, {k: -v for k, v in self.entries.items()})

    def scale(self, c):
        return ReferenceElement(
            self.field, {k: UniPoly.make(self.field, {e: c * x for e, x in v.terms})
                         for k, v in self.entries.items()}
        )

    def act(self, vec):
        return ReferenceElement(
            self.field, {(i, j): vec[i] * p for (i, j), p in self.entries.items()}
        )

    def __str__(self):
        if not self.entries:
            return "0"
        return " + ".join(
            "(%s)*t^%d*e_%d%d" % (c, e, i + 1, j + 1)
            for (i, j), p in sorted(self.entries.items()) for e, c in p.terms
        )


def reference_degrees(curve, cover, v):
    return frozenset(
        cover.shifts[i][j] + e * curve.branches[i].t_degree
        for (i, j), p in v.entries.items() for e, _ in p.terms
    )


def _as_reference(v):
    return ReferenceElement(v.field, entries_of(v))


def _assert_matches(v, ref):
    assert isinstance(v, ModuleElement)
    assert all(v.coeffs.values()), "a zero coefficient is stored"
    assert entries_of(v) == ref.entries
    assert str(v) == str(ref)
    assert bool(v) == bool(ref.entries)


def _random_scalar(rng, field):
    return field.element([rng.randint(-3, 3) for _ in range(field.degree)])


def _random_homogeneous(rng, M, w):
    """A nonzero random combination of the basis of a nonempty M_w."""
    field = M.curve.field
    basis = M.graded_piece(w)
    while True:
        out = ModuleElement(field, {})
        for vec in basis:
            out = out + vec.scale(_random_scalar(rng, field))
        if out:
            return out


# D_4 is over Q(i), E_6 over Q(zeta8), Y_5_3 over Q.
DIFFERENTIAL_LABELS = ["D_4", "E_6", "Y_5_3"]


@pytest.mark.parametrize("label", DIFFERENTIAL_LABELS)
def test_flat_coordinates_match_the_unipoly_reference(label, rng):
    entry = catalog_get(label)
    curve = entry.curve()
    field = curve.field
    # x^{w_y} + 2 y^{w_x}: two monomials of one degree, so one term per branch.
    h = BiPoly.make(field, {(curve.wy, 0): field.one(), (0, curve.wx): field.from_rational(2)})
    image, reference = curve.normalization_image(h), reference_image(curve, h)
    assert any(t is not None for t in image)
    for fx in fixture_modules(entry):
        for M in (fx.module(curve), fx.module(curve).canonical_embedding()):
            cover = M.cover
            degrees = [w for w in range(M.min_shift(), M.min_shift() + 12) if M.graded_piece(w)]
            assert len(degrees) > 1
            for _ in range(12):
                wa, wb = rng.sample(degrees, 2)
                a = _random_homogeneous(rng, M, wa)
                b = _random_homogeneous(rng, M, rng.choice(degrees))
                mixed = a + _random_homogeneous(rng, M, wb)
                assert len(element_degrees(curve, cover, mixed)) == 2
                for v in (a, b, mixed):
                    assert ModuleElement(field, v.coeffs) == v
                    assert element_of(field, entries_of(v)) == v
                    _assert_matches(v, _as_reference(v))
                ra, rb, rm = _as_reference(a), _as_reference(b), _as_reference(mixed)
                c = _random_scalar(rng, field)
                _assert_matches(a + b, ra + rb)
                _assert_matches(mixed + a, rm + ra)
                _assert_matches(a - b, ra - rb)
                _assert_matches(mixed - b, rm - rb)
                _assert_matches(-mixed, -rm)
                _assert_matches(mixed.scale(c), rm.scale(c))
                _assert_matches(a.scale(field.zero()), ra.scale(field.zero()))
                assert not a.scale(field.zero()).coeffs
                xe, ye = rng.randint(0, 3), rng.randint(0, 3)
                mono = curve.monomial_image(xe, ye)
                _assert_matches(mixed.act(curve.monomial_terms(xe, ye)), rm.act(mono))
                _assert_matches(a.act(image), ra.act(reference))
                _assert_matches(mixed.act(image), rm.act(reference))
                assert (a == b) == (ra == rb)
                assert (a == mixed) == (ra == rm)
                assert a == a.scale(field.one())
                for v, rv in ((a, ra), (mixed, rm)):
                    assert element_degrees(curve, cover, v) == reference_degrees(curve, cover, rv)


def test_no_zero_coefficient_survives_cancellation():
    one = QQ.one()
    v = ModuleElement(QQ, {(0, 0, 0): one, (0, 0, 1): one, (1, 0, 2): one})
    assert not (v + (-v)).coeffs and not (v - v).coeffs
    w = ModuleElement(QQ, {(0, 0, 1): -one})
    assert (v + w).coeffs == {(0, 0, 0): one, (1, 0, 2): one}
    assert (v - ModuleElement(QQ, {(1, 0, 2): one})).coeffs == {(0, 0, 0): one, (0, 0, 1): one}
    # A None branch image empties that branch.
    assert v.act((None, (one, 1))).coeffs == {(1, 0, 3): one}
    # The constructor drops zero coefficients.
    assert ModuleElement(QQ, {(0, 0, 0): QQ.zero()}).coeffs == {}


def test_constructor_copies_and_checks_its_coordinates():
    two = QQ.from_rational(2)
    coeffs = {(0, 0, 1): two, (1, 0, 0): QQ.one(), (1, 0, 4): QQ.zero()}
    v = ModuleElement(QQ, coeffs)
    assert v.coeffs == {(0, 0, 1): two, (1, 0, 0): QQ.one()}
    assert v == _elem({(0, 0): (2, 1), (1, 0): (1, 0)})
    coeffs[(0, 0, 1)] = QQ.one()
    assert v.coeffs[(0, 0, 1)] == two
    assert str(v) == "(2)*t^1*e_11 + (1)*t^0*e_21"
    assert str(ModuleElement(QQ, {})) == "0"
    with pytest.raises(AttributeError):
        v.degree = 3
    # A negative exponent is rejected, with a zero coefficient too.
    for c in (QQ.one(), QQ.zero()):
        with pytest.raises(InputError, match="negative exponent in k\\[t\\]"):
            ModuleElement(QQ, {(0, 0, 0): QQ.one(), (1, 0, -1): c})


@pytest.mark.parametrize(
    "make_curve", [lambda: y_family_curve(3, 2), lambda: catalog_get("D_4").curve()],
    ids=["QQ", "Qi"],
)
def test_nabla_of_zero_and_of_degree_zero_is_zero(make_curve):
    curve = make_curve()
    field = curve.field
    cover = FreeCover(tuple((0,) for _ in range(curve.r)))
    q = q_element(curve)
    zero = ModuleElement(field, {})
    degree_zero = ModuleElement(field, {(i, 0, 0): field.from_rational(i + 1) for i in range(curve.r)})
    assert element_degree(curve, cover, degree_zero) == 0
    for v in (zero, degree_zero):
        assert apply_nabla_E(curve, cover, v) == zero
        assert apply_nabla_D(curve, cover, v, q) == zero
        assert not apply_nabla_D(curve, cover, v, q).coeffs
    # A degree-0 component of a mixed element is dropped, the rest is scaled.
    t1 = basis_element(curve, 0, 0, 1)
    w1 = element_degree(curve, cover, t1)
    assert apply_nabla_E(curve, cover, degree_zero + t1) == t1.scale(field.from_rational(w1))


# -- the conductor bound -------------------------------------------------------


def _kappa(curve):
    return tuple(gamma_formula(curve, i).conductor for i in range(curve.r))


def _expected_full_from(M, kappa):
    return max(
        f_ij + kappa[i] * M.curve.branches[i].t_degree
        for i, row in enumerate(M.cover.shifts)
        for f_ij in row
    )


def _bounded_variants(M):
    """The canonical embedding of M and two shifts of it."""
    Mc = M.canonical_embedding()
    return [("canonical", Mc), ("shifted(3)", Mc.shifted(3)), ("shifted(-2)", Mc.shifted(-2))]


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_pieces_from_full_from_on_are_full(label):
    entry = catalog_get(label)
    curve = entry.curve()
    kappa = _kappa(curve)
    span = 2 * max(curve.wx, curve.wy)
    for fx in fixture_modules(entry):
        for name, M in _bounded_variants(fx.module(curve)):
            assert M.conductor == kappa, (label, fx.name, name)
            full_from = _expected_full_from(M, kappa)
            for w in range(full_from, full_from + span + 1):
                slots = M._degree_slots(w)
                assert len(M.graded_piece(w)) == len(slots) > 0, (label, fx.name, name, w)
                assert M.piece_basis(w) == [basis_element(curve, *key) for key in slots]


def _straddling_candidates(M, w, rng):
    """Random combinations of the degree-w cover monomials (each may lie
    below the conductor), a piece element, and their sums."""
    field = M.curve.field
    monomials = [basis_element(M.curve, *key) for key in M._degree_slots(w)]
    out = []
    for _ in range(3):
        total = ModuleElement(field, {})
        for t in rng.sample(monomials, rng.randint(0, len(monomials))):
            total = total + t.scale(field.from_rational(rng.choice((-3, -1, 1, 2))))
        out.append(total)
    piece = ModuleElement(field, {})
    for v in M.graded_piece(w):
        piece = piece + v.scale(field.from_rational(rng.randint(-3, 3)))
    return out + monomials + [piece] + [piece + t for t in out]


@pytest.mark.parametrize("label", list(ADE_LABELS) + ["Y_3_2", "Y_5_3", "Y_5_4", "Y_7_4"])
def test_conductor_shortcut_agrees_with_elimination(label):
    # The same generators on the same cover with no bound answer by
    # elimination alone; the candidates straddle full_from, and the (C2)
    # targets t_i^(kappa_i - 1) e_ij sit just below the conductor.
    entry = catalog_get(label)
    curve = entry.curve()
    rng = random.Random(label)
    span = 2 * max(curve.wx, curve.wy)
    tally = {"shortcut": 0, "yes": 0, "no": 0}
    modules = [fx.module(curve) for fx in fixture_modules(entry)] + [coordinate_ring(curve)]
    for M0 in modules:
        for name, M in _bounded_variants(M0):
            plain = GradedSubmodule(curve, M.cover, M.generators)
            assert plain.conductor is None
            candidates = [
                basis_element(curve, i, j, M.conductor[i] - 1) for i, j in M.cover.slots()
            ]
            full_from = _expected_full_from(M, M.conductor)
            for w in range(full_from - span, full_from + span + 1):
                candidates += _straddling_candidates(M, w, rng)
            for v in candidates:
                expected = plain.is_member(v)
                assert M.is_member(v) is expected, (label, name, str(v))
                if v and all(e >= M.conductor[i] for i, _, e in v.coeffs):
                    tally["shortcut"] += 1
                tally["yes" if expected else "no"] += 1
    assert min(tally.values()) > 0, tally


def test_the_shortcut_still_rejects_a_mixed_element():
    curve = y_family_curve(3, 2)
    M = case1_module(curve, 1).canonical_embedding()
    far = M.conductor[0] + 5
    mixed = basis_element(curve, 0, 0, far) + basis_element(curve, 0, 0, far + 1)
    with pytest.raises(InputError, match="not homogeneous"):
        M.is_member(mixed)


@pytest.mark.parametrize("label", list(ADE_LABELS) + ["Y_3_2", "Y_5_3", "Y_5_4"])
def test_only_canonical_embeddings_carry_the_bound(label):
    # coordinate_ring answers gamma_oracle, the check of gamma_formula; a
    # bound read from gamma_formula there would make the oracle agree by
    # construction.
    entry = catalog_get(label)
    curve = entry.curve()
    ring = coordinate_ring(curve)
    assert ring.conductor is None
    for fx in fixture_modules(entry):
        M = fx.module(curve)
        assert M.conductor is None
        assert M.shifted(1).conductor is None
    for i in range(curve.r):
        gamma = gamma_formula(curve, i)
        bound = gamma.conductor + 10
        assert gamma_oracle(curve, i, bound) == gamma.members_upto(bound)


def test_the_bound_needs_projections_that_generate_the_cover():
    curve = cusp_curve()
    M = GradedSubmodule(curve, FreeCover(((0,),)), [_elem({(0, 0): (1, 2)})])
    with pytest.raises(ConsistencyError, match="does not generate its cover"):
        M._bound_by_conductor()
    Mc = M.canonical_embedding()
    assert Mc.cover == FreeCover(((2,),))
    assert Mc.conductor == _kappa(curve)


def _in_the_conductor(M, w):
    """Whether every key (i, j, e) of the degree-w cover piece has e >= kappa_i."""
    return all(e >= M.conductor[i] for i, _, e in M._degree_slots(w))


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_verify_builds_no_piece_inside_the_conductor(label, monkeypatch):
    # Below full_from a piece can still lie inside the conductor; piece_basis
    # gives its unit vectors there too, so verify_properties eliminates none.
    entry = catalog_get(label)
    curve = entry.curve()
    asked = []
    piece = GradedSubmodule._piece

    def recording_piece(self, w):
        asked.append((self, w))
        return piece(self, w)

    monkeypatch.setattr(GradedSubmodule, "_piece", recording_piece)
    for fx in fixture_modules(entry):
        report = natural_connection(curve, fx.module(curve))
        if not report.succeeded:
            continue
        M = report.module
        asked.clear()
        verify_properties(curve, report, samples=5, seed=0)
        assert not [w for N, w in asked if N is M and _in_the_conductor(M, w)], (label, fx.name)
        for w in range(M.min_shift(), default_degree_bound(curve, M) + 1):
            assert len(M.piece_basis(w)) == len(M.graded_piece(w)), (label, fx.name, w)
