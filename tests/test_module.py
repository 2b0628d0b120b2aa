"""Graded submodules of free covers: pieces, membership, embedding, conditions."""

from fractions import Fraction

import pytest

from qhc.catalog import ADE_LABELS, catalog_get, fixture_modules
from qhc.errors import InputError
from qhc.field import QQ
from qhc.module import (
    FreeCover,
    GradedSubmodule,
    ModuleElement,
    basis_element,
    element_degree,
    homogeneous_components,
)
from qhc.poly import UniPoly

from conftest import cusp_curve, y_family_curve
from test_linalg import reference_solve


def _t(exp, coeff=1):
    return UniPoly.monomial(QQ, QQ.from_rational(Fraction(coeff)), exp)


def _elem(entries):
    return ModuleElement(QQ, {k: _t(e, c) for k, (c, e) in entries.items()})


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
    comps = homogeneous_components(curve, cover, mixed)
    assert sorted(comps) == [0, 3]
    assert comps[0] + comps[3] == mixed
    # a homogeneous element is its own single component; zero has none
    assert homogeneous_components(curve, cover, v) == {3: v}
    assert homogeneous_components(curve, cover, ModuleElement(QQ, {})) == {}


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
        v = gen.act(curve.monomial_image(a, b))
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
        index, basis, _ = M._piece(M.cover.shifts[i][j])
        rows = [pos for slot, pos in index.items() if slot[0] == i]
        coords = [M._coords(elem, index) for _, _, elem in basis]
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
