"""Graded submodules of free covers: pieces, membership, embedding, conditions."""

from fractions import Fraction

import pytest

from qhc.catalog import ADE_LABELS, catalog_get, fixture_modules
from qhc.connection import apply_nabla_D, apply_nabla_E
from qhc.derivation import q_element
from qhc.errors import InputError
from qhc.field import QQ
from qhc.module import (
    FreeCover,
    GradedSubmodule,
    ModuleElement,
    basis_element,
    element_degree,
    element_degrees,
    homogeneous_components,
)
from qhc.poly import BiPoly, UniPoly

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
            "(%s)*e_%d%d" % (p, i + 1, j + 1)
            for (i, j), p in sorted(self.entries.items())
        )


def reference_degrees(curve, cover, v):
    return frozenset(
        cover.shifts[i][j] + e * curve.branches[i].t_degree
        for (i, j), p in v.entries.items() for e, _ in p.terms
    )


def reference_components(curve, cover, v):
    comps = {}
    for (i, j), p in v.entries.items():
        for e, c in p.terms:
            w = cover.shifts[i][j] + e * curve.branches[i].t_degree
            slot = comps.setdefault(w, {})
            mono = UniPoly.monomial(curve.field, c, e)
            slot[(i, j)] = slot.get((i, j), UniPoly.zero(curve.field)) + mono
    return {w: ReferenceElement(curve.field, d) for w, d in sorted(comps.items())}


def _as_reference(v):
    return ReferenceElement(v.field, v.entries)


def _assert_matches(v, ref):
    assert isinstance(v, ModuleElement)
    assert all(v.coeffs.values()), "a zero coefficient is stored"
    assert v.entries == ref.entries
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
    x_plus_y_plus_one = BiPoly.make(field, {(0, 0): field.one(), (1, 0): field.one(), (0, 1): field.one()})
    general = curve.normalization_image(x_plus_y_plus_one)
    assert any(len(p.terms) > 1 for p in general)
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
                    assert ModuleElement(field, v.entries) == v
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
                _assert_matches(mixed.act(mono), rm.act(mono))
                _assert_matches(a.act(general), ra.act(general))
                _assert_matches(mixed.act(general), rm.act(general))
                assert (a == b) == (ra == rb)
                assert (a == mixed) == (ra == rm)
                assert a == a.scale(field.one())
                for v, rv in ((a, ra), (mixed, rm)):
                    assert element_degrees(curve, cover, v) == reference_degrees(curve, cover, rv)
                    comps = homogeneous_components(curve, cover, v)
                    ref = reference_components(curve, cover, rv)
                    assert list(comps) == list(ref)
                    for w in comps:
                        _assert_matches(comps[w], ref[w])
                assert homogeneous_components(curve, cover, a) == {element_degree(curve, cover, a): a}


def test_no_zero_coefficient_survives_cancellation():
    curve = y_family_curve(3, 2)
    one = QQ.one()
    v = ModuleElement(QQ, {(0, 0): _t(0) + _t(1), (1, 0): _t(2)})
    assert not (v + (-v)).coeffs and not (v - v).coeffs
    w = ModuleElement(QQ, {(0, 0): _t(1, -1)})
    assert (v + w).coeffs == {(0, 0, 0): one, (1, 0, 2): one}
    assert (v - ModuleElement(QQ, {(1, 0): _t(2)})).coeffs == {(0, 0, 0): one, (0, 0, 1): one}
    # (1 + t) * (1 - t) = 1 - t^2: the t term cancels in the convolution.
    image = [_t(0) - _t(1), _t(0) + _t(3)]
    prod = v.act(image)
    assert prod.coeffs == {(0, 0, 0): one, (0, 0, 2): -one, (1, 0, 2): one, (1, 0, 5): one}
    assert prod.entries == ReferenceElement(QQ, v.entries).act(image).entries
    # A zero branch image empties that branch.
    assert v.act([UniPoly.zero(QQ), _t(1)]).coeffs == {(1, 0, 3): one}
    # The constructor drops zero polynomials.
    assert ModuleElement(QQ, {(0, 0): UniPoly.zero(QQ)}).coeffs == {}
    assert not homogeneous_components(curve, FreeCover(((0,), (0,))), v + (-v))


def test_entries_is_a_read_only_view():
    v = _elem({(0, 0): (2, 1), (1, 0): (1, 0)})
    assert v.entries == {(0, 0): _t(1, 2), (1, 0): _t(0)}
    v.entries[(0, 0)] = _t(5)
    assert v.entries[(0, 0)] == _t(1, 2)
    with pytest.raises(AttributeError):
        v.entries = {}
    with pytest.raises(AttributeError):
        v.degree = 3


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
    degree_zero = ModuleElement(field, {
        (i, 0): UniPoly.monomial(field, field.from_rational(i + 1), 0) for i in range(curve.r)
    })
    assert element_degree(curve, cover, degree_zero) == 0
    for v in (zero, degree_zero):
        assert apply_nabla_E(curve, cover, v) == zero
        assert apply_nabla_D(curve, cover, v, q) == zero
        assert not apply_nabla_D(curve, cover, v, q).coeffs
    # A degree-0 component of a mixed element is dropped, the rest is scaled.
    t1 = basis_element(curve, 0, 0, 1)
    w1 = element_degree(curve, cover, t1)
    assert apply_nabla_E(curve, cover, degree_zero + t1) == t1.scale(field.from_rational(w1))
