"""The natural graded integrable connection and its verification."""

import json
import random
import re
from fractions import Fraction

import pytest

from qhc import connection, io, linalg, semigroup
from qhc.catalog import ADE_LABELS, catalog_get, fixture_modules
from qhc.connection import (
    ConnectionReport,
    apply_nabla_D,
    apply_nabla_E,
    check_stability,
    default_degree_bound,
    natural_connection,
    verify_properties,
)
from qhc.derivation import q_element
from qhc.errors import ConsistencyError, InputError
from qhc.field import QQ, FieldElement
from qhc.module import (
    FreeCover,
    GradedSubmodule,
    ModuleElement,
    coordinate_ring,
    element_degree,
)
from qhc.poly import UniPoly

from conftest import cusp_curve, y_family_curve
from test_module import CATALOG_LABELS, _in_the_conductor, case1_module, case2_module, element_of, entries_of, reference_canonical_embedding, unstable_cusp_module
from test_terms import reference_act


def _elem(entries):
    return ModuleElement(
        QQ, {(i, j, e): QQ.from_rational(Fraction(c)) for (i, j), (c, e) in entries.items()}
    )


def test_nabla_e_scales_by_weight():
    curve = y_family_curve(3, 2)
    cover = FreeCover(((0,), (0,)))
    v0 = _elem({(0, 0): (1, 0), (1, 0): (1, 0)})  # degree 0
    assert not apply_nabla_E(curve, cover, v0)
    v3 = _elem({(1, 0): (1, 3)})
    assert apply_nabla_E(curve, cover, v3) == _elem({(1, 0): (3, 3)})
    mixed = v0 + v3
    assert apply_nabla_E(curve, cover, mixed) == _elem({(1, 0): (3, 3)})


def test_nabla_d_on_the_fixture_module():
    curve = y_family_curve(3, 2)
    cover = FreeCover(((0,), (0,)))
    q = q_element(curve)
    assert not apply_nabla_D(curve, cover, _elem({(0, 0): (1, 0), (1, 0): (1, 0)}), q)
    image = apply_nabla_D(curve, cover, _elem({(1, 0): (1, 3)}), q)
    assert image == _elem({(1, 0): (-3, 6)})


def test_nabla_d_products_are_kept_per_q():
    # The w*c_i products are kept on the curve: a q with other c_i on the
    # same branches and degrees, asked after the real one, reads its own.
    curve = y_family_curve(3, 2)
    cover = FreeCover(((0,), (0,)))
    q = q_element(curve)
    v = _elem({(0, 0): (2, 1), (1, 0): (1, 3)})
    real = apply_nabla_D(curve, cover, v, q)
    assert real == reference_nabla_D(curve, cover, v, q)
    two = curve.field.from_rational(2)
    mutated = tuple((two * c, g) for c, g in q)
    image = apply_nabla_D(curve, cover, v, mutated)
    assert image == reference_nabla_D(curve, cover, v, mutated)
    assert image == real.scale(two) and image != real
    assert apply_nabla_D(curve, cover, v, q) == real


def test_nabla_d_raises_degree_by_the_koszul_weight():
    from qhc.module import element_degree

    curve = y_family_curve(5, 2)
    cover = FreeCover(((0,), (0,)))
    q = q_element(curve)
    lam = curve.wf - curve.wx - curve.wy
    v = _elem({(1, 0): (1, 5)})
    image = apply_nabla_D(curve, cover, v, q)
    assert element_degree(curve, cover, image) == 5 + lam


def test_stability_of_the_fixture_cases():
    curve = y_family_curve(3, 2)
    q = q_element(curve)
    for M in (case1_module(curve, 3), case2_module(curve, 1)):
        Mc = M.canonical_embedding()
        stable, images = check_stability(Mc, q)
        assert stable
        assert len(images) == len(Mc.generators)
        assert all(Mc.contains(img) is not None for img in images)


def test_unstable_module_is_detected():
    curve = cusp_curve()
    q = q_element(curve)
    M = unstable_cusp_module(curve)
    stable, images = check_stability(M, q)
    assert not stable
    assert any(M.contains(img) is None for img in images)


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_witnesses_are_solved_only_when_read(label, monkeypatch):
    solves = []
    solve = linalg.Elimination.solve

    def counting_solve(self, rhs):
        solves.append(rhs)
        return solve(self, rhs)

    monkeypatch.setattr(linalg.Elimination, "solve", counting_solve)
    entry = catalog_get(label)
    curve = entry.curve()
    reports = []
    for fx in fixture_modules(entry):
        report = natural_connection(curve, fx.module(curve))
        if report.succeeded:
            verify_properties(curve, report, samples=5, seed=0)
        reports.append(report)
    assert not solves, label
    for report in reports:
        M = report.module
        fresh = GradedSubmodule(curve, M.cover, M.generators)
        eager = [fresh.contains(img) for img in report.images]
        witnesses = report.witnesses
        assert witnesses == eager, label
        assert report.witnesses is witnesses
        for img, wit in zip(report.images, witnesses):
            assert (wit is None) is (not M.is_member(img))
            if wit is not None:
                assert M.replay_witness(wit) == img
    # One solve per nonzero image for the eager list and one for the read.
    nonzero = sum(1 for report in reports for img in report.images if img)
    assert len(solves) == 2 * nonzero, label


def test_witnesses_cannot_be_set():
    curve = y_family_curve(3, 2)
    report = natural_connection(curve, case1_module(curve, 3))
    with pytest.raises(AttributeError):
        report.witnesses = []


def test_connection_takes_the_c2_path_on_fixture_cases():
    curve = y_family_curve(3, 2)
    for h, make in ((1, case1_module), (3, case1_module), (1, case2_module)):
        if make is case2_module and h != 1:
            continue
        report = natural_connection(curve, make(curve, h))
        assert report.path == "C2-path"
        assert report.succeeded
        assert all(report.c1.values()) and all(report.c2.values())
        for img, wit in zip(report.images, report.witnesses):
            assert wit is not None
            assert report.module.replay_witness(wit) == img


def test_connection_takes_the_shift_path_on_free_cyclic_modules():
    curve = y_family_curve(3, 2)
    M = GradedSubmodule(
        curve,
        FreeCover(((4,), (4,))),
        [_elem({(0, 0): (1, 0), (1, 0): (1, 0)})],
    )
    report = natural_connection(curve, M)
    assert report.path == "C3-shift-path"
    assert report.lam == 4
    assert report.module.cover.shifts == ((0,), (0,))
    # a weight-zero generator maps to zero under the shifted connection
    assert not report.images[0]


def test_connection_reports_failure_on_the_unstable_module():
    curve = cusp_curve()
    report = natural_connection(curve, unstable_cusp_module(curve))
    assert report.path == "none"
    assert not report.succeeded
    assert report.c1 == {(0, 0): True, (0, 1): False}
    assert not any(report.c2.values())
    assert report.c3 == (False, None)
    with pytest.raises(InputError):
        verify_properties(curve, report, samples=1)


def test_verify_properties_counts_and_exactness():
    curve = y_family_curve(3, 2)
    report = natural_connection(curve, case1_module(curve, 3))
    counts = verify_properties(curve, report, samples=50, seed=1)
    assert counts["leibniz"] > 0
    assert counts["graded"] > 0
    assert counts["integrable"] == counts["graded"]
    assert report.verification == counts
    for bounds in ({"samples": -3}, {"degree_bound": -5}):
        with pytest.raises(InputError, match="nonnegative"):
            verify_properties(curve, report, **bounds)


def test_verify_properties_below_the_module_degrees_checks_nothing():
    # Generators t^0 e_1 and t^1 e_1 on the shift 10 of the cusp: every
    # degree is at least 10, so a bound of 5 leaves no degree to draw from.
    curve = cusp_curve()
    one = curve.field.one()
    gens = [ModuleElement(curve.field, {(0, 0, e): one}) for e in (0, 1)]
    report = natural_connection(curve, GradedSubmodule(curve, FreeCover(((10,),)), gens))
    assert report.path == "C2-path"
    assert connection._random_module_element(random.Random(0), report.module, 5) is None
    counts = verify_properties(curve, report, degree_bound=5, samples=3)
    assert counts == {"leibniz": 0, "graded": 0, "integrable": 0}


def test_verify_properties_is_seed_reproducible():
    curve = y_family_curve(3, 2)
    report = natural_connection(curve, case1_module(curve, 1))
    c1 = verify_properties(curve, report, samples=30, seed=42)
    c2 = verify_properties(curve, report, samples=30, seed=42)
    assert c1 == c2


def test_default_degree_bound_covers_images():
    curve = y_family_curve(3, 2)
    M = case1_module(curve, 3)
    bound = default_degree_bound(curve, M)
    lam = curve.wf - curve.wx - curve.wy
    assert bound >= max(M.weights) + lam


def test_reports_are_deterministic():
    curve = y_family_curve(3, 2)

    def render():
        report = natural_connection(curve, case1_module(curve, 3))
        payload = {
            "path": report.path,
            "module": io.module_to_json(report.module),
            "images": [io.element_to_json(v) for v in report.images],
            "witnesses": [io.witness_to_json(w) for w in report.witnesses],
        }
        return json.dumps(payload, sort_keys=True)

    assert render() == render()


# The component-splitting operators that predate the homogeneous fast path,
# kept as references: every element is split monomial by monomial.


def reference_components(curve, cover, v):
    comps = {}
    for (i, j), p in entries_of(v).items():
        d_i = curve.branches[i].t_degree
        f_ij = cover.shifts[i][j]
        for e, c in p.terms:
            w = f_ij + e * d_i
            slot = comps.setdefault(w, {})
            mono = UniPoly.monomial(curve.field, c, e)
            slot[(i, j)] = slot.get((i, j), UniPoly.zero(curve.field)) + mono
    return {w: element_of(curve.field, d) for w, d in sorted(comps.items())}


def reference_nabla_E(curve, cover, v):
    out = ModuleElement(curve.field, {})
    for w, comp in reference_components(curve, cover, v).items():
        out = out + comp.scale(curve.field.from_rational(w))
    return out


def reference_nabla_D(curve, cover, v, q):
    qvec = [UniPoly.monomial(curve.field, c, e) for c, e in q]
    out = ModuleElement(curve.field, {})
    for w, comp in reference_components(curve, cover, v).items():
        out = out + reference_act(comp.scale(curve.field.from_rational(w)), qvec)
    return out


# Every ADE entry (over Q, Q(i), Q(zeta8), Q(zeta12)) and three Y entries.
FAST_PATH_LABELS = list(ADE_LABELS) + ["Y_3_2", "Y_5_3", "Y_5_4"]


@pytest.mark.parametrize("label", FAST_PATH_LABELS)
def test_nabla_operators_match_the_component_splitting_reference(label):
    entry = catalog_get(label)
    curve = entry.curve()
    q = q_element(curve)
    for fx in fixture_modules(entry):
        M = fx.module(curve)
        firsts = []
        for w in range(M.min_shift(), default_degree_bound(curve, M) + 1):
            basis = M.graded_piece(w)
            for vec in basis:
                assert apply_nabla_E(curve, M.cover, vec) == reference_nabla_E(curve, M.cover, vec)
                assert apply_nabla_D(curve, M.cover, vec, q) == reference_nabla_D(
                    curve, M.cover, vec, q
                )
            if basis:
                firsts.append(basis[0])
        assert len(firsts) > 1
        # Mixed-degree sums: consecutive pairs and the sum over all degrees.
        mixed = [a + b for a, b in zip(firsts, firsts[1:])]
        total = ModuleElement(curve.field, {})
        for vec in firsts:
            total = total + vec
        for v in mixed + [total]:
            assert apply_nabla_E(curve, M.cover, v) == reference_nabla_E(curve, M.cover, v)
            assert apply_nabla_D(curve, M.cover, v, q) == reference_nabla_D(curve, M.cover, v, q)


def test_verify_properties_catches_an_image_outside_the_module():
    curve = cusp_curve()
    report = natural_connection(curve, unstable_cusp_module(curve))
    assert report.path == "none"
    report.path = "direct-stability"
    with pytest.raises(ConsistencyError, match="nabla_D leaves the module"):
        verify_properties(curve, report, samples=5)


def test_verify_properties_catches_a_q_of_the_wrong_degree(monkeypatch):
    curve = y_family_curve(3, 2)
    report = natural_connection(curve, case1_module(curve, 3))
    real = q_element(curve)
    raised = tuple((c, e + 1) for c, e in real)
    monkeypatch.setattr(connection, "q_element", lambda c: raised)
    with pytest.raises(ConsistencyError, match="nabla_D does not raise degree"):
        verify_properties(curve, report, samples=0)


def mixed_nabla_D(real):
    """nabla_D with a second degree added to each nonzero image: a fault of
    the operator, whatever the module."""

    def mixed(curve, cover, v, q):
        out = real(curve, cover, v, q)
        if out:
            i, j, e = next(iter(out.coeffs))
            out = out + ModuleElement(curve.field, {(i, j, e + 1): curve.field.one()})
        return out

    return mixed


def test_a_mixed_nabla_D_image_is_a_consistency_error(monkeypatch):
    # Both the stability check of natural_connection and the gradedness loop
    # of verify_properties meet the image; neither calls it an input error.
    curve, M = _a2_normalization()
    report = natural_connection(curve, M)
    monkeypatch.setattr(connection, "apply_nabla_D", mixed_nabla_D(connection.apply_nabla_D))
    for call in (
        lambda: natural_connection(curve, M),
        lambda: verify_properties(curve, report, samples=0),
    ):
        with pytest.raises(ConsistencyError, match=r"nabla_D image is not homogeneous: degrees \[\d+, \d+\]"):
            call()


# -- mutants of nabla_E that the degree sweep of verify_properties must catch --

MUTANT_LABELS = ["Y_3_2", "D_4", "E_6"]  # over Q, Q(i) and Q(zeta8)


def _first_fixture_report(label):
    entry = catalog_get(label)
    curve = entry.curve()
    report = natural_connection(curve, fixture_modules(entry)[0].module(curve))
    assert report.succeeded
    return curve, report


@pytest.mark.parametrize("label", MUTANT_LABELS)
def test_verify_properties_catches_nabla_E_scaling_by_w_plus_one(monkeypatch, label):
    curve, report = _first_fixture_report(label)

    def off_by_one(curve, cover, v):
        out = ModuleElement(curve.field, {})
        for w, comp in reference_components(curve, cover, v).items():
            out = out + comp.scale(curve.field.from_rational(w + 1))
        return out

    monkeypatch.setattr(connection, "apply_nabla_E", off_by_one)
    with pytest.raises(ConsistencyError, match=r"nabla_E is not w\*id in degree"):
        verify_properties(curve, report, samples=0)


@pytest.mark.parametrize("label", MUTANT_LABELS)
def test_verify_properties_catches_nabla_E_wrong_only_above_the_bound(monkeypatch, label):
    # Only nabla_D images reach degrees above the bound, so the basis vectors
    # pass the nabla_E check and the commutator identity must fail instead.
    curve, report = _first_fixture_report(label)
    lam = curve.wf - curve.wx - curve.wy
    assert lam > 0
    bound = default_degree_bound(curve, report.module)
    assert verify_properties(curve, report, degree_bound=bound, samples=0)["integrable"] > 0
    real = connection.apply_nabla_E

    def wrong_above(curve, cover, v):
        out = real(curve, cover, v)
        if v and element_degree(curve, cover, v) > bound:
            return out + v
        return out

    monkeypatch.setattr(connection, "apply_nabla_E", wrong_above)
    with pytest.raises(ConsistencyError, match="commutator identity failed in degree") as err:
        verify_properties(curve, report, degree_bound=bound, samples=0)
    w = int(re.search(r"degree (-?\d+)", str(err.value)).group(1))
    assert w <= bound < w + lam


def free_square_module(curve):
    """A*(1, 1) + A*(1, -1) in two slots of shift 0 on every branch: after
    the canonical embedding the second generator is e_i1 - 2 e_i2 on each
    branch, so its multiples carry two keys of one degree on one branch."""
    fld = curve.field
    cover = FreeCover(((0, 0),) * curve.r)
    gens = [
        ModuleElement(fld, {(i, j, 0): fld.from_rational(c) for i in range(curve.r) for j, c in enumerate(cs)})
        for cs in ((1, 1), (1, -1))
    ]
    return GradedSubmodule(curve, cover, gens)


def test_canonical_embedding_reduces_each_branch_part_once(monkeypatch):
    # On each of D_4's three branches, free_square_module's second generator
    # is reduced once, at the pivot of the first slot, and both generators'
    # new coordinates are read off that reduction.  Reducing every branch
    # part again against the finished basis took four reductions a branch.
    curve = catalog_get("D_4").curve()
    M = free_square_module(curve)
    calls = []
    real = linalg.sub_multiple

    def counted(v, c, e):
        calls.append(c)
        return real(v, c, e)

    monkeypatch.setattr(linalg, "sub_multiple", counted)
    Mc = M.canonical_embedding()
    monkeypatch.undo()
    assert len(calls) == curve.r == 3
    assert (Mc.cover, Mc.generators) == reference_canonical_embedding(M)


def _product_allocations(monkeypatch):
    """One flag per field product made by natural_connection +
    verify_properties(samples=5, seed=0) on every D_4 (over Q(i)) and E_6
    (over Q(zeta8)) fixture and on free_square_module, curves built inside
    the count: whether the product allocated, i.e. its result is neither
    factor."""
    allocated = []
    real_mul = FieldElement.__mul__

    def counting_mul(a, b):
        result = real_mul(a, b)
        allocated.append(result is not a and result is not b)
        return result

    monkeypatch.setattr(FieldElement, "__mul__", counting_mul)
    for label in ("D_4", "E_6"):
        entry = catalog_get(label)
        curve = entry.curve()
        for M in [fx.module(curve) for fx in fixture_modules(entry)] + [free_square_module(curve)]:
            report = natural_connection(curve, M)
            assert report.succeeded
            verify_properties(curve, report, samples=5, seed=0)
    return allocated


def test_connect_and_verify_field_product_ceiling(monkeypatch):
    # The products of _product_allocations: 3503 when each call converted
    # its weights and the commutator took three scalings, 3322 with one,
    # 3290 since a witness is solved on the pivot rows, 2996 since a piece
    # is spanned by standard monomials only, 2257 since verification reads
    # the cover's unit vectors on pieces inside the conductor (kappa_i from
    # QuasiCurve.conductors).  free_square_module adds 1028 (3285).  2993
    # since nabla_D keeps each w*c_i on the curve: a memo that lived for
    # one call made 3285, as most calls get a single unit vector.  2805
    # since (C1) reads M's own pieces and a report solves witnesses when
    # read; 2675 since each conductor piece of a cover is checked once per
    # curve, so a fixture whose canonical cover an earlier one of the curve
    # had checks only the pieces off the conductor; 2545 since each
    # conductor unit vector is checked once per curve by its slot, shift
    # and exponent, whatever cover holds it; 2498 since canonical_embedding
    # reads each generator's new coordinates off its one column reduction
    # instead of reducing every branch part a second time.  A count, not a
    # time, so it does not depend on the machine.
    assert len(_product_allocations(monkeypatch)) <= 2498


def test_connect_and_verify_allocating_product_ceiling(monkeypatch):
    # Of the products above, those whose result is a new element: 1501.  A
    # product by one returns the other factor, so 1492 of them allocate
    # nothing; all did when every product built its result.  The factors
    # equal to one are mostly the coefficients of the conductor unit
    # vectors, of the generator (1, ..., 1) of A and of branch images.
    # 1412 since (C1) reads M's own pieces, 1360 with the conductor-piece
    # record of verify_properties, 1308 with that record kept per slot.
    assert sum(_product_allocations(monkeypatch)) <= 1308


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_connect_and_verify_build_no_semigroup(label, monkeypatch):
    # The conductor exponents kappa_i are read from QuasiCurve.conductors:
    # the modules, q and the degree bound rebuild no semigroup by sieve.
    entry = catalog_get(label)
    curve = entry.curve()
    modules = [fx.module(curve) for fx in fixture_modules(entry)]
    sieves = []
    real_sieve = semigroup.sg_from_generators

    def counting_sieve(gens):
        sieves.append(tuple(gens))
        return real_sieve(gens)

    monkeypatch.setattr(semigroup, "sg_from_generators", counting_sieve)
    for M in modules:
        report = natural_connection(curve, M)
        if report.succeeded:
            verify_properties(curve, report, samples=5, seed=0)
    assert sieves == []


def reference_random_module_element(rng, M, bound):
    """_random_module_element as it summed before: one ModuleElement sum,
    copying the partial sum, per basis vector."""
    lo = M.min_shift()
    for _ in range(20):
        w = rng.randint(lo, bound)
        basis = M.piece_basis(w)
        if not basis:
            continue
        out = ModuleElement(M.curve.field, {})
        for vec in basis:
            c = rng.randint(-3, 3)
            if c:
                out = out + vec.scale(M.curve.field.from_rational(c))
        if out:
            return out
    return None


@pytest.mark.parametrize("label", FAST_PATH_LABELS)
def test_random_module_element_matches_the_summing_reference(label):
    # The same element (or None) and the same generator state afterwards, at
    # the default bound and at the lowest degree alone.
    entry = catalog_get(label)
    curve = entry.curve()
    for fx in fixture_modules(entry):
        M = natural_connection(curve, fx.module(curve)).module
        for bound in (default_degree_bound(curve, M), M.min_shift()):
            for seed in range(6):
                fast, slow = random.Random(seed), random.Random(seed)
                for _ in range(4):
                    v = connection._random_module_element(fast, M, bound)
                    assert v == reference_random_module_element(slow, M, bound)
                    assert fast.getstate() == slow.getstate()


# -- the conductor-piece record of verify_properties ---------------------------

def _connect_and_verify(curve, fx, seed):
    report = natural_connection(curve, fx.module(curve))
    if not report.succeeded:
        return None, report
    return verify_properties(curve, report, samples=5, seed=seed), report


def _records(curve):
    return curve._derived.get("conductor_vectors", {})


def _entries(cover, keys):
    """The record entry (i, j, f_ij, e) of each cover key (i, j, e)."""
    return [(i, j, cover.shifts[i][j], e) for i, j, e in keys]


def _conductor_entries(M, top):
    """The entries of M's conductor unit vectors of degree at most top, in
    the order verify_properties checks them."""
    return [
        entry
        for w in range(M.min_shift(), top + 1)
        if M.conductor_slots(w) is not None
        for entry in _entries(M.cover, M.conductor_slots(w))
    ]


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_the_record_changes_no_count(label):
    # Three passes over the fixtures, each verify with its own fixed seed:
    # a fresh curve per fixture, whose record never hits, and one shared
    # curve in each of two shuffled orders.  Every count must agree.
    fixtures = fixture_modules(catalog_get(label))
    seeds = [7000 + k for k in range(len(fixtures))]
    fresh = [
        _connect_and_verify(catalog_get(label).curve(), fx, seed)[0]
        for fx, seed in zip(fixtures, seeds)
    ]
    for order_seed in (11, 12):
        order = list(range(len(fixtures)))
        random.Random(order_seed).shuffle(order)
        curve = catalog_get(label).curve()
        shared = [None] * len(fixtures)
        for k in order:
            shared[k] = _connect_and_verify(curve, fixtures[k], seeds[k])[0]
        assert shared == fresh, (label, order_seed)


@pytest.mark.parametrize("label", ["Y_5_4", "D_5", "E_7", "A_3"])
def test_the_record_holds_every_passed_conductor_piece_and_nothing_else(label):
    # After a pass on one curve, the one record, under the curve's bound, q
    # and the operators, holds exactly the conductor unit vectors (i, j,
    # f_ij, e) of the verified modules up to their default bounds.
    entry = catalog_get(label)
    curve = entry.curve()
    verified = []
    for k, fx in enumerate(fixture_modules(entry)):
        counts, report = _connect_and_verify(curve, fx, k)
        if counts is not None:
            verified.append(report.module)
    key = (curve.conductors, q_element(curve), apply_nabla_E, apply_nabla_D)
    records = _records(curve)
    assert list(records) == [key]
    expected = set()
    for M in verified:
        assert M.conductor == curve.conductors
        for w in range(M.min_shift(), default_degree_bound(curve, M) + 1):
            slots = M.conductor_slots(w)
            assert (slots is not None) == _in_the_conductor(M, w)
            if slots is not None:
                expected.update(_entries(M.cover, slots))
    assert expected and records[key] == expected, label


def test_a_second_verify_checks_no_conductor_piece_again(monkeypatch):
    # The same counts, with nabla_D applied again only off the conductor
    # pieces; the operator is wrapped before both calls, so one key serves.
    curve, report = _first_fixture_report("Y_5_4")
    M = report.module
    calls = []
    real = connection.apply_nabla_D

    def counted(curve, cover, v, q):
        calls.append(element_degree(curve, cover, v))
        return real(curve, cover, v, q)

    monkeypatch.setattr(connection, "apply_nabla_D", counted)
    first = verify_properties(curve, report, samples=0)
    calls.clear()
    assert verify_properties(curve, report, samples=0) == first
    assert calls and not [w for w in calls if M.conductor_slots(w) is not None]
    assert first["graded"] > len(calls)


def test_a_failing_conductor_piece_is_not_recorded(monkeypatch):
    # nabla_E goes wrong on the last unit vector of a conductor piece with
    # more than one: verify raises there, and the record holds the conductor
    # vectors checked before it, those of the lower conductor pieces and the
    # others of its own piece, and not the failing one.
    curve, report = _first_fixture_report("Y_5_4")
    M = report.module
    bound = default_degree_bound(curve, M)
    w0 = next(
        w for w in range(M.min_shift(), bound + 1)
        if M.conductor_slots(w) is not None and len(M.piece_basis(w)) > 1
    )
    last = M.piece_basis(w0)[-1]
    real = connection.apply_nabla_E

    def wrong_on_last(curve, cover, v):
        out = real(curve, cover, v)
        return out + v if v == last else out

    monkeypatch.setattr(connection, "apply_nabla_E", wrong_on_last)
    with pytest.raises(ConsistencyError, match="nabla_E is not w\\*id in degree %d$" % w0):
        verify_properties(curve, report, samples=0)
    record = connection._conductor_record(curve, M, q_element(curve))
    checked = _conductor_entries(M, w0)
    assert checked[-1] == _entries(M.cover, last.coeffs)[0]
    assert len(checked) > 2 and record == set(checked[:-1])


def test_a_slot_shared_with_another_cover_is_not_checked_again(monkeypatch):
    # Y_3_2's case1_h1 and case2_h1 land in the covers ((0,), (0,)) and
    # ((1,), (0,)): they share slot (1, 0) at shift 0, and slot (0, 0) has
    # another shift in each.  After case1_h1, the verify of case2_h1 applies
    # nabla_D to each of its conductor unit vectors that case1_h1 did not
    # record and to none that it did, with the counts of a fresh curve.
    fixtures = {fx.name: fx for fx in fixture_modules(catalog_get("Y_3_2"))}
    fresh_curve = catalog_get("Y_3_2").curve()
    fresh = verify_properties(
        fresh_curve,
        natural_connection(fresh_curve, fixtures["case2_h1"].module(fresh_curve)),
        samples=0,
    )
    curve = catalog_get("Y_3_2").curve()
    assert curve is not fresh_curve
    first, second = (
        natural_connection(curve, fixtures[name].module(curve)) for name in ("case1_h1", "case2_h1")
    )
    assert first.module.cover.shifts == ((0,), (0,))
    assert second.module.cover.shifts == ((1,), (0,))
    calls = []
    real = connection.apply_nabla_D

    def counted(curve, cover, v, q):
        calls.extend(_entries(cover, v.coeffs))
        return real(curve, cover, v, q)

    monkeypatch.setattr(connection, "apply_nabla_D", counted)
    verify_properties(curve, first, samples=0)
    recorded = set(connection._conductor_record(curve, first.module, q_element(curve)))
    calls.clear()
    assert verify_properties(curve, second, samples=0) == fresh
    M = second.module
    conductor = set(_conductor_entries(M, default_degree_bound(curve, M)))
    shared, unshared = conductor & recorded, conductor - recorded
    assert {(i, j) for i, j, _, _ in shared} == {(1, 0)}
    # Slot (0, 0) is left: its keys meet exponents case1_h1 recorded, at
    # shift 0, so only the shift tells the two vectors apart.
    assert {(i, j) for i, j, _, _ in unshared} == {(0, 0)}
    assert {e for _, _, _, e in unshared} & {e for i, _, _, e in recorded if i == 0}
    assert not shared & set(calls)
    assert unshared <= set(calls)


def test_a_vector_whose_image_the_bound_does_not_decide_is_not_recorded(monkeypatch):
    # The cusp's normalization squared on the cover ((0, 3),): degree 2 is a
    # conductor piece, its one key (0, 0, 2) has e >= kappa = 2, but degree
    # 3 = 2 + lam holds e_12 = (0, 1, 0), below the bound.  An operator that
    # adds e_12 to nabla_D of that unit vector keeps the image in M, which
    # M's own piece decides: the vector passes, is not recorded, and the
    # next verify checks it again.
    curve = cusp_curve()
    fld = curve.field
    one = fld.one()
    gens = [ModuleElement(fld, {(0, j, e): one}) for j in (0, 1) for e in (0, 1)]
    report = natural_connection(curve, GradedSubmodule(curve, FreeCover(((0, 3),)), gens))
    M = report.module
    assert report.path == "C2-path" and M.cover.shifts == ((0, 3),)
    assert M.conductor_slots(2) == [(0, 0, 2)] and M.conductor_slots(3) is None
    e12 = ModuleElement(fld, {(0, 1, 0): one})
    assert not M.in_conductor(e12.coeffs) and M.is_member(e12)
    real = connection.apply_nabla_D
    calls = []

    def adds_e12(curve, cover, v, q):
        calls.extend(_entries(cover, v.coeffs))
        out = real(curve, cover, v, q)
        return out + e12 if list(v.coeffs) == [(0, 0, 2)] else out

    monkeypatch.setattr(connection, "apply_nabla_D", adds_e12)
    first = verify_properties(curve, report, samples=0)
    record = connection._conductor_record(curve, M, q_element(curve))
    conductor = set(_conductor_entries(M, default_degree_bound(curve, M)))
    assert (0, 0, 0, 2) in conductor and record == conductor - {(0, 0, 0, 2)}
    calls.clear()
    assert verify_properties(curve, report, samples=0) == first
    assert (0, 0, 0, 2) in calls


def test_a_module_with_no_conductor_bound_writes_no_entry():
    # The module of a report rebuilt without the bound, and the coordinate
    # ring: the same checks through eliminations, and no record entry.
    curve, report = _first_fixture_report("D_5")
    Mc = report.module
    unbound = GradedSubmodule(curve, Mc.cover, Mc.generators)
    assert unbound.conductor is None
    fresh_curve = catalog_get("D_5").curve()
    expected = verify_properties(
        fresh_curve, natural_connection(fresh_curve, Mc), samples=5, seed=3
    )
    for module in (unbound, coordinate_ring(curve)):
        hand = ConnectionReport(
            path="direct-stability", lam=None, c1={}, c2={}, c3=(False, None), module=module
        )
        counts = verify_properties(curve, hand, samples=5, seed=3)
        if module is unbound:
            assert counts == expected
        assert counts["graded"] > 0
        assert not any(_records(curve).values())


# -- the curve passed with a module ---------------------------------------------


def _a2_normalization():
    entry = catalog_get("A_2")
    curve = entry.curve()
    (fx,) = [fx for fx in fixture_modules(entry) if fx.name == "normalization"]
    return curve, fx.module(curve)


def test_another_curve_than_the_modules_is_rejected():
    curve, M = _a2_normalization()
    report = natural_connection(curve, M)
    other = catalog_get("A_4").curve()
    assert other != curve
    for call in (
        lambda: natural_connection(other, M),
        lambda: verify_properties(other, report, samples=5),
        lambda: default_degree_bound(other, report.module),
    ):
        with pytest.raises(InputError, match="the curve is not the module's curve"):
            call()
    assert verify_properties(curve, report, samples=5) == {
        "leibniz": 5, "graded": 12, "integrable": 12,
    }


def test_an_equal_rebuilt_curve_is_accepted_with_the_same_counts():
    curve, M = _a2_normalization()
    rebuilt = catalog_get("A_2").curve()
    assert rebuilt is not curve and rebuilt == curve
    report = natural_connection(rebuilt, M)
    assert report.path == natural_connection(curve, M).path
    counts = verify_properties(rebuilt, report, samples=5, seed=1)
    assert counts == verify_properties(curve, natural_connection(curve, M), samples=5, seed=1)
    assert default_degree_bound(rebuilt, report.module) == default_degree_bound(curve, report.module)
