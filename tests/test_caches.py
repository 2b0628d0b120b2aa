"""The per-curve and per-module caches agree with the uncached computations.

Each test keeps the uncached path as a reference: monomial images through
BiPoly.evaluate on the UniPoly branch images of test_terms, graded pieces through independent_subset over the whole
span family, and membership by solving the whole matrix, both with the
elimination loops that predate linalg.Elimination (from test_linalg).
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qhc import derivation, linalg, module
from qhc.catalog import ADE_LABELS, catalog_get, fixture_modules
from qhc.connection import default_degree_bound
from qhc.curve import BranchKind
from qhc.derivation import q_element
from qhc.module import ModuleElement, basis_element, coordinate_ring
from qhc.poly import BiPoly, UniPoly, monomials_of_weight
from qhc.semigroup import gamma_oracle

from conftest import poly_of
from test_linalg import reference_independent_subset, reference_solve
from test_module import branch_projection_module, entries_of
from test_terms import reference_act, reference_image

# Every ADE entry (over Q, Q(i), Q(zeta8), Q(zeta12)) and Y entries, whose
# y-axis branch has a vanishing x-image.
Y_LABELS = ["Y_1_1", "Y_2_1", "Y_1_2", "Y_3_2", "Y_2_3", "Y_5_3", "Y_7_4", "Y_10_9"]
CATALOG_LABELS = list(ADE_LABELS) + Y_LABELS
# Fixture modules of the larger Y entries take long to check exhaustively.
FIXTURE_LABELS = list(ADE_LABELS) + ["Y_1_2", "Y_3_2", "Y_2_3", "Y_5_2"]


def _evaluated_image(curve, a, b):
    return reference_image(curve, BiPoly.monomial(curve.field, curve.field.one(), a, b))


_memo_evaluated_image = functools.lru_cache(maxsize=None)(_evaluated_image)


def _reference_span(M, w):
    """The tagged span family of M_w, images computed by evaluation."""
    out = []
    for l, (gen, wl) in enumerate(zip(M.generators, M.weights)):
        for a, b in monomials_of_weight(M.curve.wx, M.curve.wy, w - wl):
            elem = reference_act(gen, _memo_evaluated_image(M.curve, a, b))
            if elem:
                out.append((l, (a, b), elem))
    return out


def _reference_coords(M, v, slots):
    index = {s: pos for pos, s in enumerate(slots)}
    vec = [M.curve.field.zero()] * len(slots)
    for (i, j), p in entries_of(v).items():
        for e, c in p.terms:
            if (i, j, e) not in index:
                return None
            vec[index[(i, j, e)]] = c
    return vec


def _reference_contains(M, w):
    """Membership in M_w as solved on the full span-family matrix."""
    slots = M._degree_slots(w)
    columns = _reference_span(M, w)
    cols = [_reference_coords(M, elem, slots) for _, _, elem in columns]
    matrix = [[col[r] for col in cols] for r in range(len(slots))]

    def contains(v):
        if not v:
            return []
        rhs = _reference_coords(M, v, slots)
        sol = reference_solve(matrix, rhs, M.curve.field)[0]
        if sol is None:
            return None
        return [(columns[c][0], columns[c][1], x) for c, x in enumerate(sol) if x]

    return contains


def _fixture_modules(label):
    entry = catalog_get(label)
    curve = entry.curve()
    for fx in fixture_modules(entry):
        M = fx.module(curve)
        yield fx.name, M
        yield fx.name + "/canonical", M.canonical_embedding()


def _degrees(M):
    return range(M.min_shift(), default_degree_bound(M.curve, M) + 1)


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_monomial_images_match_evaluation(label):
    curve = catalog_get(label).curve()
    for w in range(3 * curve.wf + 1):
        for a, b in monomials_of_weight(curve.wx, curve.wy, w):
            expected = _evaluated_image(curve, a, b)
            assert curve.monomial_image(a, b) == expected, (label, a, b)
            assert curve.monomial_image(a, b) == expected, (label, a, b)


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_monomial_terms_match_images_and_evaluation(label):
    curve = catalog_get(label).curve()
    vanished = 0
    for w in range(3 * curve.wf + 1):
        for a, b in monomials_of_weight(curve.wx, curve.wy, w):
            terms = curve.monomial_terms(a, b)
            assert len(terms) == curve.r
            as_polys = [poly_of(curve.field, t) for t in terms]
            assert as_polys == curve.monomial_image(a, b) == _evaluated_image(curve, a, b)
            assert curve.monomial_terms(a, b) is terms
            vanished += sum(t is None for t in terms)
    axis = any(br.kind is not BranchKind.BINOMIAL for br in curve.branches)
    assert (vanished > 0) == axis, label


def test_images_do_not_depend_on_query_order():
    for label in ("A_5", "D_6", "Y_5_3"):
        curve = catalog_get(label).curve()
        for a, b in ((9, 7), (0, 11), (2, 3), (13, 0), (1, 1)):
            assert curve.monomial_image(a, b) == _evaluated_image(curve, a, b)


def test_normalization_image_matches_evaluation():
    for label in ("A_3", "D_4", "E_7", "Y_3_2"):
        curve = catalog_get(label).curve()
        h = curve.f.dx() * curve.f.dy()
        assert [poly_of(curve.field, t) for t in curve.normalization_image(h)] == reference_image(curve, h)
        assert curve.normalization_image(curve.f) == (None,) * curve.r


def test_mutating_a_returned_image_leaves_the_cache_intact():
    curve = catalog_get("D_4").curve()
    first = curve.monomial_image(2, 1)
    expected = list(first)
    first[0] = UniPoly.zero(curve.field)
    first.append(first[1])
    assert curve.monomial_image(2, 1) == expected
    assert curve.monomial_image(2, 1) is not curve.monomial_image(2, 1)


def test_caches_do_not_change_equality_or_hashing():
    warm = catalog_get("Y_3_2").curve()
    cold = catalog_get("Y_3_2").curve()
    warm.monomial_image(4, 5)
    q_element(warm)
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert "_images" not in repr(warm)


def test_q_element_is_computed_once_per_curve(monkeypatch):
    calls = []
    real_extend = derivation.extend

    def counting_extend(curve, P):
        calls.append(P)
        return real_extend(curve, P)

    monkeypatch.setattr(derivation, "extend", counting_extend)
    curve = catalog_get("D_5").curve()
    q = q_element(curve)
    assert len(calls) == 2  # the Koszul and the Euler extension, once each
    assert q_element(curve) is q
    assert len(calls) == 2
    assert q_element(catalog_get("D_5").curve()) == q
    assert len(calls) == 4


@pytest.mark.parametrize("label", FIXTURE_LABELS)
def test_graded_piece_is_the_greedy_independent_subset(label):
    for name, M in _fixture_modules(label):
        for w in _degrees(M):
            slots = M._degree_slots(w)
            columns = _reference_span(M, w)
            vectors = [_reference_coords(M, elem, slots) for _, _, elem in columns]
            chosen = reference_independent_subset(vectors, M.curve.field)
            expected = [columns[k][2] for k in chosen]
            assert M.graded_piece(w) == expected, (label, name, w)


def _reference_piece_basis(M, w):
    """The basis of M_w as built from UniPoly images: the columns
    reference_act(gen, monomial_image(a, b)) fed in order to a fresh Elimination."""
    elimination = linalg.Elimination(len(M._degree_slots(w)), M.curve.field)
    basis = []
    for l, (gen, wl) in enumerate(zip(M.generators, M.weights)):
        for a, b in monomials_of_weight(M.curve.wx, M.curve.wy, w - wl):
            elem = reference_act(gen, M.curve.monomial_image(a, b))
            if elimination.add(elem.coeffs):
                basis.append((l, (a, b), elem))
    return basis


def _basis_mismatches(label):
    """(module, degree) pairs up to default_degree_bound + lambda where the
    piece basis differs from the full family's, over every fixture module
    of label, its canonical embedding, their branch projections and the
    coordinate ring."""
    curve = catalog_get(label).curve()
    lam = curve.wf - curve.wx - curve.wy
    modules = []
    for name, M in _fixture_modules(label):
        modules.append((name, M))
        modules += [
            ("%s/projection_%d" % (name, i), branch_projection_module(M, i)) for i in range(curve.r)
        ]
    modules.append(("coordinate_ring", coordinate_ring(curve)))
    return [
        (name, w)
        for name, M in modules
        for w in range(M.min_shift(), default_degree_bound(curve, M) + lam + 1)
        if M._piece(w)[0] != _reference_piece_basis(M, w)
    ]


@pytest.mark.parametrize("label", list(dict.fromkeys(FIXTURE_LABELS + Y_LABELS)))
def test_piece_basis_matches_the_image_columns(label):
    assert _basis_mismatches(label) == []


@pytest.mark.parametrize("label", ["D_4", "Y_3_2"])
def test_a_cut_at_the_x_exponent_alone_changes_the_basis(label, monkeypatch):
    """The b < k half of the standard monomials is needed: dropping every
    monomial with a >= n loses basis columns on a curve with k > 0."""
    assert catalog_get(label).curve().lead_exponent == (2, 1)

    def cut_at_n(wx, wy, w, n, k):
        return [(a, b) for a, b in monomials_of_weight(wx, wy, w) if a < n]

    monkeypatch.setattr(module, "standard_monomials", cut_at_n)
    assert _basis_mismatches(label)


def test_gamma_oracle_feeds_columns_linearly_in_the_bound(monkeypatch):
    """Each degree piece of A gets at most n + k columns, so the columns fed
    for Gamma_i on [0, bound] grow linearly in the bound, not quadratically."""
    calls = []
    real_add = linalg.Elimination.add

    def counting_add(self, col):
        calls.append(None)
        return real_add(self, col)

    monkeypatch.setattr(linalg.Elimination, "add", counting_add)
    counts = {}
    for bound in (500, 1000, 2000):
        curve = catalog_get("Y_3_2").curve()
        del calls[:]
        for i in range(curve.r):
            gamma_oracle(curve, i, bound)
        counts[bound] = len(calls)
    assert counts[1000] <= 2.1 * counts[500], counts
    assert counts[2000] <= 4.2 * counts[500], counts


def _candidates(M, w):
    """Members and non-members of degree w: cover monomials, span columns, sums."""
    monomials = []
    for i, j in M.cover.slots():
        delta = w - M.cover.shifts[i][j]
        d_i = M.curve.branches[i].t_degree
        if delta >= 0 and delta % d_i == 0:
            monomials.append(basis_element(M.curve, i, j, delta // d_i))
    columns = [elem for _, _, elem in _reference_span(M, w)]
    field = M.curve.field
    total = ModuleElement(field, {})
    for k, elem in enumerate(monomials + columns):
        total = total + elem.scale(field.from_rational(k + 1))
    pairs = [columns[0] + columns[-1]] if len(columns) > 1 else []
    return monomials + columns[:3] + columns[3:][-3:] + [total] + pairs


@pytest.mark.parametrize("label", FIXTURE_LABELS)
def test_contains_returns_the_full_matrix_witness(label):
    members = outsiders = 0
    for name, M in _fixture_modules(label):
        for w in _degrees(M):
            reference = _reference_contains(M, w)
            for v in _candidates(M, w):
                expected = reference(v)
                assert M.contains(v) == expected, (label, name, w, str(v))
                if expected is None:
                    outsiders += 1
                else:
                    members += 1
                    assert M.replay_witness(expected) == v
    assert members and outsiders


def test_shifted_module_answers_with_a_fresh_cache():
    entry = catalog_get("Y_3_2")
    curve = entry.curve()
    M = fixture_modules(entry)[0].module(curve).canonical_embedding()
    shifted = M.shifted(4)
    for w in _degrees(M):
        assert M.graded_piece(w) == shifted.graded_piece(w + 4)
        for v in _candidates(M, w):
            assert shifted.contains(v) == M.contains(v)


@pytest.mark.parametrize("label", FIXTURE_LABELS)
def test_shifted_pieces_match_a_fresh_module(label):
    """M(lam) starts with M's pieces, re-keyed to w + lam; every piece it
    reads up to default_degree_bound + the Koszul weight, inherited or built
    on it, is a fresh module's, and a piece built on it stays its own."""
    curve = catalog_get(label).curve()
    koszul = curve.wf - curve.wx - curve.wy
    inherited_any = False
    for name, M in _fixture_modules(label):
        M.check_C1()
        M.check_C2()
        for lam in (3, -2):
            before = dict(M._pieces)
            shifted = M.shifted(lam)
            assert sorted(shifted._pieces) == sorted(w + lam for w in before), (label, name, lam)
            for w, piece in before.items():
                assert shifted._pieces[w + lam] is piece
                inherited_any = True
            fresh = module.GradedSubmodule(curve, M.cover.shifted(lam), M.generators)
            for w in range(shifted.min_shift(), default_degree_bound(curve, shifted) + koszul + 1):
                basis, elimination = shifted._piece(w)
                expected, reference = fresh._piece(w)
                assert basis == expected, (label, name, lam, w)
                assert elimination.rank == reference.rank, (label, name, lam, w)
            assert M._pieces.keys() == before.keys(), (label, name, lam)
            assert all(M._pieces[w] is piece for w, piece in before.items())
    assert inherited_any, label


def test_reimporting_the_package_keeps_no_old_copy_alive():
    """No process-wide cache (such as typing's) may hold a class of qhc."""
    script = """
import gc, importlib, sys
for _ in range(5):
    for name in [n for n in sys.modules if n == "qhc" or n.startswith("qhc.")]:
        del sys.modules[name]
    importlib.import_module("qhc.cli")
gc.collect()
print(sum(1 for o in gc.get_objects() if isinstance(o, type) and o.__module__.startswith("qhc.")))
print(len({o.__name__ for o in gc.get_objects() if isinstance(o, type) and o.__module__.startswith("qhc.")}))
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.split()
    assert out[0] == out[1]  # one live class object per class name
