"""The natural graded integrable connection and its verification."""

import json
from fractions import Fraction

import pytest

from qhc import connection, io
from qhc.catalog import ADE_LABELS, catalog_get, fixture_modules
from qhc.connection import (
    apply_nabla_D,
    apply_nabla_E,
    check_stability,
    default_degree_bound,
    natural_connection,
    verify_properties,
)
from qhc.derivation import QElement, q_element
from qhc.errors import ConsistencyError, InputError
from qhc.field import QQ
from qhc.module import FreeCover, GradedSubmodule, ModuleElement, homogeneous_components
from qhc.poly import UniPoly

from conftest import cusp_curve, y_family_curve
from test_module import case1_module, case2_module, unstable_cusp_module


def _t(exp, coeff=1):
    return UniPoly.monomial(QQ, QQ.from_rational(Fraction(coeff)), exp)


def _elem(entries):
    return ModuleElement(QQ, {k: _t(e, c) for k, (c, e) in entries.items()})


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
        stable, results = check_stability(M.canonical_embedding(), q)
        assert stable
        assert all(w is not None for _, w in results)


def test_unstable_module_is_detected():
    curve = cusp_curve()
    q = q_element(curve)
    stable, results = check_stability(unstable_cusp_module(curve), q)
    assert not stable


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
    for (i, j), p in v.entries.items():
        d_i = curve.branches[i].t_degree
        f_ij = cover.shifts[i][j]
        for e, c in p.terms:
            w = f_ij + e * d_i
            slot = comps.setdefault(w, {})
            mono = UniPoly.monomial(curve.field, c, e)
            slot[(i, j)] = slot.get((i, j), UniPoly.zero(curve.field)) + mono
    return {w: ModuleElement(curve.field, d) for w, d in sorted(comps.items())}


def reference_nabla_E(curve, cover, v):
    out = ModuleElement(curve.field, {})
    for w, comp in reference_components(curve, cover, v).items():
        out = out + comp.scale(curve.field.from_rational(w))
    return out


def reference_nabla_D(curve, cover, v, q):
    qvec = [UniPoly.monomial(curve.field, c, e) for c, e in zip(q.coeffs, q.exps)]
    out = ModuleElement(curve.field, {})
    for w, comp in reference_components(curve, cover, v).items():
        out = out + comp.scale(curve.field.from_rational(w)).act(qvec)
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
            assert homogeneous_components(curve, M.cover, v) == reference_components(
                curve, M.cover, v
            )
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
    raised = QElement(real.coeffs, tuple(e + 1 for e in real.exps))
    monkeypatch.setattr(connection, "q_element", lambda c: raised)
    with pytest.raises(ConsistencyError, match="nabla_D does not raise degree"):
        verify_properties(curve, report, samples=0)
