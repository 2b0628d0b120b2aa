"""Preset catalog entries and their bundled fixture modules."""

import dataclasses

import pytest

from qhc.catalog import (
    ADE_LABELS,
    CatalogEntry,
    catalog_get,
    catalog_labels,
    fixture_modules,
)
from qhc.curve import BranchKind, QuasiCurve
from qhc.errors import InputError
from qhc.field import QQ


def all_ade_entries():
    return [catalog_get(lbl) for lbl in ADE_LABELS]


def test_labels_cover_the_supported_range():
    labels = catalog_labels()
    for lbl in ADE_LABELS:
        assert lbl in labels
    assert len(ADE_LABELS) == 12


def test_every_ade_entry_validates():
    for entry in all_ade_entries():
        curve = entry.curve()
        assert curve.r >= 1
        # the product identity is enforced inside create(); reaching here
        # means expansion, homogeneity and the b-equation all hold.


def test_a2_entry_values():
    entry = catalog_get("A_2")
    curve = entry.curve()
    assert entry.field == QQ
    assert (curve.wx, curve.wy) == (3, 2)
    assert curve.r == 1
    br = curve.branches[0]
    assert br.kind is BranchKind.BINOMIAL
    assert br.a == QQ.one()
    assert br.b == QQ.from_rational(-1)


def test_d4_entry_uses_gaussian_rationals():
    entry = catalog_get("D", 4)
    assert entry.field.min_poly == (1, 0, 1)
    curve = entry.curve()
    assert (curve.wx, curve.wy) == (1, 1)
    kinds = [br.kind for br in curve.branches]
    assert kinds.count(BranchKind.AXIS_Y) == 1
    assert kinds.count(BranchKind.BINOMIAL) == 2
    i = entry.field.generator()
    a_vals = {br.a for br in curve.branches if br.a is not None}
    assert a_vals == {i, -i}


def test_e7_entry_values():
    curve = catalog_get("E_7").curve()
    assert (curve.wx, curve.wy) == (3, 2)
    assert [br.kind for br in curve.branches] == [
        BranchKind.AXIS_X,
        BranchKind.BINOMIAL,
    ]


def test_y_family_entry():
    entry = catalog_get("Y", (3, 2))
    curve = entry.curve()
    assert (curve.wx, curve.wy) == (3, 2)
    assert curve.wf == 8
    assert catalog_get("Y_3_2").label == entry.label


def test_unsupported_indices_rejected():
    for label, index in (("A", 9), ("D", 7), ("E", 5), ("Z", 1)):
        with pytest.raises(InputError):
            catalog_get(label, index)
    with pytest.raises(InputError):
        catalog_get("Y", (4, 2))  # not coprime
    with pytest.raises(InputError):
        catalog_get("Y", (11, 2))  # out of supported range


def test_y_fixture_families():
    entry = catalog_get("Y", (3, 2))
    fixtures = fixture_modules(entry)
    names = [fx.name for fx in fixtures]
    assert names == ["case1_h1", "case1_h3", "case2_h1"]
    curve = entry.curve()
    for fx in fixtures:
        M = fx.module(curve)
        assert all(w >= 0 for w in M.weights)


def test_ade_fixture_families():
    entry = catalog_get("A_2")
    fixtures = {fx.name: fx for fx in fixture_modules(entry)}
    assert set(fixtures) == {"normalization", "maximal_ideal", "free_cyclic"}
    curve = entry.curve()
    maximal = fixtures["maximal_ideal"].module(curve)
    # generators are the normalization images of x and y: (t^3, -t^2)
    one = curve.field.one()
    assert [g.coeffs for g in maximal.generators] == [{(0, 0, 3): one}, {(0, 0, 2): -one}]


def test_entries_are_immutable_records():
    entry = catalog_get("A_2")
    assert isinstance(entry, CatalogEntry)
    with pytest.raises(Exception):
        entry.label = "other"


@pytest.mark.parametrize("label", ["A_2", "D_6", "Y_3_2"])
def test_each_entry_builds_its_curve_once(monkeypatch, label):
    calls = []
    real_create = QuasiCurve.create

    def counting_create(*args, **kwargs):
        calls.append(args)
        return real_create(*args, **kwargs)

    monkeypatch.setattr(QuasiCurve, "create", staticmethod(counting_create))
    entry = catalog_get(label)
    fixtures = fixture_modules(entry)
    curve = entry.curve()
    assert len(calls) == 1
    assert entry.curve() is curve
    assert fixtures and all(fx.module(curve).curve is curve for fx in fixtures)


def test_the_kept_curve_leaves_equality_and_hashing_unchanged():
    warm = catalog_get("D_5")
    cold = CatalogEntry(
        warm.label, warm.field, warm.weights, warm.f, warm.branches, warm.description
    )
    assert warm == cold and hash(warm) == hash(cold)
    assert "_curve" not in repr(warm)
    # an entry built directly makes its curve on first use
    assert cold.curve() == warm.curve()
    assert cold.curve() is not warm.curve()


def test_the_kept_curve_cannot_be_set_or_carried_over():
    entry = catalog_get("D_5")
    with pytest.raises(TypeError):
        CatalogEntry(
            entry.label,
            entry.field,
            entry.weights,
            entry.f,
            entry.branches,
            entry.description,
            _curve=entry.curve(),
        )
    # a copy with another f builds its own curve from that f
    other = catalog_get("D_6")
    changed = dataclasses.replace(
        entry, field=other.field, f=other.f, weights=other.weights, branches=other.branches
    )
    assert changed.curve() is not entry.curve()
    assert changed.curve() == other.curve()
