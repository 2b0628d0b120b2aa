"""End-to-end acceptance gate.

Each test covers one acceptance criterion and emits a single PASS/FAIL
line on the real terminal (bypassing capture) so the gate status is
visible in any run log.
"""

import random
from fractions import Fraction

import pytest

from qhc.catalog import ADE_LABELS, catalog_get, fixture_modules
from qhc.connection import natural_connection, verify_properties
from qhc.curve import QuasiCurve, factor
from qhc.derivation import euler, extend, koszul, q_element
from qhc.errors import InputError
from qhc.field import QQ
from qhc.module import FreeCover, GradedSubmodule
from qhc.poly import BiPoly, UniPoly, monomials_of_weight
from qhc.semigroup import gamma_formula, gamma_oracle, sg_from_generators

from conftest import (
    cusp_curve,
    random_reduced_curve,
    rational_poly,
    times,
    y_family_curve,
)
from test_module import _elem, case1_module, case2_module, unstable_cusp_module

SEED = 8923


@pytest.fixture
def gate(capsys):
    """Run a criterion body and print one PASS/FAIL line to the terminal."""

    def _run(name, body):
        try:
            body()
        except BaseException:
            with capsys.disabled():
                print("FAIL  %s" % name)
            raise
        with capsys.disabled():
            print("PASS  %s" % name)

    return _run


def _all_catalog_curves():
    entries = [catalog_get(lbl) for lbl in ADE_LABELS]
    entries += [catalog_get("Y", mn) for mn in ((2, 1), (3, 2), (4, 3), (5, 2), (7, 3))]
    return [(e.label, e.curve()) for e in entries]


def test_criterion_1_reducible_family_semigroups(gate):
    def body():
        for m, n in ((2, 1), (3, 2), (4, 3), (5, 2), (7, 3)):
            curve = y_family_curve(m, n)
            g1 = gamma_formula(curve, 0)
            g2 = gamma_formula(curve, 1)
            assert g1.frobenius == n - 1
            assert g2.frobenius == m * (n - 1)
            bound = g2.conductor + 10
            assert g1.members_upto(bound) == set(range(n, bound + 1))
            generated = sg_from_generators({n + i * m for i in range(n)})
            expected = {
                gamma
                for gamma in range(1, bound + 1)
                if generated.contains(gamma)
            }
            assert g2.members_upto(bound) - {0} == expected
            assert not g2.contains(0)

    gate("criterion 1: reducible-family semigroup data", body)


def test_criterion_2_conductor_formula_vs_oracle(gate):
    def body():
        rng = random.Random(SEED)
        curves = [curve for _, curve in _all_catalog_curves()]
        curves += [random_reduced_curve(rng)[0] for _ in range(20)]
        for curve in curves:
            for i in range(curve.r):
                gamma = gamma_formula(curve, i)
                bound = gamma.conductor + 10
                assert gamma_oracle(curve, i, bound) == gamma.members_upto(bound)

    gate("criterion 2: conductor formula agrees with the oracle", body)


def test_criterion_3_koszul_extension_shape(gate):
    def body():
        for label, curve in _all_catalog_curves():
            lam = curve.wf - curve.wx - curve.wy
            ext = extend(curve, koszul(curve))
            for i, br in enumerate(curve.branches):
                assert ext[i] is not None, label
                beta, c = ext[i]
                assert beta, label
                assert c == gamma_formula(curve, i).conductor
                assert (c - 1) * br.t_degree == lam

    gate("criterion 3: Koszul extensions are conductor monomials", body)


def test_criterion_4_q_element_identities(gate):
    def body():
        for label, curve in _all_catalog_curves():
            q = q_element(curve)  # self-verifies both identities
            ext_e = extend(curve, euler(curve))
            ext_d = extend(curve, koszul(curve))
            for i in range(curve.r):
                assert times(q[i], ext_e[i]) == ext_d[i], label
            lam = curve.wf - curve.wx - curve.wy
            for (a, b), w in (((1, 0), curve.wx), ((0, 1), curve.wy)):
                prod = tuple(map(times, q, curve.monomial_terms(a, b)))
                assert curve.image_membership(prod, lam + w) is not None, label

    gate("criterion 4: q-element identities on every catalog entry", body)


def test_criterion_5_fixture_conditions(gate):
    def body():
        curve = y_family_curve(3, 2)
        for h in (1, 3):
            M = case1_module(curve, h).canonical_embedding()
            assert all(M.check_C2().values()), h
            assert M.check_C3()[0] is True, h
        M = case2_module(curve, 1).canonical_embedding()
        assert all(M.check_C2().values())
        assert M.check_C3()[0] is False

    gate("criterion 5: fixture case conditions (C2)/(C3)", body)


def test_criterion_6_connection_construction(gate):
    def body():
        # C2 path on the reducible-family fixtures
        y_entry = catalog_get("Y", (3, 2))
        y_curve = y_entry.curve()
        for fx in fixture_modules(y_entry):
            report = natural_connection(y_curve, fx.module(y_curve))
            assert report.path == "C2-path", fx.name
            counts = verify_properties(y_curve, report, samples=100, seed=SEED)
            assert counts["leibniz"] > 0 and counts["integrable"] > 0
        # C2 path on rank-one catalog fixtures
        for label in ("A_2", "A_3"):
            entry = catalog_get(label)
            curve = entry.curve()
            for fx in fixture_modules(entry):
                if fx.name == "free_cyclic":
                    continue
                report = natural_connection(curve, fx.module(curve))
                assert report.path == "C2-path", (label, fx.name)
                verify_properties(curve, report, samples=100, seed=SEED)
        # shift path on free cyclic modules
        for label in ("A_2", "A_3", "E_7"):
            entry = catalog_get(label)
            curve = entry.curve()
            fx = next(f for f in fixture_modules(entry) if f.name == "free_cyclic")
            report = natural_connection(curve, fx.module(curve))
            assert report.path == "C3-shift-path", label
            verify_properties(curve, report, samples=100, seed=SEED)
        # no connection on the engineered unstable module
        report = natural_connection(cusp_curve(), unstable_cusp_module(cusp_curve()))
        assert report.path == "none"

    gate("criterion 6: natural connection paths and verification", body)


def test_criterion_7_factorization_round_trip(gate):
    def body():
        for label, curve in _all_catalog_curves():
            prod = BiPoly.monomial(curve.field, curve.unit, 0, 0)
            for br in curve.branches:
                prod = prod * br.poly(curve.field, curve.wx, curve.wy)
            assert prod == curve.f, label
        rng = random.Random(SEED + 1)
        for _ in range(50):
            curve, r, unit = random_reduced_curve(rng)
            assert curve.r == r
            assert curve.unit == QQ.from_rational(unit)
            prod = BiPoly.monomial(QQ, curve.unit, 0, 0)
            for br in curve.branches:
                prod = prod * br.poly(QQ, curve.wx, curve.wy)
            assert prod == curve.f
        squared = rational_poly(QQ, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
        with pytest.raises(InputError, match="not reduced"):
            factor(squared, (1, 1), QQ)
        with pytest.raises(InputError, match="not reduced"):
            QuasiCurve.create(QQ, rational_poly(QQ, {(4, 0): 1, (2, 3): 2, (0, 6): 1}), (3, 2))

    gate("criterion 7: factorization round-trip and reducedness", body)


def test_criterion_8_algebra_property_suite(gate):
    def body():
        rng = random.Random(SEED + 2)
        # field axioms, 200 cases
        for _ in range(200):
            x, y, z = (
                QQ.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                for _ in range(3)
            )
            assert (x + y) * z == x * z + y * z
            assert (x * y) * z == x * (y * z)
            if x:
                assert x * x.inv() == QQ.one()
        # exact-division round-trip, 200 cases
        for _ in range(200):
            p = _random_unipoly(rng)
            q = _random_unipoly(rng)
            if not q:
                continue
            assert (p * q).exact_div(q) == p
        # graded homomorphism property of the normalization, 200 cases
        curve = y_family_curve(3, 2)
        for _ in range(200):
            h1 = _random_homogeneous(rng, curve)
            h2 = _random_homogeneous(rng, curve)
            n1 = curve.normalization_image(h1)
            n2 = curve.normalization_image(h2)
            assert curve.normalization_image(h1 * h2) == tuple(map(times, n1, n2))
            w = h1.weighted_degree(curve.wx, curve.wy)
            for br, img in zip(curve.branches, n1):
                if img is not None:
                    assert img[1] * br.t_degree == w

    gate("criterion 8: algebra property suite", body)


def _random_unipoly(rng, max_exp=6):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        terms[rng.randint(0, max_exp)] = QQ.from_rational(rng.randint(-5, 5))
    return UniPoly.make(QQ, terms)


def _random_homogeneous(rng, curve):
    while True:
        w = rng.randint(0, 16)
        monos = monomials_of_weight(curve.wx, curve.wy, w)
        if monos:
            break
    terms = {}
    for a, b in monos:
        c = rng.randint(-3, 3)
        if c:
            terms[(a, b)] = Fraction(c)
    if not terms:
        terms[rng.choice(monos)] = Fraction(1)
    return rational_poly(QQ, terms)
