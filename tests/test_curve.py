"""Weights, branch factorization, and normalization maps."""

import random
from fractions import Fraction

import pytest

from qhc.catalog import ADE_LABELS, catalog_get
from qhc.curve import (
    BranchKind,
    QuasiCurve,
    branch_conductor,
    factor,
    infer_weights,
    rational_roots,
)
from qhc.derivation import q_element
from qhc.errors import InputError
from qhc.field import QQ, NumberField
from qhc.poly import BiPoly, UniPoly, monomials_of_weight
from qhc.semigroup import gamma_formula

from conftest import cusp_curve, random_reduced_curve, rational_poly, y_family_curve
from test_linalg import reference_solve


def test_infer_weights_from_two_monomials():
    assert infer_weights(rational_poly(QQ, {(2, 0): 1, (0, 3): 1})) == (3, 2)


def test_infer_weights_with_mixed_monomial():
    assert infer_weights(rational_poly(QQ, {(2, 1): 1, (0, 4): 1})) == (3, 2)


def test_infer_weights_single_monomial_is_ambiguous():
    with pytest.raises(InputError, match="ambiguous"):
        infer_weights(rational_poly(QQ, {(5, 0): 1}))


def test_infer_weights_rejects_inhomogeneous_input():
    with pytest.raises(InputError, match="not quasi-homogeneous"):
        infer_weights(rational_poly(QQ, {(2, 0): 1, (3, 0): 1}))


def test_factor_axis_and_binomial():
    # y * (x^2 - y^3) over Q with weights (3, 2)
    f = rational_poly(QQ, {(2, 1): 1, (0, 4): -1})
    unit, branches = factor(f, (3, 2), QQ)
    assert unit == QQ.one()
    assert [br.kind for br in branches] == [BranchKind.AXIS_Y, BranchKind.BINOMIAL]
    assert branches[1].a == QQ.from_rational(-1)
    assert branches[1].b == QQ.one()


def test_factor_x_axis_case():
    # x^3 + x*y^3 = x * (x^2 + y^3)
    f = rational_poly(QQ, {(3, 0): 1, (1, 3): 1})
    unit, branches = factor(f, (3, 2), QQ)
    assert unit == QQ.one()
    assert [br.kind for br in branches] == [BranchKind.AXIS_X, BranchKind.BINOMIAL]
    assert branches[1].a == QQ.one()
    assert branches[1].b == QQ.from_rational(-1)


def test_factor_reports_missing_root():
    f = rational_poly(QQ, {(2, 0): 1, (0, 2): 1})
    with pytest.raises(InputError, match="root not in field"):
        factor(f, (1, 1), QQ)


def test_factor_rejects_repeated_branches():
    with pytest.raises(InputError, match="not reduced"):
        factor(rational_poly(QQ, {(2, 0): 1, (1, 1): 2, (0, 2): 1}), (1, 1), QQ)
    with pytest.raises(InputError, match="not reduced"):
        factor(rational_poly(QQ, {(2, 3): 1}), (3, 2), QQ)


def test_factor_preserves_the_unit():
    f = rational_poly(QQ, {(2, 1): 5, (0, 4): -5})
    unit, branches = factor(f, (3, 2), QQ)
    assert unit == QQ.from_rational(5)
    assert len(branches) == 2


def test_branch_conductor_values():
    assert branch_conductor(BranchKind.AXIS_Y, 3, 2) == 0
    assert branch_conductor(BranchKind.AXIS_X, 3, 2) == 0
    assert branch_conductor(BranchKind.BINOMIAL, 3, 2) == 2
    assert branch_conductor(BranchKind.BINOMIAL, 1, 1) == 0


def test_branch_data_violating_coefficient_equation_rejected():
    with pytest.raises(InputError, match="a\\*b"):
        QuasiCurve.create(
            QQ,
            rational_poly(QQ, {(2, 0): 1, (0, 3): 1}),
            (3, 2),
            [(BranchKind.BINOMIAL, QQ.one(), QQ.one())],
        )


def test_explicit_duplicate_branches_rejected():
    f = rational_poly(QQ, {(2, 0): 1, (0, 3): 1})
    seeds = [
        (BranchKind.BINOMIAL, QQ.one(), QQ.from_rational(-1)),
        (BranchKind.BINOMIAL, QQ.one(), QQ.from_rational(-1)),
    ]
    with pytest.raises(InputError, match="not reduced"):
        QuasiCurve.create(QQ, f * f, (3, 2), seeds)


def test_explicit_branches_must_expand_to_f():
    f = rational_poly(QQ, {(2, 1): 1, (0, 4): -1})
    with pytest.raises(InputError, match="does not match"):
        QuasiCurve.create(
            QQ, f, (3, 2), [(BranchKind.BINOMIAL, QQ.from_rational(-1), QQ.one())]
        )


def test_normalization_images_of_coordinates():
    curve = y_family_curve(3, 2)
    t = UniPoly.monomial(QQ, QQ.one(), 1)
    nx = curve.monomial_image(1, 0)
    ny = curve.monomial_image(0, 1)
    assert nx == [t, UniPoly.monomial(QQ, QQ.one(), 3)]
    assert ny == [UniPoly.zero(QQ), UniPoly.monomial(QQ, QQ.one(), 2)]


def test_normalization_kills_f():
    for curve in (y_family_curve(3, 2), cusp_curve()):
        assert curve.normalization_image(curve.f) == [
            UniPoly.zero(QQ) for _ in curve.branches
        ]


def test_branch_table_data():
    curve = y_family_curve(3, 2)
    axis, binom = curve.branches
    assert (axis.weight, axis.t_degree, axis.conductor) == (2, 3, 0)
    assert (binom.weight, binom.t_degree, binom.conductor) == (6, 1, 2)
    assert curve.wf == 8


def test_normalization_is_a_graded_ring_homomorphism(rng):
    curve = y_family_curve(3, 2)
    for _ in range(100):
        h1 = _random_homogeneous(rng, curve)
        h2 = _random_homogeneous(rng, curve)
        n1 = curve.normalization_image(h1)
        n2 = curve.normalization_image(h2)
        assert curve.normalization_image(h1 * h2) == [a * b for a, b in zip(n1, n2)]
        assert curve.normalization_image(h1 + h2) == [a + b for a, b in zip(n1, n2)]
        w = h1.weighted_degree(curve.wx, curve.wy)
        for br, img in zip(curve.branches, n1):
            if img:
                assert all(e * br.t_degree == w for e, _ in img.terms)


def _random_homogeneous(rng, curve):
    while True:
        w = rng.randint(0, 14)
        monos = monomials_of_weight(curve.wx, curve.wy, w)
        if monos:
            break
    terms = {rng.choice(monos): Fraction(rng.randint(1, 4))}
    return rational_poly(QQ, terms)


def test_branch_polynomials_are_homogeneous():
    curve = y_family_curve(5, 2)
    for br in curve.branches:
        p = br.poly(curve.field, curve.wx, curve.wy)
        assert p.weighted_degree(curve.wx, curve.wy) == br.weight


def test_branch_ordering_is_deterministic():
    # axis branches first, then binomial branches by coefficient order
    f = rational_poly(QQ, {(3, 1): 1, (1, 2): -1})  # x*y*(x^2 - y), weights (1, 2)
    unit, branches = factor(f, (1, 2), QQ)
    assert [br.kind for br in branches] == [
        BranchKind.AXIS_X,
        BranchKind.AXIS_Y,
        BranchKind.BINOMIAL,
    ]


def test_rational_roots_with_multiplicity():
    # (u - 1)^2 (u + 2) = u^3 - 3u + 2
    roots = rational_roots([2, -3, 0, 1])
    assert roots == [(Fraction(-2), 1), (Fraction(1), 2)]
    assert rational_roots([0, 0, 1]) == [(Fraction(0), 2)]


def test_image_membership_zero_and_gap_targets():
    curve = y_family_curve(3, 2)
    zero_target = [UniPoly.zero(QQ), UniPoly.zero(QQ)]
    assert curve.image_membership(zero_target, 5) == []
    # t_1^1 alone has degree 3 but 1 is a gap of the first branch semigroup
    target = [UniPoly.monomial(QQ, QQ.one(), 1), UniPoly.zero(QQ)]
    assert curve.image_membership(target, 3) is None
    # t_1^3 is in the image in its degree 9, and no vector of degree 8
    target = [UniPoly.monomial(QQ, QQ.one(), 3), UniPoly.zero(QQ)]
    assert curve.image_membership(target, 9) is not None
    assert curve.image_membership(target, 8) is None


def test_image_membership_witness_recombines(rng):
    curve = y_family_curve(3, 2)
    h = _random_homogeneous(rng, curve)
    w = h.weighted_degree(curve.wx, curve.wy)
    target = curve.normalization_image(h)
    witness = curve.image_membership(target, w)
    assert witness is not None
    total = [UniPoly.zero(QQ) for _ in curve.branches]
    for (a, b), c in witness:
        img = curve.monomial_image(a, b)
        total = [acc + p.scale(c) for acc, p in zip(total, img)]
    assert total == target


def test_random_curves_factor_consistently(rng):
    for _ in range(20):
        curve, r, unit = random_reduced_curve(rng)
        assert curve.r == r
        assert curve.unit == QQ.from_rational(unit)


def test_extension_fields_require_explicit_branches():
    fld = NumberField((1, 0, 1))
    f = BiPoly.make(fld, {(2, 0): fld.one(), (0, 2): fld.one()})
    with pytest.raises(InputError, match="explicit branches"):
        factor(f, (1, 1), fld)


# QuasiCurve.image_membership as it solved its own system before it asked
# the coordinate ring module, kept as a reference.


def reference_image_membership(curve, target, w):
    if not any(target):
        return []
    rows = []  # (branch index, t-exponent) coordinates
    for i, br in enumerate(curve.branches):
        if w % br.t_degree == 0 and w >= 0:
            rows.append((i, w // br.t_degree))
    row_index = {key: pos for pos, key in enumerate(rows)}
    zero = curve.field.zero()
    rhs = [zero] * len(rows)
    for i, p in enumerate(target):
        for e, c in p.terms:
            if (i, e) not in row_index:
                return None
            rhs[row_index[(i, e)]] = c
    monos = monomials_of_weight(curve.wx, curve.wy, w)
    cols = []
    for a, b in monos:
        col = [zero] * len(rows)
        for i, p in enumerate(curve.monomial_image(a, b)):
            for e, c in p.terms:
                col[row_index[(i, e)]] = c
        cols.append(col)
    if not rows:
        return None
    matrix = [[cols[j][k] for j in range(len(cols))] for k in range(len(rows))]
    sol = reference_solve(matrix, rhs, curve.field)[0]
    if sol is None:
        return None
    return [(monos[j], c) for j, c in enumerate(sol) if c]


def _membership_targets(curve, rng):
    """(target, degree): t_i^gamma up to the conductor + 10, random n(h), q*n(x), q*n(y)."""
    field = curve.field
    for i, br in enumerate(curve.branches):
        for gamma in range(gamma_formula(curve, i).conductor + 11):
            target = [UniPoly.zero(field) for _ in curve.branches]
            target[i] = UniPoly.monomial(field, field.one(), gamma)
            yield target, gamma * br.t_degree
    for _ in range(30):
        w = rng.randint(0, 3 * curve.wf)
        monos = monomials_of_weight(curve.wx, curve.wy, w)
        if monos:
            h = BiPoly.make(field, {
                ab: field.from_rational(rng.randint(-3, 3) or 1)
                for ab in rng.sample(monos, rng.randint(1, len(monos)))
            })
            yield curve.normalization_image(h), w
    q = q_element(curve).as_vector(curve)
    lam = curve.wf - curve.wx - curve.wy
    for (a, b), wh in (((1, 0), curve.wx), ((0, 1), curve.wy)):
        yield [qv * hv for qv, hv in zip(q, curve.monomial_image(a, b))], lam + wh


@pytest.mark.parametrize("label", list(ADE_LABELS) + ["Y_3_2", "Y_5_3", "Y_5_4"])
def test_image_membership_matches_the_reference(label):
    curve = catalog_get(label).curve()
    rng = random.Random(label)
    members = outsiders = 0
    for target, w in _membership_targets(curve, rng):
        expected = reference_image_membership(curve, target, w)
        assert curve.image_membership(target, w) == expected, (label, w, target)
        if expected is None:
            outsiders += 1
        else:
            members += 1
    assert members and outsiders
