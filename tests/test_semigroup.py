"""Numerical semigroups and the per-branch shifted semigroups."""

import random

import pytest

from qhc.catalog import catalog_get
from qhc.errors import InputError
from qhc.field import FieldElement
from qhc.semigroup import gamma_formula, gamma_oracle, is_symmetric, sg_from_generators

from conftest import cusp_curve, random_reduced_curve, y_family_curve
from test_module import CATALOG_LABELS


def test_semigroup_two_three():
    sg = sg_from_generators({2, 3})
    assert sg.gaps == frozenset({1})
    assert sg.conductor == 2
    assert sg.frobenius == 1


def test_semigroup_three_five():
    sg = sg_from_generators({3, 5})
    assert sg.gaps == frozenset({1, 2, 4, 7})
    assert sg.frobenius == 7  # classical 3*5 - 3 - 5


def test_trivial_semigroup():
    sg = sg_from_generators({1})
    assert sg.gaps == frozenset()
    assert sg.conductor == 0


def test_generators_with_common_divisor_rejected():
    with pytest.raises(InputError, match="gcd"):
        sg_from_generators({4, 6})
    with pytest.raises(InputError):
        sg_from_generators({0, 3})


def test_symmetry():
    assert is_symmetric(sg_from_generators({2, 3}))
    assert not is_symmetric(sg_from_generators({3, 5, 7}))
    assert is_symmetric(sg_from_generators({1}))


def test_binomial_value_semigroups_are_symmetric():
    for wx, wy in ((3, 2), (5, 2), (5, 3), (7, 3)):
        sg = sg_from_generators({wx, wy})
        assert is_symmetric(sg)
        assert sg.conductor == (wx - 1) * (wy - 1)


def test_shifted_semigroups_of_the_reducible_example():
    curve = y_family_curve(3, 2)
    g1 = gamma_formula(curve, 0)
    assert (g1.shift, g1.conductor, g1.frobenius) == (2, 2, 1)
    assert g1.members_upto(6) == {2, 3, 4, 5, 6}
    g2 = gamma_formula(curve, 1)
    assert (g2.shift, g2.conductor, g2.frobenius) == (2, 4, 3)
    assert g2.members_upto(10) == {2, 4, 5, 6, 7, 8, 9, 10}
    # reducible curves exclude zero from every branch semigroup
    assert not g1.contains(0) and not g2.contains(0)


def test_irreducible_branch_semigroup_is_the_value_semigroup():
    curve = cusp_curve()
    gamma = gamma_formula(curve, 0)
    assert gamma.shift == 0
    assert gamma.conductor == 2
    assert gamma.base.generators == (2, 3)
    assert gamma.contains(0)


def test_oracle_matches_formula_on_the_reducible_example():
    curve = y_family_curve(3, 2)
    assert gamma_oracle(curve, 1, 10) == {2, 4, 5, 6, 7, 8, 9, 10}
    assert gamma_oracle(curve, 0, 6) == {2, 3, 4, 5, 6}


def test_frobenius_number_is_never_a_member():
    for curve in (y_family_curve(3, 2), y_family_curve(5, 2), cusp_curve()):
        for i in range(curve.r):
            gamma = gamma_formula(curve, i)
            if gamma.frobenius >= 0:
                assert not gamma.contains(gamma.frobenius)
                assert gamma.frobenius not in gamma_oracle(
                    curve, i, gamma.conductor
                )


def test_koszul_weight_identity_for_frobenius_numbers():
    for curve in (y_family_curve(3, 2), y_family_curve(7, 3), cusp_curve()):
        lam = curve.wf - curve.wx - curve.wy
        for i, br in enumerate(curve.branches):
            g = gamma_formula(curve, i).frobenius
            assert g * br.t_degree == lam


def test_oracle_makes_no_more_field_products_than_the_image_columns(monkeypatch):
    # Every oracle answer on these curves and bounds took 21694 products when
    # each span column was gen.act(monomial_image(a, b)); writing the columns
    # from monomial_terms must not add any (a product by one() counts too).
    curves = [cusp_curve(), y_family_curve(3, 2), y_family_curve(5, 3)]
    curves += [catalog_get(label).curve() for label in ("D_6", "E_7")]
    products = []
    real_mul = FieldElement.__mul__

    def counting_mul(a, b):
        products.append(None)
        return real_mul(a, b)

    monkeypatch.setattr(FieldElement, "__mul__", counting_mul)
    for curve in curves:
        for i in range(curve.r):
            assert gamma_oracle(curve, i, 60) == gamma_formula(curve, i).members_upto(60)
    assert len(products) <= 21694


def test_curve_conductors_agree_with_the_sieve():
    # QuasiCurve.conductors is the closed form (w_f - w_i)/d_i + c(A_i);
    # gamma_formula adds the sieve's conductor of the branch value
    # semigroup to the shift.  Fixed seed: 60 reduced curves over Q.
    rng = random.Random(2301)
    curves = [catalog_get(label).curve() for label in CATALOG_LABELS]
    curves += [random_reduced_curve(rng)[0] for _ in range(60)]
    for curve in curves:
        assert curve.conductors == tuple(gamma_formula(curve, i).conductor for i in range(curve.r))
