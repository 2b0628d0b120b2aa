"""Univariate and bivariate exact polynomial arithmetic."""

import random
from fractions import Fraction

import pytest

from qhc.errors import InputError, NotHomogeneousError
from qhc.field import QQ
from qhc.poly import BiPoly, UniPoly, monomials_of_weight, standard_monomials

from conftest import rational_poly


def _t(exp, coeff=1):
    return UniPoly.monomial(QQ, QQ.from_rational(Fraction(coeff)), exp)


def test_exact_division_of_monomials():
    assert _t(5).exact_div(_t(2)) == _t(3)


def test_non_exact_division_reports_remainder():
    p = _t(3) + _t(1)
    with pytest.raises(InputError, match="remainder"):
        p.exact_div(_t(2))


def test_bivariate_product_difference_of_squares():
    p = rational_poly(QQ, {(1, 0): 1, (0, 1): 1})
    q = rational_poly(QQ, {(1, 0): 1, (0, 1): -1})
    assert p * q == rational_poly(QQ, {(2, 0): 1, (0, 2): -1})


def test_weighted_degree_of_homogeneous_polynomial():
    p = rational_poly(QQ, {(2, 0): 1, (0, 3): 1})
    assert p.weighted_degree(3, 2) == 6
    q = rational_poly(QQ, {(2, 1): 1, (0, 4): -1})
    assert q.weighted_degree(3, 2) == 8


def test_weighted_degree_rejects_mixed_weights():
    p = rational_poly(QQ, {(2, 0): 1, (0, 3): 1})
    with pytest.raises(NotHomogeneousError) as exc:
        p.weighted_degree(1, 1)
    assert exc.value.degrees == frozenset({2, 3})


def test_weighted_degree_of_zero_rejected():
    with pytest.raises(InputError):
        BiPoly.zero(QQ).weighted_degree(1, 1)


def test_derivatives():
    p = rational_poly(QQ, {(2, 1): 1, (0, 4): -1})
    assert p.dx() == rational_poly(QQ, {(1, 1): 2})
    assert p.dy() == rational_poly(QQ, {(2, 0): 1, (0, 3): -4})
    assert (_t(3) + _t(1)).derivative() == UniPoly.make(
        QQ, {2: QQ.from_rational(3), 0: QQ.one()}
    )


def test_monomials_of_weight():
    assert monomials_of_weight(3, 2, 6) == [(0, 3), (2, 0)]
    assert monomials_of_weight(3, 2, 1) == []
    assert monomials_of_weight(1, 1, 2) == [(0, 2), (1, 1), (2, 0)]
    assert monomials_of_weight(3, 2, -1) == []


def test_evaluate_is_a_ring_homomorphism():
    rng = random.Random(11)
    px, py = _t(3), _t(2, -1)
    for _ in range(50):
        p = _random_bipoly(rng)
        q = _random_bipoly(rng)
        assert (p * q).evaluate(px, py) == p.evaluate(px, py) * q.evaluate(px, py)
        assert (p + q).evaluate(px, py) == p.evaluate(px, py) + q.evaluate(px, py)


def _random_bipoly(rng, max_exp=4):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        terms[(rng.randint(0, max_exp), rng.randint(0, max_exp))] = Fraction(
            rng.randint(-5, 5)
        )
    return rational_poly(QQ, terms)


def _random_unipoly(rng, max_exp=6):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        terms[rng.randint(0, max_exp)] = QQ.from_rational(rng.randint(-5, 5))
    return UniPoly.make(QQ, terms)


def test_exact_division_round_trip_random():
    rng = random.Random(13)
    for _ in range(200):
        p = _random_unipoly(rng)
        q = _random_unipoly(rng)
        if not q:
            continue
        assert (p * q).exact_div(q) == p
    for _ in range(200):
        p = _random_bipoly(rng)
        q = _random_bipoly(rng)
        if not q:
            continue
        assert (p * q).exact_div(q) == p


def test_weighted_degree_is_additive_on_products():
    rng = random.Random(17)
    for _ in range(100):
        wx, wy = rng.choice([(3, 2), (1, 1), (5, 3)])
        wp, wq = rng.randint(0, 12), rng.randint(0, 12)
        p = _homogeneous(rng, wx, wy, wp)
        q = _homogeneous(rng, wx, wy, wq)
        if p is None or q is None:
            continue
        assert (p * q).weighted_degree(wx, wy) == p.weighted_degree(
            wx, wy
        ) + q.weighted_degree(wx, wy)


def _homogeneous(rng, wx, wy, w):
    monos = monomials_of_weight(wx, wy, w)
    if not monos:
        return None
    terms = {rng.choice(monos): Fraction(rng.randint(1, 5))}
    return rational_poly(QQ, terms)


def test_canonical_representation_drops_zeros():
    p = rational_poly(QQ, {(1, 0): 1})
    q = rational_poly(QQ, {(1, 0): -1})
    assert not (p + q)
    assert (p + q) == BiPoly.zero(QQ)


def test_scale_keeps_terms_and_zero_gives_zero():
    from qhc.field import NumberField

    rng = random.Random(7)
    for field in (QQ, NumberField((1, 0, 1))):
        for _ in range(20):
            p = UniPoly.make(field, {
                rng.randint(0, 6): field.element([rng.randint(-3, 3) for _ in range(field.degree)])
                for _ in range(4)
            })
            c = field.element([rng.randint(-3, 3) for _ in range(field.degree)])
            scaled = p.scale(c)
            assert scaled == UniPoly.make(field, {e: c * v for e, v in p.terms})
            assert all(v for _, v in scaled.terms)
            assert p.scale(field.zero()) == UniPoly.zero(field)


@pytest.mark.parametrize("wx, wy", [(1, 1), (2, 1), (3, 2), (2, 3), (4, 3), (5, 3), (7, 5)])
def test_standard_monomials_are_the_filtered_monomials_of_weight(wx, wy):
    for w in range(-3, 201):
        monos = monomials_of_weight(wx, wy, w)
        for n in range(6):
            for k in range(6):
                expected = [(a, b) for a, b in monos if a < n or b < k]
                assert standard_monomials(wx, wy, w, n, k) == expected, (w, n, k)
