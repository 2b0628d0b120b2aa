"""Euler/Koszul derivations, canonical extensions, and the q-element."""

import random
from fractions import Fraction

import pytest

from qhc.catalog import catalog_get
from qhc.curve import QuasiCurve
from qhc.derivation import (
    DerivationOnA,
    euler,
    extend,
    koszul,
    preserves_ideal,
    q_element,
)
from qhc.errors import InputError
from qhc.field import QQ
from qhc.poly import BiPoly, monomials_of_weight

from conftest import cusp_curve, rational_poly, times, y_family_curve
from test_module import CATALOG_LABELS


def _t(exp, coeff=1):
    """The branch term coeff*t^exp."""
    return (QQ.from_rational(Fraction(coeff)), exp)


def apply_extension(ext, images):
    """~P on a branch image: delta_i * d/dt of each term (c, e)."""
    return tuple(
        None if n is None or not n[1] else times(d, (n[0].scale(n[1]), n[1] - 1))
        for d, n in zip(ext, images)
    )


def extension_applies(curve, P, ext, h):
    """Defining property of the extension: n(P(h)) = ~P(n(h))."""
    lhs = curve.normalization_image(P.apply(h))
    rhs = apply_extension(ext, curve.normalization_image(h))
    return lhs == rhs


def commutator_is_scaled_koszul(curve):
    """[E, D] = (w_f - w_x - w_y) * D as derivations on A (checked mod f)."""
    E = euler(curve)
    D = koszul(curve)
    lam = curve.wf - curve.wx - curve.wy
    x = BiPoly.monomial(curve.field, curve.field.one(), 1, 0)
    y = BiPoly.monomial(curve.field, curve.field.one(), 0, 1)
    for coord, d_img in ((x, D.px), (y, D.py)):
        comm = E.apply(D.apply(coord)) - D.apply(E.apply(coord))
        diff = comm - d_img.scale(curve.field.from_rational(lam))
        if any(curve.normalization_image(diff)):
            return False
    return True


def test_euler_scales_coordinates_by_their_weights():
    curve = y_family_curve(3, 2)
    E = euler(curve)
    x = rational_poly(QQ, {(1, 0): 1})
    y = rational_poly(QQ, {(0, 1): 1})
    assert E.apply(x) == rational_poly(QQ, {(1, 0): 3})
    assert E.apply(y) == rational_poly(QQ, {(0, 1): 2})
    assert E.apply(curve.f) == curve.f.scale(QQ.from_rational(curve.wf))
    assert E.weight == 0


def test_koszul_images_on_the_reducible_example():
    curve = y_family_curve(3, 2)
    D = koszul(curve)
    assert D.px == rational_poly(QQ, {(2, 0): 1, (0, 3): -4})  # f_y
    assert D.py == rational_poly(QQ, {(1, 1): -2})  # -f_x
    assert D.weight == 3
    assert not D.apply(curve.f)  # f_y f_x - f_x f_y


def test_both_derivations_preserve_the_ideal():
    for curve in (y_family_curve(3, 2), cusp_curve()):
        assert preserves_ideal(curve, euler(curve))
        assert preserves_ideal(curve, koszul(curve))


def test_extension_of_euler_is_the_weighted_scaling():
    for curve in (y_family_curve(3, 2), y_family_curve(5, 2), cusp_curve()):
        ext = extend(curve, euler(curve))
        for br, delta in zip(curve.branches, ext):
            assert delta == _t(1, br.t_degree)


def test_extension_of_koszul_on_the_reducible_example():
    curve = y_family_curve(3, 2)
    ext = extend(curve, koszul(curve))
    assert ext == (_t(2), _t(4, -1))


def test_extension_of_the_zero_derivation():
    curve = y_family_curve(3, 2)
    zero = DerivationOnA(BiPoly.zero(QQ), BiPoly.zero(QQ), 0)
    ext = extend(curve, zero)
    assert ext == (None,) * curve.r


def test_extension_rejects_non_tangent_derivations():
    curve = cusp_curve()
    bad = DerivationOnA(
        rational_poly(QQ, {(1, 0): 1}), BiPoly.zero(QQ), 0
    )  # x d/dx alone does not preserve (x^2 + y^3)
    with pytest.raises(InputError):
        extend(curve, bad)


def test_koszul_data_on_the_reducible_example():
    curve = y_family_curve(3, 2)
    ext = extend(curve, koszul(curve))
    assert [beta.as_rational() for beta, _ in ext] == [1, -1]
    assert tuple(c for _, c in ext) == (2, 4)


def test_koszul_data_on_the_cusp():
    curve = cusp_curve()
    ((beta, c),) = extend(curve, koszul(curve))
    assert c == 2
    assert beta


def test_q_element_on_the_reducible_example():
    q = q_element(y_family_curve(3, 2))
    assert tuple(e for _, e in q) == (1, 3)
    assert [c.as_rational() for c, _ in q] == [Fraction(1, 3), -1]


def test_q_element_rejects_a_smooth_curve():
    smooth = QuasiCurve.create(QQ, rational_poly(QQ, {(2, 0): 1, (0, 1): 1}), (1, 2))
    with pytest.raises(InputError, match="q is not defined for a smooth branch"):
        q_element(smooth)


def test_q_element_weight_identity():
    for curve in (y_family_curve(3, 2), y_family_curve(4, 3), cusp_curve()):
        q = q_element(curve)
        lam = curve.wf - curve.wx - curve.wy
        for br, (_, e) in zip(curve.branches, q):
            assert e * br.t_degree == lam


def test_q_vector_and_equality():
    curve = y_family_curve(3, 2)
    q = q_element(curve)
    # q = ((1/3) t_1, -t_2^3): q*n(x) is ((1/3) t_1^2, -t_2^6) below.
    assert q == (_t(1, Fraction(1, 3)), _t(3, -1))
    again = tuple((c, e) for c, e in q)
    assert again == q and hash(again) == hash(q)


def test_q_times_x_lands_in_the_image():
    curve = y_family_curve(3, 2)
    q = q_element(curve)
    prod = tuple(map(times, q, curve.monomial_terms(1, 0)))
    witness = curve.image_membership(prod, curve.wf - curve.wy)
    assert witness is not None
    # ((1/3) t_1^2, -t_2^6) = (1/3) n(x^2) - (4/3) n(y^3)
    assert dict(((a, b), c.as_rational()) for (a, b), c in witness) == {
        (2, 0): Fraction(1, 3),
        (0, 3): Fraction(-4, 3),
    }


def test_extension_compatibility_on_random_elements(rng):
    curve = y_family_curve(3, 2)
    E, D = euler(curve), koszul(curve)
    ext_e, ext_d = extend(curve, E), extend(curve, D)
    for _ in range(100):
        h = _random_homogeneous(rng, curve)
        assert extension_applies(curve, E, ext_e, h)
        assert extension_applies(curve, D, ext_d, h)


def test_leibniz_rule_on_random_pairs(rng):
    curve = y_family_curve(3, 2)
    for P in (euler(curve), koszul(curve)):
        for _ in range(100):
            h1 = _random_homogeneous(rng, curve)
            h2 = _random_homogeneous(rng, curve)
            lhs = P.apply(h1 * h2)
            rhs = P.apply(h1) * h2 + h1 * P.apply(h2)
            assert not any(curve.normalization_image(lhs - rhs))


def test_commutator_identity():
    for curve in (y_family_curve(3, 2), y_family_curve(5, 3), cusp_curve()):
        assert commutator_is_scaled_koszul(curve)


def _random_homogeneous(rng, curve):
    while True:
        w = rng.randint(0, 14)
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


# DerivationOnA.apply sums both partial-derivative terms into one dict; the
# reference is its first form, two BiPoly products and a sum.


def reference_apply(P, h):
    return P.px * h.dx() + P.py * h.dy()


def _random_homogeneous_over(rng, curve):
    """A random homogeneous element of k[x,y] over the curve's field, with
    coefficients among them 1 and, over an extension, generator multiples."""
    fld = curve.field
    gen = fld.generator() if fld.degree > 1 else fld.zero()
    while True:
        monos = monomials_of_weight(curve.wx, curve.wy, rng.randint(0, 2 * curve.wf))
        if monos:
            break
    terms = {}
    for a, b in monos:
        c = fld.from_rational(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))))
        c = c + gen.scale(rng.randint(-1, 1))
        if c:
            terms[(a, b)] = c
    return BiPoly.make(fld, terms)


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_one_pass_apply_matches_the_product_reference(label):
    curve = catalog_get(label).curve()
    fld = curve.field
    rng = random.Random(25)
    for P in (euler(curve), koszul(curve)):
        for _ in range(15):
            h = _random_homogeneous_over(rng, curve)
            assert P.apply(h) == reference_apply(P, h)
        assert P.apply(BiPoly.zero(fld)) == BiPoly.zero(fld)
    # D(f) = f_y f_x - f_x f_y vanishes in k[x,y], not only modulo f.
    assert koszul(curve).apply(curve.f) == BiPoly.zero(fld) == reference_apply(koszul(curve), curve.f)


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_extend_and_q_are_unchanged_by_the_one_pass_apply(label, monkeypatch):
    entry = catalog_get(label)
    calls = []

    def derived():
        # A fresh curve each time: q_element is kept on the curve.
        curve = QuasiCurve.create(entry.field, entry.f, entry.weights, entry.branches)
        return extend(curve, euler(curve)), extend(curve, koszul(curve)), q_element(curve)

    def counted_reference(P, h):
        calls.append(None)
        return reference_apply(P, h)

    fast = derived()
    monkeypatch.setattr(DerivationOnA, "apply", counted_reference)
    assert derived() == fast
    assert calls
