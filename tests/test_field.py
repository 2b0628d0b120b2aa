"""Field arithmetic in Q and in simple extensions."""

import random
from fractions import Fraction

import pytest

from qhc.catalog import Q_ZETA8, Q_ZETA12
from qhc.errors import InputError
from qhc.field import QQ, FieldElement, NumberField, element_from_json

Q_I = NumberField((1, 0, 1))  # Q[a]/(a^2 + 1)


def test_rational_addition():
    x = QQ.from_rational(Fraction(1, 2))
    y = QQ.from_rational(Fraction(1, 3))
    assert (x + y).as_rational() == Fraction(5, 6)


def test_generator_square_reduces_modulo_min_poly():
    a = Q_I.generator()
    assert a * a == Q_I.from_rational(-1)


def test_extension_inverse_by_euclid():
    # inv(1 + a) = (1 - a)/2, confirmed by multiplying back to 1.
    x = Q_I.element([1, 1])
    inv = x.inv()
    assert inv == Q_I.element([Fraction(1, 2), Fraction(-1, 2)])
    assert x * inv == Q_I.one()


def test_inversion_of_zero_rejected():
    with pytest.raises(InputError):
        QQ.zero().inv()


def test_zero_divisor_detected_for_reducible_min_poly():
    # a^2 - 1 is reducible; 1 + a is a zero divisor.
    fld = NumberField((-1, 0, 1))
    with pytest.raises(InputError, match="zero divisor"):
        fld.element([1, 1]).inv()


def test_mismatched_field_contexts_rejected():
    with pytest.raises(InputError):
        QQ.one() + Q_I.one()


def test_min_poly_must_be_monic():
    with pytest.raises(InputError):
        NumberField((1, 2))


def test_powers_and_negative_exponents():
    a = Q_I.generator()
    assert a ** 4 == Q_I.one()
    assert a ** -1 == -a
    x = QQ.from_rational(Fraction(2, 3))
    assert (x ** -2).as_rational() == Fraction(9, 4)


def test_rationality_predicates():
    a = Q_I.generator()
    assert not a.is_rational()
    with pytest.raises(InputError):
        a.as_rational()
    assert Q_I.from_rational(Fraction(7, 2)).as_rational() == Fraction(7, 2)


def test_json_round_trip():
    x = Q_I.element([Fraction(3, 4), Fraction(-5, 7)])
    assert element_from_json(Q_I, x.to_json()) == x
    y = QQ.from_rational(Fraction(-2, 9))
    assert element_from_json(QQ, y.to_json()) == y
    assert element_from_json(QQ, "3/5") == QQ.from_rational(Fraction(3, 5))


def _random_element(rng, fld):
    return FieldElement(
        fld,
        tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(fld.degree)
        ),
    )


@pytest.mark.parametrize("fld", [QQ, Q_I, NumberField((1, 0, 0, 0, 1))])
def test_field_axioms_on_random_samples(fld):
    rng = random.Random(7)
    one = fld.one()
    for _ in range(200):
        x, y, z = (_random_element(rng, fld) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * x.inv() == one
        assert x + (-x) == fld.zero()
        assert x * one == x


def reference_mul(x, y):
    """Schoolbook product of the coordinate vectors, reduced modulo min_poly."""
    fld = x.field
    d = fld.degree
    prod = [Fraction(0)] * (2 * d - 1)
    for i, a in enumerate(x.coords):
        for j, b in enumerate(y.coords):
            prod[i + j] += a * b
    for k in range(2 * d - 2, d - 1, -1):
        c, prod[k] = prod[k], Fraction(0)
        for j in range(d):
            prod[k - d + j] -= c * fld.min_poly[j]
    return FieldElement(fld, tuple(prod[:d]))


CATALOG_FIELDS = [QQ, Q_I, Q_ZETA8, Q_ZETA12]


@pytest.mark.parametrize("fld", CATALOG_FIELDS)
def test_products_match_the_schoolbook_reference(fld):
    rng = random.Random(11)
    zero = fld.zero()
    for _ in range(200):
        x, y = _random_element(rng, fld), _random_element(rng, fld)
        r = fld.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        pairs = [(x, y), (r, x), (x, r), (r, r), (zero, x), (x, zero), (zero, zero)]
        for a, b in pairs:
            assert a * b == reference_mul(a, b)
    if fld.degree > 1:
        a = fld.generator()
        assert a ** fld.degree == reference_mul(a ** (fld.degree - 1), a)


@pytest.mark.parametrize("fld", CATALOG_FIELDS)
def test_zero_and_one_are_prebuilt(fld):
    assert fld.zero() is fld.zero()
    assert fld.one() is fld.one()
    assert fld.zero() == fld.from_rational(0)
    assert fld.one() == fld.from_rational(1)
    assert not fld.zero() and fld.one()


def test_prebuilt_constants_leave_equality_and_hashing_unchanged():
    again = NumberField((1, 0, 1))
    assert again == Q_I and hash(again) == hash(Q_I)
    assert again.zero() is not Q_I.zero()
    assert again.one() == Q_I.one()
    assert again != Q_ZETA8 and QQ != Q_I
    assert {Q_I: 1}[again] == 1
    assert repr(Q_I) == "NumberField(min_poly=(Fraction(1, 1), Fraction(0, 1), Fraction(1, 1)))"
    # an equal field built separately multiplies with no complaint
    assert again.generator() * Q_I.generator() == Q_I.from_rational(-1)


def test_mixed_fields_are_rejected_on_every_product_path():
    for x, y in (
        (QQ.from_rational(2), Q_I.from_rational(3)),  # rational x rational
        (QQ.from_rational(2), Q_I.generator()),  # degree 1 x degree 2
        (Q_I.generator(), Q_ZETA8.generator()),  # irrational x irrational
        (Q_I.from_rational(2), Q_ZETA12.generator()),  # rational x irrational
    ):
        with pytest.raises(InputError, match="mismatched field"):
            x * y
        with pytest.raises(InputError, match="mismatched field"):
            y * x
