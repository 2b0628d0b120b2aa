"""Field arithmetic in Q and in simple extensions."""

import math
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


# -- integer coordinates over one common denominator ---------------------------

# a^2 - 1/2 and a^3 - a/2 + 1/3 (6a^3 - 3a + 2 has no rational root) have
# non-integral coefficients, so their products reduce through D = 2 and D = 6.
HALF = NumberField((Fraction(-1, 2), 0, 1))
SIXTH = NumberField((Fraction(1, 3), Fraction(-1, 2), 0, 1))
DIFFERENTIAL_FIELDS = CATALOG_FIELDS + [HALF, SIXTH]


def reference_inv(x):
    """Solve (multiplication by x) * v = 1 by Gauss-Jordan over Fractions."""
    fld = x.field
    d = fld.degree
    basis = [FieldElement(fld, [Fraction(int(i == j)) for i in range(d)]) for j in range(d)]
    columns = [reference_mul(x, b).coords for b in basis]
    rows = [[columns[j][i] for j in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(d):
            if r != col and rows[r][col]:
                c = rows[r][col]
                rows[r] = [v - c * w for v, w in zip(rows[r], rows[col])]
    return tuple(row[d] for row in rows)


def reference_pow(x, n):
    result = x.field.one()
    base = x if n >= 0 else FieldElement(x.field, reference_inv(x))
    for _ in range(abs(n)):
        result = reference_mul(result, base)
    return result.coords


def assert_canonical(x):
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    assert all(isinstance(n, int) for n in x.num) and len(x.num) == x.field.degree
    if not x:
        assert x.num == (0,) * x.field.degree and x.den == 1


@pytest.mark.parametrize("fld", DIFFERENTIAL_FIELDS)
def test_arithmetic_matches_fraction_coordinates(fld):
    rng = random.Random(13)
    zero = fld.zero()
    for _ in range(150):
        x, y = _random_element(rng, fld), _random_element(rng, fld)
        r = fld.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for a, b in [(x, y), (r, x), (x, r), (x, x), (x, zero), (zero, zero)]:
            xs, ys = a.coords, b.coords
            assert (a + b).coords == tuple(s + t for s, t in zip(xs, ys))
            assert (a - b).coords == tuple(s - t for s, t in zip(xs, ys))
            assert (-a).coords == tuple(-s for s in xs)
            assert (a * b).coords == reference_mul(a, b).coords
            assert a.scale(q).coords == tuple(q * s for s in xs)
            assert a.scale(3).coords == tuple(3 * s for s in xs)
            for result in (a + b, a - b, -a, a * b, a.scale(q), a.scale(0)):
                assert_canonical(result)
        if x:
            assert x.inv().coords == reference_inv(x)
            assert_canonical(x.inv())
        n = rng.randint(-3 if x else 0, 5)
        assert (x ** n).coords == reference_pow(x, n)
    if fld.degree > 1:
        a = fld.generator()
        assert (a ** (2 * fld.degree)).coords == reference_pow(a, 2 * fld.degree)


@pytest.mark.parametrize("fld", DIFFERENTIAL_FIELDS)
def test_zero_results_are_zero_over_one(fld):
    rng = random.Random(17)
    x = _random_element(rng, fld)
    while not x:
        x = _random_element(rng, fld)
    zeros = [x - x, x + (-x), fld.zero() * x, x * fld.zero(), x.scale(0),
             fld.element([0] * fld.degree), fld.from_rational(Fraction(0, 5))]
    for z in zeros:
        assert not z
        assert (z.num, z.den) == ((0,) * fld.degree, 1)
        assert z == fld.zero() and hash(z) == hash(fld.zero())


def test_equal_values_from_every_constructor_are_equal_and_hash_equal():
    half = Fraction(3, 2)
    two = Q_I.from_rational(2)
    for fld in (QQ, Q_I, Q_ZETA12, HALF):
        pad = [0] * (fld.degree - 1)
        three = fld.one() + fld.one() + fld.one()
        built = [
            FieldElement(fld, (half,) + tuple(Fraction(0) for _ in pad)),
            FieldElement(fld, [Fraction(6, 4)] + pad),
            fld.from_rational(half),
            fld.from_rational("3/2"),
            fld.element(["6/4"] + pad),
            element_from_json(fld, ["3/2"] + ["0/1"] * len(pad)),
            element_from_json(fld, "3/2"),
            fld.one().scale(half),
            three * fld.from_rational(2).inv(),
            three - fld.from_rational(Fraction(3, 2)),
            fld.from_rational(Fraction(1, 2)) + fld.one(),
        ]
        for x in built:
            assert x == built[0] and hash(x) == hash(built[0])
            assert (x.num, x.den) == ((3,) + (0,) * len(pad), 2)
        assert len(set(built)) == 1
    # a value with an irrational part, built four ways in Q(i)
    a = Q_I.generator()
    target = Q_I.element(["1/2", "-3/4"])
    for x in (
        FieldElement(Q_I, (Fraction(2, 4), Fraction(-6, 8))),
        element_from_json(Q_I, ["1/2", "-3/4"]),
        Q_I.from_rational(Fraction(1, 2)) - a.scale(Fraction(3, 4)),
        (two - a.scale(3)) * Q_I.from_rational(4).inv(),
    ):
        assert x == target and hash(x) == hash(target)
        assert (x.num, x.den) == ((2, -3), 4)


def test_field_elements_are_immutable():
    x = Q_I.element([1, 2])
    for name, value in (("num", (5, 5)), ("den", 3), ("field", QQ), ("coords", (1,)), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    with pytest.raises(AttributeError):
        del x.num
    assert (x.num, x.den) == ((1, 2), 1)
    assert not hasattr(x, "__dict__")


@pytest.mark.parametrize("fld", DIFFERENTIAL_FIELDS)
def test_coords_round_trip(fld):
    rng = random.Random(19)
    for _ in range(50):
        x = _random_element(rng, fld)
        assert all(isinstance(c, Fraction) for c in x.coords)
        assert FieldElement(fld, x.coords) == x
        assert fld.element(x.coords).coords == x.coords
        assert element_from_json(fld, x.to_json()) == x
        assert x.coords == tuple(Fraction(n, x.den) for n in x.num)


def test_repr_and_str_keep_their_format():
    x = QQ.from_rational(Fraction(-1, 2))
    assert repr(x) == (
        "FieldElement(field=NumberField(min_poly=(Fraction(0, 1), Fraction(1, 1))),"
        " coords=(Fraction(-1, 2),))"
    )
    assert str(x) == "-1/2"
    assert str(Q_I.element(["1/2", "-3"])) == "1/2 + -3*a"
    assert str(Q_ZETA8.element([0, 0, 0, "2/3"])) == "2/3*a^3"
    assert Q_I.element(["1/2", "-3"]).to_json() == ["1/2", "-3/1"]


def test_constructor_checks_the_coordinate_count():
    with pytest.raises(InputError, match="expected 2 coordinates, got 3"):
        FieldElement(Q_I, (1, 2, 3))
    with pytest.raises(InputError, match="expected 4 coordinates, got 1"):
        Q_ZETA8.element(["1/1"])


@pytest.mark.parametrize(
    "min_poly",
    [(1, 2, 1), (0, 0, 1), (1, 0, 2, 0, 1), (Fraction(1, 4), -1, 1), (0, 1, 2, 1)],
)
def test_min_poly_with_a_repeated_root_rejected(min_poly):
    # (a+1)^2, a^2, (a^2+1)^2, (a-1/2)^2, a(a+1)^2
    with pytest.raises(InputError, match="square-free"):
        NumberField(min_poly)


@pytest.mark.parametrize("min_poly", [(0, 1), (5, 1), (-1, 0, 1), (1, 0, 0, 0, 1)])
def test_square_free_min_polys_accepted(min_poly):
    assert NumberField(min_poly).degree == len(min_poly) - 1
