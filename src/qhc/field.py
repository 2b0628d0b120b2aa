"""Exact arithmetic in Q and in simple extensions Q[a]/(p).

The coefficient field is either the rationals (min_poly of degree 1) or
Q[a]/(p) for a monic rational polynomial p of degree d > 1, checked to be
square-free and trusted to be irreducible.  An element stores its d
coordinates in the power basis as integers over one positive common
denominator, in lowest terms (gcd(den, *num) == 1, zero is (0,...,0)/1),
so equality and hashing are structural; ``coords`` gives them back as
Fractions.  All operations are exact and fully reduced modulo p.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .errors import InputError

RationalLike = Union[int, Fraction, str]


def as_fraction(v: RationalLike) -> Fraction:
    """v as a Fraction; a bool (an int to Python, not a number in JSON) and
    a float are errors."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError("not a rational value: %r" % (v,))


def fraction_str(q: Fraction) -> str:
    return "%d/%d" % (q.numerator, q.denominator)


def _ratio(v: RationalLike) -> tuple:
    """(numerator, denominator) of a rational value; an int needs no Fraction."""
    if isinstance(v, int):
        return v, 1
    v = as_fraction(v)
    return v.numerator, v.denominator


def _common_denominator(values: Sequence[Fraction]) -> tuple:
    """Integer numerators over the least common denominator of the values."""
    den = lcm(*(q.denominator for q in values))
    return [q.numerator * (den // q.denominator) for q in values], den


def _poly_divmod(num: list, den: list) -> tuple:
    """Division with remainder for dense rational polynomials (low-first)."""
    num = list(num)
    d = len(den) - 1
    lead = den[d]
    quot = [Fraction(0)] * max(len(num) - d, 0)
    for k in range(len(num) - 1, d - 1, -1):
        c = num[k] / lead
        if c:
            quot[k - d] = c
            for j in range(d + 1):
                num[k - d + j] -= c * den[j]
    while num and not num[-1]:
        num.pop()
    return quot, num


@dataclass(frozen=True)
class NumberField:
    """Q[a]/(min_poly); degree 1 means the base field is Q itself.

    zero() and one() return one prebuilt element each, and from_rational
    converts each int once and keeps the element in ``_ints``.
    ``_cleared`` holds min_poly with its denominators cleared, as (D,
    D^(d-1), the nonzero (j, P_j) with j < d) for P = D*min_poly in
    integers.  None of these takes part in equality or hashing.
    """

    min_poly: tuple
    _zero: "FieldElement" = dc_field(init=False, compare=False, repr=False)
    _one: "FieldElement" = dc_field(init=False, compare=False, repr=False)
    _cleared: tuple = dc_field(init=False, compare=False, repr=False)
    _ints: dict = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        coeffs = tuple(as_fraction(c) for c in self.min_poly)
        if len(coeffs) < 2:
            raise InputError("min_poly must have degree >= 1")
        if coeffs[-1] != 1:
            raise InputError("min_poly must be monic")
        d = len(coeffs) - 1
        if d > 1:
            # gcd(p, p') by Euclid: a common factor means a repeated root.
            # Each remainder is made monic, which keeps its coefficients
            # from growing exponentially in the degree.
            r0 = list(coeffs)
            r1 = [c * k for k, c in enumerate(coeffs)][1:]
            while r1:
                r1 = [c / r1[-1] for c in r1]
                r0, r1 = r1, _poly_divmod(r0, r1)[1]
            if len(r0) > 1:
                raise InputError("min_poly must be square-free")
        P, D = _common_denominator(coeffs)
        low = tuple((j, p) for j, p in enumerate(P[:-1]) if p)
        object.__setattr__(self, "min_poly", coeffs)
        object.__setattr__(self, "_cleared", (D, D ** (d - 1), low))
        object.__setattr__(self, "_ints", {})
        object.__setattr__(self, "_zero", self.from_rational(0))
        object.__setattr__(self, "_one", self.from_rational(1))

    @property
    def degree(self) -> int:
        return len(self.min_poly) - 1

    def element(self, coords: Iterable[RationalLike]) -> "FieldElement":
        return FieldElement(self, coords)

    def from_rational(self, v: RationalLike) -> "FieldElement":
        if v.__class__ is int:
            e = self._ints.get(v)
            if e is None:
                e = self._ints[v] = _new(self, (v,) + (0,) * (self.degree - 1), 1)
            return e
        n, den = _ratio(v)
        return _new(self, (n,) + (0,) * (self.degree - 1), den)

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def generator(self) -> "FieldElement":
        """The class of a; equals 1 when the field is Q (degree 1)."""
        if self.degree == 1:
            # a = -min_poly[0] is the unique root of a degree-1 min_poly.
            return self.from_rational(-self.min_poly[0])
        return _new(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def _reduce(self, coeffs: list, den: int) -> "FieldElement":
        """coeffs/den, integer coordinates of length <= 2d-1, modulo min_poly.

        With P = D*min_poly, a^k = -a^(k-d)*(sum_j P_j a^j)/D.  Multiplying
        by D^(d-1) first makes every top coefficient met on the way down
        divisible by D, so the reduction stays in integers.
        """
        D, scale, low = self._cleared
        d = len(self.min_poly) - 1
        if scale != 1:
            coeffs = [scale * c for c in coeffs]
            den *= scale
        for k in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[k] // D
            if c:
                for j, p in low:
                    coeffs[k - d + j] -= c * p
        del coeffs[d:]
        coeffs += [0] * (d - len(coeffs))
        return _make(self, coeffs, den)


def _make(field: NumberField, num, den: int) -> "FieldElement":
    """The element num/den for den > 0, brought to lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _new(field, tuple(num), den)


class FieldElement:
    """num/den: integer coordinates over one positive common denominator.

    ``FieldElement(field, coords)`` takes the d coordinates as rationals;
    arithmetic builds its results in integers.  Instances are immutable.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, coords: Iterable[RationalLike]):
        vec = [as_fraction(c) for c in coords]
        if len(vec) != field.degree:
            raise InputError(
                "expected %d coordinates, got %d" % (field.degree, len(vec))
            )
        num, den = _common_denominator(vec)
        _set_field(self, field)
        _set_num(self, tuple(num))
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def __delattr__(self, name):
        raise AttributeError("FieldElement is immutable")

    @property
    def coords(self) -> tuple:
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    def __eq__(self, other) -> bool:
        if other.__class__ is not FieldElement:
            return NotImplemented
        return (
            self.num == other.num
            and self.den == other.den
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self) -> int:
        # Equal elements share their field, so it need not be hashed.
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return "FieldElement(field=%r, coords=%r)" % (self.field, self.coords)

    def __bool__(self) -> bool:
        return any(self.num)

    # +, - and * check the field with `is` first, and bring a rational result
    # (or a rational times an extension element) to lowest terms and allocate
    # it in place: they are the hottest calls, and helper calls cost more
    # than the arithmetic.  A product by one returns the other factor, which
    # immutability makes safe; the result keeps self.field.

    def __add__(self, other: "FieldElement") -> "FieldElement":
        field = self.field
        if other.field is not field and other.field != field:
            raise InputError("mismatched field contexts")
        dx, dy = self.den, other.den
        return _make(field, [a * dy + b * dx for a, b in zip(self.num, other.num)], dx * dy)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        field = self.field
        if other.field is not field and other.field != field:
            raise InputError("mismatched field contexts")
        dx, dy = self.den, other.den
        return _make(field, [a * dy - b * dx for a, b in zip(self.num, other.num)], dx * dy)

    def __neg__(self) -> "FieldElement":
        return _new(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        field = self.field
        if other.field is not field and other.field != field:
            raise InputError("mismatched field contexts")
        x, y = self.num, other.num
        one = field._one.num
        if other.den == 1 and y == one:
            return self
        if self.den == 1 and x == one and other.field is field:
            return other
        den = self.den * other.den
        if len(x) == 1:
            n = x[0] * y[0]
            if den != 1:
                g = gcd(n, den)
                if g != 1:
                    n, den = n // g, den // g
            num = (n,)
        else:
            # A rational factor scales the other's coordinates; nothing to reduce.
            if not any(y[1:]):
                x, y = y, x
            if any(x[1:]):
                d = len(x)
                prod = [0] * (2 * d - 1)
                for i, a in enumerate(x):
                    if not a:
                        continue
                    for j, b in enumerate(y):
                        if b:
                            prod[i + j] += a * b
                return field._reduce(prod, den)
            c = x[0]
            num = tuple([c * b for b in y])
            if den != 1:
                g = gcd(den, *num)
                if g != 1:
                    num, den = tuple([b // g for b in num]), den // g
        e = _alloc(FieldElement)
        _set_field(e, field)
        _set_num(e, num)
        _set_den(e, den)
        return e

    def inv(self) -> "FieldElement":
        """Multiplicative inverse: directly for a rational element, else via
        extended Euclid on (self, min_poly)."""
        if not self:
            raise InputError("inversion of zero")
        n, rest = self.num[0], self.num[1:]
        if not any(rest):
            # A rational inverts directly (rest is its zero coordinates),
            # with the sign moved to the numerator.
            if n < 0:
                return _new(self.field, (-self.den,) + rest, -n)
            return _new(self.field, (self.den,) + rest, n)
        # Extended Euclid over Q[x], keeping s_k*a = r_k modulo p.  Each
        # remainder is made monic, with its cofactor divided by the same
        # lead, which keeps the coefficients from growing exponentially in
        # the degree; the last remainder is then 1 and s_k is the inverse.
        a = list(self.coords)
        while a and not a[-1]:
            a.pop()
        r0, r1 = list(self.field.min_poly), a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            c = r1[-1]
            if c != 1:
                r1 = [rc / c for rc in r1]
                s1 = [sc / c for sc in s1]
            if len(r1) == 1:
                return self.field._reduce(*_common_denominator(s1))
            q, r = _poly_divmod(r0, r1)
            if not r:
                raise InputError("element is a zero divisor; min_poly not irreducible")
            s = list(s0)
            for i, qc in enumerate(q):
                if qc:
                    while len(s) < i + len(s1):
                        s.append(Fraction(0))
                    for j, sc in enumerate(s1):
                        s[i + j] -= qc * sc
            while s and not s[-1]:
                s.pop()
            r0, r1, s0, s1 = r1, r, s1, s

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inv()

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inv() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, q: RationalLike) -> "FieldElement":
        n, den = _ratio(q)
        return _make(self.field, [n * c for c in self.num], den * self.den)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise InputError("element is not rational")
        return Fraction(self.num[0], self.den)

    def to_json(self) -> list:
        return [fraction_str(c) for c in self.coords]

    def __str__(self) -> str:
        coords = self.coords
        if self.is_rational():
            return str(coords[0])
        parts = []
        for i, c in enumerate(coords):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%s*a" % c)
            else:
                parts.append("%s*a^%d" % (c, i))
        return " + ".join(parts) if parts else "0"


# Slot setters that bypass the immutability guard of __setattr__.
_set_field = FieldElement.field.__set__
_set_num = FieldElement.num.__set__
_set_den = FieldElement.den.__set__
_alloc = object.__new__


def _new(field: NumberField, num: tuple, den: int) -> FieldElement:
    """num/den, already in lowest terms with den > 0."""
    e = _alloc(FieldElement)
    _set_field(e, field)
    _set_num(e, num)
    _set_den(e, den)
    return e


def element_from_json(field: NumberField, data: Sequence) -> FieldElement:
    if isinstance(data, (int, str)):
        return field.from_rational(as_fraction(data))
    return field.element([as_fraction(c) for c in data])


QQ = NumberField((Fraction(0), Fraction(1)))
