"""Exact arithmetic in Q and in simple extensions Q[a]/(p).

The coefficient field is either the rationals (min_poly of degree 1) or
Q[a]/(p) for a monic rational polynomial p of degree d > 1, trusted to be
irreducible.  Elements are coordinate vectors of length d over Fraction;
all operations are exact and fully reduced modulo p.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import InputError

RationalLike = Union[int, Fraction, str]


def as_fraction(v: RationalLike) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise InputError("not a rational value: %r" % (v,))


def fraction_str(q: Fraction) -> str:
    return "%d/%d" % (q.numerator, q.denominator)


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

    zero() and one() return one prebuilt element each; they take no part
    in equality or hashing.
    """

    min_poly: tuple
    _zero: "FieldElement" = dc_field(init=False, compare=False, repr=False)
    _one: "FieldElement" = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        coeffs = tuple(as_fraction(c) for c in self.min_poly)
        if len(coeffs) < 2:
            raise InputError("min_poly must have degree >= 1")
        if coeffs[-1] != 1:
            raise InputError("min_poly must be monic")
        object.__setattr__(self, "min_poly", coeffs)
        object.__setattr__(self, "_zero", self.from_rational(0))
        object.__setattr__(self, "_one", self.from_rational(1))

    @property
    def degree(self) -> int:
        return len(self.min_poly) - 1

    def element(self, coords: Iterable[RationalLike]) -> "FieldElement":
        vec = tuple(as_fraction(c) for c in coords)
        if len(vec) != self.degree:
            raise InputError(
                "expected %d coordinates, got %d" % (self.degree, len(vec))
            )
        return FieldElement(self, vec)

    def from_rational(self, v: RationalLike) -> "FieldElement":
        coords = [as_fraction(v)] + [Fraction(0)] * (self.degree - 1)
        return FieldElement(self, tuple(coords))

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def generator(self) -> "FieldElement":
        """The class of a; equals 1 when the field is Q (degree 1)."""
        if self.degree == 1:
            # a = -min_poly[0] is the unique root of a degree-1 min_poly.
            return self.from_rational(-self.min_poly[0])
        coords = [Fraction(0)] * self.degree
        coords[1] = Fraction(1)
        return FieldElement(self, tuple(coords))

    def _reduce(self, coeffs: list) -> tuple:
        """Reduce a coordinate list of length <= 2d-1 modulo min_poly."""
        d = self.degree
        coeffs = list(coeffs)
        for k in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[k]
            if c:
                coeffs[k] = Fraction(0)
                for j in range(d):
                    coeffs[k - d + j] -= c * self.min_poly[j]
        coeffs = coeffs[:d] + [Fraction(0)] * (d - len(coeffs))
        return tuple(coeffs[:d])


@dataclass(frozen=True)
class FieldElement:
    field: NumberField
    coords: tuple

    def _check(self, other: "FieldElement") -> None:
        if self.field is not other.field and self.field != other.field:
            raise InputError("mismatched field contexts")

    def __bool__(self) -> bool:
        return any(self.coords)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(
            self.field, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(
            self.field, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        x, y = self.coords, other.coords
        if len(x) == 1:
            return FieldElement(self.field, (x[0] * y[0],))
        # A rational factor scales the other's coordinates; nothing to reduce.
        if not any(y[1:]):
            x, y = y, x
        if not any(x[1:]):
            c = x[0]
            return FieldElement(self.field, tuple(c * b for b in y))
        d = len(x)
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(x):
            if not a:
                continue
            for j, b in enumerate(y):
                if b:
                    prod[i + j] += a * b
        return FieldElement(self.field, self.field._reduce(prod))

    def inv(self) -> "FieldElement":
        """Multiplicative inverse via extended Euclid on (self, min_poly)."""
        if not self:
            raise InputError("inversion of zero")
        if self.field.degree == 1:
            return FieldElement(self.field, (1 / self.coords[0],))
        # Extended Euclid over Q[x]: s*a + t*p = gcd = constant.
        a = list(self.coords)
        while a and not a[-1]:
            a.pop()
        r0, r1 = list(self.field.min_poly), a
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
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
        if not r1:
            raise InputError("element is a zero divisor; min_poly not irreducible")
        c = r1[0]
        inv_coeffs = [sc / c for sc in s1]
        return FieldElement(self.field, self.field._reduce(inv_coeffs))

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
        q = as_fraction(q)
        return FieldElement(self.field, tuple(q * c for c in self.coords))

    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise InputError("element is not rational")
        return self.coords[0]

    def to_json(self) -> list:
        return [fraction_str(c) for c in self.coords]

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.coords[0])
        parts = []
        for i, c in enumerate(self.coords):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("%s*a" % c)
            else:
                parts.append("%s*a^%d" % (c, i))
        return " + ".join(parts) if parts else "0"


def element_from_json(field: NumberField, data: Sequence) -> FieldElement:
    if isinstance(data, (int, str)):
        return field.from_rational(as_fraction(data))
    return field.element([as_fraction(c) for c in data])


QQ = NumberField((Fraction(0), Fraction(1)))
