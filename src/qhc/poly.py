"""Sparse exact polynomials: univariate k[t] and bivariate k[x,y].

Coefficients live in a NumberField.  Representations are canonical
(no stored zeros, terms sorted by exponent) so equality is structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .errors import InputError, NotHomogeneousError
from .field import FieldElement, NumberField


def _clean(items: Mapping) -> tuple:
    return tuple(sorted((e, c) for e, c in items.items() if c))


@dataclass(frozen=True)
class UniPoly:
    """Element of k[t], stored as sorted (exponent, coefficient) pairs."""

    field: NumberField
    terms: tuple

    @staticmethod
    def make(field: NumberField, coeffs: Mapping[int, FieldElement]) -> "UniPoly":
        return UniPoly(field, _clean(coeffs))

    @staticmethod
    def zero(field: NumberField) -> "UniPoly":
        return UniPoly(field, ())

    @staticmethod
    def monomial(field: NumberField, coeff: FieldElement, exp: int) -> "UniPoly":
        if exp < 0:
            raise InputError("negative exponent in k[t]")
        return UniPoly.make(field, {exp: coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def as_dict(self) -> Dict[int, FieldElement]:
        return dict(self.terms)

    def degree(self) -> Optional[int]:
        return self.terms[-1][0] if self.terms else None

    def coeff(self, exp: int) -> FieldElement:
        for e, c in self.terms:
            if e == exp:
                return c
        return self.field.zero()

    def __add__(self, other: "UniPoly") -> "UniPoly":
        out = self.as_dict()
        for e, c in other.terms:
            out[e] = out[e] + c if e in out else c
        return UniPoly.make(self.field, out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.field, tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        out: Dict[int, FieldElement] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                p = c1 * c2
                out[e] = out[e] + p if e in out else p
        return UniPoly.make(self.field, out)

    def scale(self, c: FieldElement) -> "UniPoly":
        # A nonzero constant keeps the terms sorted and nonzero.
        if not c:
            return UniPoly.zero(self.field)
        return UniPoly(self.field, tuple((e, c * v) for e, v in self.terms))

    def __pow__(self, n: int) -> "UniPoly":
        result = UniPoly.monomial(self.field, self.field.one(), 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        """Quotient self/other, raising when the division is not exact."""
        if not other:
            raise InputError("division by zero polynomial")
        rem = self.as_dict()
        de, dc = other.terms[-1]
        quot: Dict[int, FieldElement] = {}
        while rem:
            e = max(rem)
            if e < de:
                break
            c = rem[e] / dc
            quot[e - de] = c
            for oe, oc in other.terms:
                k = e - de + oe
                v = rem.get(k, self.field.zero()) - c * oc
                if v:
                    rem[k] = v
                elif k in rem:
                    del rem[k]
        if rem:
            raise InputError(
                "non-exact division: remainder %s" % UniPoly.make(self.field, rem)
            )
        return UniPoly.make(self.field, quot)

    def derivative(self) -> "UniPoly":
        return UniPoly.make(
            self.field, {e - 1: c.scale(e) for e, c in self.terms if e > 0}
        )

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def monomial_parts(self) -> Tuple[FieldElement, int]:
        if not self.is_monomial():
            raise InputError("not a monomial: %s" % self)
        e, c = self.terms[0]
        return c, e

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append("(%s)" % c)
            elif e == 1:
                parts.append("(%s)*t" % c)
            else:
                parts.append("(%s)*t^%d" % (c, e))
        return " + ".join(parts)


@dataclass(frozen=True)
class BiPoly:
    """Element of k[x,y], stored as sorted ((x-exp, y-exp), coeff) pairs."""

    field: NumberField
    terms: tuple

    @staticmethod
    def make(field: NumberField, coeffs: Mapping) -> "BiPoly":
        return BiPoly(field, _clean(coeffs))

    @staticmethod
    def zero(field: NumberField) -> "BiPoly":
        return BiPoly(field, ())

    @staticmethod
    def monomial(field: NumberField, coeff: FieldElement, xe: int, ye: int) -> "BiPoly":
        if xe < 0 or ye < 0:
            raise InputError("negative exponent in k[x,y]")
        return BiPoly.make(field, {(xe, ye): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def as_dict(self) -> Dict[tuple, FieldElement]:
        return dict(self.terms)

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = self.as_dict()
        for e, c in other.terms:
            out[e] = out[e] + c if e in out else c
        return BiPoly.make(self.field, out)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __neg__(self) -> "BiPoly":
        return BiPoly(self.field, tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        out: Dict[tuple, FieldElement] = {}
        for (a1, b1), c1 in self.terms:
            for (a2, b2), c2 in other.terms:
                key = (a1 + a2, b1 + b2)
                p = c1 * c2
                out[key] = out[key] + p if key in out else p
        return BiPoly.make(self.field, out)

    def scale(self, c: FieldElement) -> "BiPoly":
        return BiPoly.make(self.field, {e: c * v for e, v in self.terms})

    def __pow__(self, n: int) -> "BiPoly":
        result = BiPoly.monomial(self.field, self.field.one(), 0, 0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def dx(self) -> "BiPoly":
        return BiPoly.make(
            self.field,
            {(a - 1, b): c.scale(a) for (a, b), c in self.terms if a > 0},
        )

    def dy(self) -> "BiPoly":
        return BiPoly.make(
            self.field,
            {(a, b - 1): c.scale(b) for (a, b), c in self.terms if b > 0},
        )

    def weighted_degrees(self, wx: int, wy: int) -> frozenset:
        return frozenset(a * wx + b * wy for (a, b), _ in self.terms)

    def weighted_degree(self, wx: int, wy: int) -> int:
        """Weight of a quasi-homogeneous polynomial; raises otherwise."""
        if not self.terms:
            raise InputError("weighted degree of the zero polynomial")
        degrees = self.weighted_degrees(wx, wy)
        if len(degrees) != 1:
            raise NotHomogeneousError(degrees)
        return next(iter(degrees))

    def evaluate(self, px: UniPoly, py: UniPoly) -> UniPoly:
        """Substitute univariate images for x and y (ring homomorphism)."""
        out = UniPoly.zero(self.field)
        cache_x: Dict[int, UniPoly] = {}
        cache_y: Dict[int, UniPoly] = {}
        for (a, b), c in self.terms:
            if a not in cache_x:
                cache_x[a] = px ** a
            if b not in cache_y:
                cache_y[b] = py ** b
            out = out + (cache_x[a] * cache_y[b]).scale(c)
        return out

    def exact_div(self, other: "BiPoly") -> "BiPoly":
        """Quotient self/other for exact bivariate division (lex-leading)."""
        if not other:
            raise InputError("division by zero polynomial")
        rem = self.as_dict()
        lead = max(other.terms, key=lambda t: t[0])[0]
        lc = dict(other.terms)[lead]
        quot: Dict[tuple, FieldElement] = {}
        while rem:
            e = max(rem)
            qa, qb = e[0] - lead[0], e[1] - lead[1]
            if qa < 0 or qb < 0:
                raise InputError(
                    "non-exact division: remainder %s" % BiPoly.make(self.field, rem)
                )
            c = rem[e] / lc
            q = (qa, qb)
            quot[q] = quot[q] + c if q in quot else c
            for (oa, ob), oc in other.terms:
                key = (qa + oa, qb + ob)
                v = rem.get(key, self.field.zero()) - c * oc
                if v:
                    rem[key] = v
                elif key in rem:
                    del rem[key]
        return BiPoly.make(self.field, quot)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, b), c in self.terms:
            mono = []
            if a:
                mono.append("x" if a == 1 else "x^%d" % a)
            if b:
                mono.append("y" if b == 1 else "y^%d" % b)
            parts.append("(%s)%s" % (c, ("*" + "*".join(mono)) if mono else ""))
        return " + ".join(parts)


def monomials_of_weight(wx: int, wy: int, w: int) -> list:
    """All (a, b) with a*wx + b*wy = w, a, b >= 0, in ascending x-exponent."""
    out = []
    if w < 0:
        return out
    for a in range(0, w // wx + 1):
        rest = w - a * wx
        if rest % wy == 0:
            out.append((a, rest // wy))
    return out
