"""Shared fixtures and helpers for the qhc test suite."""

import math
import random
from fractions import Fraction

import pytest

from qhc.curve import QuasiCurve
from qhc.field import QQ
from qhc.poly import BiPoly, UniPoly


def rational_poly(field, terms):
    """BiPoly over `field` from a map (x-exp, y-exp) -> rational."""
    return BiPoly.make(
        field, {k: field.from_rational(Fraction(v)) for k, v in terms.items()}
    )


def times(s, t):
    """The product of two branch terms (c, e), None standing for zero."""
    return None if s is None or t is None else (s[0] * t[0], s[1] + t[1])


def poly_of(field, term):
    """The UniPoly c*t^e of a branch term (c, e), zero for None."""
    return UniPoly.zero(field) if term is None else UniPoly.monomial(field, *term)


def y_family_curve(m, n):
    """The curve y*(x^n - y^m) over Q with weights (m, n)."""
    assert math.gcd(m, n) == 1
    f = rational_poly(QQ, {(n, 1): 1, (0, m + 1): -1})
    return QuasiCurve.create(QQ, f, (m, n))


def cusp_curve():
    """x^2 + y^3 over Q with weights (3, 2): one binomial branch."""
    return QuasiCurve.create(QQ, rational_poly(QQ, {(2, 0): 1, (0, 3): 1}), (3, 2))


_B_POOL = [
    Fraction(p, q) * s for p in (1, 2, 3) for q in (1, 2, 3) for s in (1, -1)
]


def random_reduced_curve(rng, max_weight=7, max_branches=4):
    """A random reduced curve over Q built from explicit distinct branches.

    Returns (curve, branch count, unit) so callers can check the
    factorization round-trip against the construction.
    """
    while True:
        wx, wy = rng.randint(1, max_weight), rng.randint(1, max_weight)
        if math.gcd(wx, wy) == 1:
            break
    r = rng.randint(1, max_branches)
    axes = rng.sample(["x", "y"], rng.randint(0, min(2, r)))
    a_vals = []
    while len(a_vals) < r - len(axes):
        b = rng.choice(_B_POOL)
        a = Fraction(-1) / b ** wx
        if a not in a_vals:
            a_vals.append(a)
    unit = rng.choice([Fraction(1), Fraction(2), Fraction(-1), Fraction(3, 2)])
    f = BiPoly.monomial(
        QQ, QQ.from_rational(unit), 1 if "x" in axes else 0, 1 if "y" in axes else 0
    )
    for a in a_vals:
        f = f * rational_poly(QQ, {(wy, 0): 1, (0, wx): a})
    return QuasiCurve.create(QQ, f, (wx, wy)), r, unit


@pytest.fixture
def rng():
    return random.Random(20260823)
