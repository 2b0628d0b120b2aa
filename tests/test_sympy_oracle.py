"""Differential tests against sympy as an independent oracle (test-only)."""

import math
import random
from fractions import Fraction

import pytest

from qhc.curve import BranchKind, factor, rational_roots
from qhc.field import QQ

from conftest import rational_poly
from test_curve import random_root_polys

sympy = pytest.importorskip("sympy")

u, x, y = sympy.symbols("u x y")


def _fraction(q):
    return Fraction(int(q.p), int(q.q))


def test_rational_roots_agree_with_sympy_ground_roots(rng):
    for poly in random_root_polys(rng, 500):
        high_first = [sympy.Rational(c.numerator, c.denominator) for c in reversed(poly)]
        found = sympy.Poly(high_first, u, domain="QQ").ground_roots()
        expected = sorted(
            ((_fraction(r), m) for r, m in found.items()),
            key=lambda t: (t[0].numerator, t[0].denominator),
        )
        assert rational_roots(poly) == expected, poly


def _random_reduced_f(rng):
    """(f, weights) for unit * (axis branches) * 1-3 distinct binomials over Q."""
    while True:
        wx, wy = rng.randint(1, 5), rng.randint(1, 5)
        if math.gcd(wx, wy) == 1:
            break
    a_vals = set()
    for _ in range(rng.randint(1, 3)):
        b = Fraction(rng.choice([1, -1]) * rng.randint(1, 5), rng.randint(1, 5))
        a_vals.add(-1 / b ** wx)
    unit = Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 2, 5]))
    f = rational_poly(QQ, {(rng.randint(0, 1), rng.randint(0, 1)): unit})
    for a in sorted(a_vals):
        f = f * rational_poly(QQ, {(wy, 0): 1, (0, wx): a})
    return f, (wx, wy)


def _sympy_branches(f, wx, wy):
    """(unit, axis kinds, binomial a values) read from sympy.factor_list(f)."""
    expr = sum(
        sympy.Rational(c.as_rational().numerator, c.as_rational().denominator) * x**i * y**j
        for (i, j), c in f.terms
    )
    content, factors = sympy.factor_list(expr, x, y, domain="QQ")
    unit, axes, a_vals = _fraction(content), [], []
    for g, mult in factors:
        assert mult == 1
        g = sympy.Poly(g, x, y)
        if g.total_degree() == 1 and len(g.terms()) == 1:
            (monom, c), = g.terms()
            axes.append(BranchKind.AXIS_X if monom == (1, 0) else BranchKind.AXIS_Y)
            unit *= _fraction(c)
            continue
        lead, tail = g.coeff_monomial(x**wy), g.coeff_monomial(y**wx)
        assert len(g.terms()) == 2 and lead and tail, g
        unit *= _fraction(lead)
        a_vals.append(_fraction(tail) / _fraction(lead))
    return unit, sorted(axes, key=lambda k: k.value), sorted(a_vals)


def test_factor_agrees_with_sympy_factor_list():
    rng = random.Random(20261019)
    shapes = set()
    for _ in range(100):
        f, (wx, wy) = _random_reduced_f(rng)
        unit, branches = factor(f, (wx, wy), QQ)
        axes = sorted(
            (br.kind for br in branches if br.kind is not BranchKind.BINOMIAL),
            key=lambda k: k.value,
        )
        a_vals = sorted(br.a.as_rational() for br in branches if br.kind is BranchKind.BINOMIAL)
        assert (unit.as_rational(), axes, a_vals) == _sympy_branches(f, wx, wy), (f, wx, wy)
        shapes.add((len(axes), len(a_vals)))
    assert {n for n, _ in shapes} == {0, 1, 2} and {k for _, k in shapes} == {1, 2, 3}
