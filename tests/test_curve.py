"""Weights, branch factorization, and normalization maps."""

import inspect
import math
import random
from fractions import Fraction

import pytest

from qhc import curve as curve_module
from qhc.catalog import ADE_LABELS, catalog_get
from qhc.curve import (
    BranchKind,
    QuasiCurve,
    _solve_b,
    branch_conductor,
    factor,
    infer_weights,
    rational_roots,
)
from qhc.derivation import q_element
from qhc.errors import InputError, NotHomogeneousError
from qhc.field import QQ, NumberField
from qhc.module import ModuleElement, coordinate_ring, element_degrees
from qhc.poly import BiPoly, UniPoly, monomials_of_weight
from qhc.semigroup import gamma_formula

from conftest import (
    cusp_curve,
    poly_of,
    q_vector,
    random_reduced_curve,
    rational_poly,
    times,
    y_family_curve,
)
from test_linalg import reference_solve


def test_infer_weights_from_two_monomials():
    assert infer_weights(rational_poly(QQ, {(2, 0): 1, (0, 3): 1})) == (3, 2)


def test_infer_weights_with_mixed_monomial():
    assert infer_weights(rational_poly(QQ, {(2, 1): 1, (0, 4): 1})) == (3, 2)


def test_infer_weights_single_monomial_is_ambiguous():
    with pytest.raises(InputError, match="ambiguous"):
        infer_weights(rational_poly(QQ, {(5, 0): 1}))


def test_infer_weights_rejects_inhomogeneous_input():
    with pytest.raises(InputError, match="not quasi-homogeneous"):
        infer_weights(rational_poly(QQ, {(2, 0): 1, (3, 0): 1}))


def test_factor_axis_and_binomial():
    # y * (x^2 - y^3) over Q with weights (3, 2)
    f = rational_poly(QQ, {(2, 1): 1, (0, 4): -1})
    unit, branches = factor(f, (3, 2), QQ)
    assert unit == QQ.one()
    assert [br.kind for br in branches] == [BranchKind.AXIS_Y, BranchKind.BINOMIAL]
    assert branches[1].a == QQ.from_rational(-1)
    assert branches[1].b == QQ.one()


def test_factor_x_axis_case():
    # x^3 + x*y^3 = x * (x^2 + y^3)
    f = rational_poly(QQ, {(3, 0): 1, (1, 3): 1})
    unit, branches = factor(f, (3, 2), QQ)
    assert unit == QQ.one()
    assert [br.kind for br in branches] == [BranchKind.AXIS_X, BranchKind.BINOMIAL]
    assert branches[1].a == QQ.one()
    assert branches[1].b == QQ.from_rational(-1)


def test_factor_reports_missing_root():
    f = rational_poly(QQ, {(2, 0): 1, (0, 2): 1})
    with pytest.raises(InputError, match="root not in field"):
        factor(f, (1, 1), QQ)


def test_factor_rejects_repeated_branches():
    with pytest.raises(InputError, match="not reduced"):
        factor(rational_poly(QQ, {(2, 0): 1, (1, 1): 2, (0, 2): 1}), (1, 1), QQ)
    with pytest.raises(InputError, match="not reduced"):
        factor(rational_poly(QQ, {(2, 3): 1}), (3, 2), QQ)


def test_factor_preserves_the_unit():
    f = rational_poly(QQ, {(2, 1): 5, (0, 4): -5})
    unit, branches = factor(f, (3, 2), QQ)
    assert unit == QQ.from_rational(5)
    assert len(branches) == 2


def test_branch_conductor_values():
    assert branch_conductor(BranchKind.AXIS_Y, 3, 2) == 0
    assert branch_conductor(BranchKind.AXIS_X, 3, 2) == 0
    assert branch_conductor(BranchKind.BINOMIAL, 3, 2) == 2
    assert branch_conductor(BranchKind.BINOMIAL, 1, 1) == 0


def test_branch_data_violating_coefficient_equation_rejected():
    with pytest.raises(InputError, match="a\\*b"):
        QuasiCurve.create(
            QQ,
            rational_poly(QQ, {(2, 0): 1, (0, 3): 1}),
            (3, 2),
            [(BranchKind.BINOMIAL, QQ.one(), QQ.one())],
        )


def test_explicit_duplicate_branches_rejected():
    f = rational_poly(QQ, {(2, 0): 1, (0, 3): 1})
    seeds = [
        (BranchKind.BINOMIAL, QQ.one(), QQ.from_rational(-1)),
        (BranchKind.BINOMIAL, QQ.one(), QQ.from_rational(-1)),
    ]
    with pytest.raises(InputError, match="not reduced"):
        QuasiCurve.create(QQ, f * f, (3, 2), seeds)


def test_explicit_branches_must_expand_to_f():
    f = rational_poly(QQ, {(2, 1): 1, (0, 4): -1})
    with pytest.raises(InputError, match="does not match"):
        QuasiCurve.create(
            QQ, f, (3, 2), [(BranchKind.BINOMIAL, QQ.from_rational(-1), QQ.one())]
        )


def test_normalization_images_of_coordinates():
    curve = y_family_curve(3, 2)
    t = UniPoly.monomial(QQ, QQ.one(), 1)
    nx = curve.monomial_image(1, 0)
    ny = curve.monomial_image(0, 1)
    assert nx == [t, UniPoly.monomial(QQ, QQ.one(), 3)]
    assert ny == [UniPoly.zero(QQ), UniPoly.monomial(QQ, QQ.one(), 2)]
    one = QQ.one()
    assert [br.nx for br in curve.branches] == [(one, 1), (one, 3)]
    assert [br.ny for br in curve.branches] == [None, (one, 2)]


def test_normalization_kills_f():
    for curve in (y_family_curve(3, 2), cusp_curve()):
        assert curve.normalization_image(curve.f) == (None,) * curve.r
        assert curve.normalization_image(BiPoly.zero(QQ)) == (None,) * curve.r


def test_branch_table_data():
    curve = y_family_curve(3, 2)
    axis, binom = curve.branches
    assert (axis.weight, axis.t_degree, axis.conductor) == (2, 3, 0)
    assert (binom.weight, binom.t_degree, binom.conductor) == (6, 1, 2)
    assert curve.wf == 8


def test_normalization_is_a_graded_ring_homomorphism(rng):
    curve = y_family_curve(3, 2)
    for _ in range(100):
        h1 = _random_homogeneous(rng, curve)
        h2 = _random_homogeneous(rng, curve)
        n1 = curve.normalization_image(h1)
        n2 = curve.normalization_image(h2)
        assert curve.normalization_image(h1 * h2) == tuple(map(times, n1, n2))
        w = h1.weighted_degree(curve.wx, curve.wy)
        if h2.weighted_degree(curve.wx, curve.wy) == w:
            assert [poly_of(QQ, n) for n in curve.normalization_image(h1 + h2)] == [
                poly_of(QQ, a) + poly_of(QQ, b) for a, b in zip(n1, n2)
            ]
        else:
            with pytest.raises(NotHomogeneousError):
                curve.normalization_image(h1 + h2)
        for br, img in zip(curve.branches, n1):
            if img is not None:
                assert img[0] and img[1] * br.t_degree == w


def _random_homogeneous(rng, curve):
    while True:
        w = rng.randint(0, 14)
        monos = monomials_of_weight(curve.wx, curve.wy, w)
        if monos:
            break
    terms = {rng.choice(monos): Fraction(rng.randint(1, 4))}
    return rational_poly(QQ, terms)


def test_branch_polynomials_are_homogeneous():
    curve = y_family_curve(5, 2)
    for br in curve.branches:
        p = br.poly(curve.field, curve.wx, curve.wy)
        assert p.weighted_degree(curve.wx, curve.wy) == br.weight


def test_branch_ordering_is_deterministic():
    # axis branches first, then binomial branches by coefficient order
    f = rational_poly(QQ, {(3, 1): 1, (1, 2): -1})  # x*y*(x^2 - y), weights (1, 2)
    unit, branches = factor(f, (1, 2), QQ)
    assert [br.kind for br in branches] == [
        BranchKind.AXIS_X,
        BranchKind.AXIS_Y,
        BranchKind.BINOMIAL,
    ]


def test_rational_roots_with_multiplicity():
    # (u - 1)^2 (u + 2) = u^3 - 3u + 2
    roots = rational_roots([2, -3, 0, 1])
    assert roots == [(Fraction(-2), 1), (Fraction(1), 2)]
    assert rational_roots([0, 0, 1]) == [(Fraction(0), 2)]


def _outcome(call):
    """The value of call(), or the message of the InputError it raises."""
    try:
        return call()
    except InputError as exc:
        return str(exc)


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _reference_solve_b(a, wx):
    """b as solved before exact roots: the least rational root of X^wx + 1/a by
    (numerator, denominator), found by trial division: a root p/q in lowest
    terms has p dividing the numerator and q the denominator of -1/a."""
    target = -1 / a.as_rational()
    num, den = target.numerator, target.denominator
    roots = sorted(
        (Fraction(s * p, q) for p in _divisors(num) for q in _divisors(den) for s in (1, -1)
         if (s * p) ** wx * den == num * q ** wx),
        key=lambda r: (r.numerator, r.denominator),
    )
    if not roots:
        raise InputError("b_i not in field: u^%d + %s" % (wx, (QQ.one() / a)))
    return QQ.from_rational(roots[0])


def test_solve_b_agrees_with_trial_division():
    bases = {Fraction(s * p, q) for s in (1, -1) for p in range(1, 13) for q in range(1, 13)}
    compared = roots = 0
    for wx in range(1, 8):
        for target in sorted(bases | {r ** wx for r in bases}):
            a = QQ.from_rational(-1 / target)
            expected = _outcome(lambda: _reference_solve_b(a, wx))
            assert _outcome(lambda: _solve_b(QQ, a, wx)) == expected, (wx, target)
            compared += 1
            roots += not isinstance(expected, str)
    assert compared > 2000 and 0 < roots < compared


def test_solve_b_takes_roots_of_forty_digit_powers():
    b = Fraction(123456789012345678901, 9876543210987)
    for wx, expected in ((2, -b), (3, b), (3, -b)):
        target = expected ** wx
        assert len(str(target.numerator)) >= 40
        a = QQ.from_rational(-1 / target)
        assert _solve_b(QQ, a, wx) == QQ.from_rational(expected)
        near = QQ.from_rational(-1 / (target + 1))
        with pytest.raises(InputError, match="b_i not in field"):
            _solve_b(QQ, near, wx)


def _reference_rational_roots(coeffs):
    """Rational roots as found before linear factors were read directly:
    every +-p/q with p | c_0 and q | c_s is tried in (numerator, denominator)
    order, deflating each root found, until the remainder is constant."""
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:
        raise InputError("root finding on the zero polynomial")
    den_lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den_lcm) for c in coeffs]
    zero_mult = 0
    while ints and ints[0] == 0:
        ints.pop(0)
        zero_mult += 1
    candidates = set()
    if ints:
        for p in _divisors(ints[0]):
            for q in _divisors(ints[-1]):
                candidates.update((Fraction(p, q), Fraction(-p, q)))
    roots = [(Fraction(0), zero_mult)] if zero_mult else []

    def eval_at(cs, r):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * r + c
        return acc

    work = [Fraction(c) for c in ints]
    for r in sorted(candidates, key=lambda q: (q.numerator, q.denominator)):
        if len(work) <= 1:
            break
        mult = 0
        while len(work) > 1 and eval_at(work, r) == 0:
            work = curve_module._deflate(work, r)
            mult += 1
        if mult:
            roots.append((r, mult))
    return sorted(roots, key=lambda t: (t[0].numerator, t[0].denominator))


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


_IRREDUCIBLE = ([1, 0, 1], [-2, 0, 1], [1, 1, 1], [1, 0, 0, 2])  # u^2+1, u^2-2, u^2+u+1, 2u^3+1


def random_root_polys(rng, count):
    """Seeded low-first polynomials of degree 0-5: a unit times linear factors
    u - p/q with |p|, |q| <= 8 (zero and repeated roots included), some times
    u^2+1, u^2-2, u^2+u+1 or 2u^3+1."""
    polys = []
    while len(polys) < count:
        degree = rng.randint(0, 5)
        poly = [Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 2, 7]))]
        if degree >= 2 and rng.random() < 0.3:
            extra = rng.choice([e for e in _IRREDUCIBLE if len(e) - 1 <= degree])
            poly = _poly_mul(poly, [Fraction(c) for c in extra])
        roots = []
        while len(poly) - 1 < degree:
            if roots and rng.random() < 0.25:
                root = rng.choice(roots)
            else:
                root = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
            roots.append(root)
            poly = _poly_mul(poly, [-root, Fraction(1)])
        polys.append(poly)
    return polys


def _mutant_rational_roots(old, new):
    """rational_roots with one line of its source replaced."""
    source = inspect.getsource(curve_module.rational_roots)
    assert source.count(old) == 1
    namespace = dict(vars(curve_module))
    exec(source.replace(old, new), namespace)
    return namespace["rational_roots"]


def test_rational_roots_agrees_with_full_scan(rng):
    polys = random_root_polys(rng, 500)
    mutants = [
        _mutant_rational_roots("roots.append((r, mult))", "roots.append((r, 1))"),
        _mutant_rational_roots(
            "return sorted(roots, key=lambda t: (t[0].numerator, t[0].denominator))",
            "return roots",
        ),
    ]
    caught = [0] * len(mutants)
    read_off = repeated = irreducible = 0
    for poly in polys:
        expected = _reference_rational_roots(poly)
        assert rational_roots(poly) == expected, poly
        for k, mutant in enumerate(mutants):
            caught[k] += mutant(poly) != expected
        found = sum(m for _, m in expected)
        repeated += any(m > 1 for _, m in expected)
        irreducible += found < len(poly) - 1
        read_off += found == len(poly) - 1 > 0
    assert min(caught) > 0, caught
    assert read_off and repeated and irreducible


def test_factor_errors_agree_with_full_scan(rng, monkeypatch):
    # P(u) with u = y^wx/x^wy becomes f = sum_j c_j x^{(s-j)wy} y^{j*wx}.
    outcomes = {}
    for finder in (rational_roots, _reference_rational_roots):
        monkeypatch.setattr(curve_module, "rational_roots", finder)
        rows = outcomes[finder] = []
        for poly in random_root_polys(random.Random(20261019), 300):
            s = len(poly) - 1
            for wx, wy in ((1, 1), (3, 2)):
                f = rational_poly(QQ, {((s - j) * wy, j * wx): c for j, c in enumerate(poly) if c})
                rows.append(_outcome(lambda: factor(f, (wx, wy), QQ)))
    new, old = outcomes[rational_roots], outcomes[_reference_rational_roots]
    assert new == old
    messages = {m.split(":")[0] for m in new if isinstance(m, str)}
    assert {"not reduced", "root not in field", "b_i not in field"} <= messages
    assert any(not isinstance(m, str) for m in new)


def test_only_the_mixed_factor_uses_trial_division(monkeypatch):
    calls = []
    real = curve_module.rational_roots

    def counting(coeffs):
        calls.append(list(coeffs))
        return real(coeffs)

    monkeypatch.setattr(curve_module, "rational_roots", counting)
    # (x^2 - y^3)(x^2 + 8y^3): with u = y^3/x^2 the mixed factor is
    # x^4 (1 + 7u - 8u^2), and b^3 = -1/a gives b = 1 and b = -1/2.
    f = rational_poly(QQ, {(4, 0): 1, (2, 3): 7, (0, 6): -8})
    _, branches = factor(f, (3, 2), QQ)
    assert calls == [[Fraction(1), Fraction(7), Fraction(-8)]]
    assert sorted(br.b.as_rational() for br in branches) == [Fraction(-1, 2), Fraction(1)]


def test_image_membership_zero_and_gap_targets():
    curve = y_family_curve(3, 2)
    zero_target = (None, None)
    assert curve.image_membership(zero_target, 5) == []
    # t_1^1 alone has degree 3 but 1 is a gap of the first branch semigroup
    target = ((QQ.one(), 1), None)
    assert curve.image_membership(target, 3) is None
    # t_1^3 is in the image in its degree 9, and no vector of degree 8
    target = ((QQ.one(), 3), None)
    assert curve.image_membership(target, 9) is not None
    assert curve.image_membership(target, 8) is None


def test_image_membership_witness_recombines(rng):
    curve = y_family_curve(3, 2)
    h = _random_homogeneous(rng, curve)
    w = h.weighted_degree(curve.wx, curve.wy)
    target = curve.normalization_image(h)
    witness = curve.image_membership(target, w)
    assert witness is not None
    total = [UniPoly.zero(QQ) for _ in curve.branches]
    for (a, b), c in witness:
        img = curve.monomial_image(a, b)
        total = [acc + p.scale(c) for acc, p in zip(total, img)]
    assert total == [poly_of(QQ, t) for t in target]


def test_random_curves_factor_consistently(rng):
    for _ in range(20):
        curve, r, unit = random_reduced_curve(rng)
        assert curve.r == r
        assert curve.unit == QQ.from_rational(unit)


def test_extension_fields_require_explicit_branches():
    fld = NumberField((1, 0, 1))
    f = BiPoly.make(fld, {(2, 0): fld.one(), (0, 2): fld.one()})
    with pytest.raises(InputError, match="explicit branches"):
        factor(f, (1, 1), fld)


# QuasiCurve.image_membership as it solved its own system before it asked
# the coordinate ring module, kept as a reference.


def reference_image_membership(curve, target, w):
    if all(t is None for t in target):
        return []
    rows = []  # (branch index, t-exponent) coordinates
    for i, br in enumerate(curve.branches):
        if w % br.t_degree == 0 and w >= 0:
            rows.append((i, w // br.t_degree))
    row_index = {key: pos for pos, key in enumerate(rows)}
    zero = curve.field.zero()
    rhs = [zero] * len(rows)
    for i, t in enumerate(target):
        if t is not None:
            c, e = t
            if (i, e) not in row_index:
                return None
            rhs[row_index[(i, e)]] = c
    monos = monomials_of_weight(curve.wx, curve.wy, w)
    cols = []
    for a, b in monos:
        col = [zero] * len(rows)
        for i, p in enumerate(curve.monomial_image(a, b)):
            for e, c in p.terms:
                col[row_index[(i, e)]] = c
        cols.append(col)
    if not rows:
        return None
    matrix = [[cols[j][k] for j in range(len(cols))] for k in range(len(rows))]
    sol = reference_solve(matrix, rhs, curve.field)[0]
    if sol is None:
        return None
    return [(monos[j], c) for j, c in enumerate(sol) if c]


def _membership_targets(curve, rng):
    """(target, degree): t_i^gamma up to the conductor + 10, random n(h), q*n(x), q*n(y)."""
    field = curve.field
    for i, br in enumerate(curve.branches):
        for gamma in range(gamma_formula(curve, i).conductor + 11):
            target = [None] * curve.r
            target[i] = (field.one(), gamma)
            yield tuple(target), gamma * br.t_degree
    for _ in range(30):
        w = rng.randint(0, 3 * curve.wf)
        monos = monomials_of_weight(curve.wx, curve.wy, w)
        if monos:
            h = BiPoly.make(field, {
                ab: field.from_rational(rng.randint(-3, 3) or 1)
                for ab in rng.sample(monos, rng.randint(1, len(monos)))
            })
            yield curve.normalization_image(h), w
    q = q_vector(q_element(curve))
    lam = curve.wf - curve.wx - curve.wy
    for (a, b), wh in (((1, 0), curve.wx), ((0, 1), curve.wy)):
        yield tuple(map(times, q, curve.monomial_terms(a, b))), lam + wh


@pytest.mark.parametrize("label", list(ADE_LABELS) + ["Y_3_2", "Y_5_3", "Y_5_4"])
def test_image_membership_matches_the_reference(label):
    curve = catalog_get(label).curve()
    rng = random.Random(label)
    members = outsiders = 0
    for target, w in _membership_targets(curve, rng):
        expected = reference_image_membership(curve, target, w)
        assert curve.image_membership(target, w) == expected, (label, w, target)
        if expected is None:
            outsiders += 1
        else:
            members += 1
    assert members and outsiders


def _in_image(curve, target, w):
    """Whether the degree-w vector target lies in the image of A, asked of
    coordinate_ring(curve).is_member without a witness."""
    ring = coordinate_ring(curve)
    v = ModuleElement(curve.field, {(i, 0, t[1]): t[0] for i, t in enumerate(target) if t is not None})
    return element_degrees(curve, ring.cover, v) <= {w} and ring.is_member(v)


@pytest.mark.parametrize("label", ["A_3", "D_4", "E_6", "Y_5_3"])
def test_in_image_agrees_with_image_membership(label):
    curve = catalog_get(label).curve()
    rng = random.Random(label)
    answers = set()
    for target, w in _membership_targets(curve, rng):
        for degree in (w, w + 1):
            expected = curve.image_membership(target, degree) is not None
            assert _in_image(curve, target, degree) is expected, (label, degree, target)
            answers.add(expected)
    assert answers == {True, False}
    zero = (None,) * curve.r
    assert _in_image(curve, zero, 1) and curve.image_membership(zero, 1) == []
