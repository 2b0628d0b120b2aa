"""Quasi-homogeneous plane curves k[x,y]/(f).

Weight inference, factorization of f into axis and binomial branches,
per-branch normalization maps into k[t_i], and exact graded membership in
the image of the normalization with a witness (image_membership), decided
by the graded module kernel (module.coordinate_ring, the cyclic module
A*(1,...,1)).  A branch image is a term (c, e), meaning c*t_i^e, or None
where it vanishes: n_i(x), n_i(y), the image of a monomial (monomial_terms)
and of a homogeneous h (normalization_image) are all one term per branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import ConsistencyError, InputError
from .field import FieldElement, NumberField, as_fraction
from .poly import BiPoly, UniPoly


class BranchKind(Enum):
    AXIS_X = "axis_x"  # f_i = x
    AXIS_Y = "axis_y"  # f_i = y
    BINOMIAL = "binomial"  # f_i = x^{w_y} + a_i * y^{w_x}


@dataclass(frozen=True)
class Branch:
    kind: BranchKind
    a: Optional[FieldElement]  # binomial coefficient, None for axis kinds
    b: Optional[FieldElement]  # root of a*b^{w_x} = -1, None for axis kinds
    weight: int  # w_i = deg(f_i)
    t_degree: int  # d_i = deg(t_i)
    conductor: int  # c(A_i)
    nx: Optional[tuple]  # n_i(x) as a term (c, e), None where it vanishes
    ny: Optional[tuple]  # n_i(y) likewise

    def poly(self, field: NumberField, wx: int, wy: int) -> BiPoly:
        if self.kind is BranchKind.AXIS_X:
            return BiPoly.monomial(field, field.one(), 1, 0)
        if self.kind is BranchKind.AXIS_Y:
            return BiPoly.monomial(field, field.one(), 0, 1)
        return BiPoly.make(field, {(wy, 0): field.one(), (0, wx): self.a})


def branch_conductor(kind: BranchKind, wx: int, wy: int) -> int:
    """c(A_i): zero for smooth axis branches, (w_x-1)(w_y-1) otherwise."""
    if kind is BranchKind.BINOMIAL:
        return (wx - 1) * (wy - 1)
    return 0


def _make_branch(
    kind: BranchKind,
    field: NumberField,
    wx: int,
    wy: int,
    a: Optional[FieldElement] = None,
    b: Optional[FieldElement] = None,
) -> Branch:
    one = field.one()
    if kind is BranchKind.AXIS_X:
        return Branch(kind, None, None, wx, wy, 0, None, (one, 1))
    if kind is BranchKind.AXIS_Y:
        return Branch(kind, None, None, wy, wx, 0, (one, 1), None)
    if a is None or b is None:
        raise InputError("binomial branch needs both a and b")
    if not a:
        raise InputError("binomial coefficient a must be nonzero")
    if a * b ** wx != -one:
        raise InputError("branch data violates a*b^w_x = -1")
    return Branch(kind, a, b, wx * wy, 1, branch_conductor(kind, wx, wy), (one, wx), (b, wy))


def infer_weights(f: BiPoly) -> Tuple[int, int]:
    """The unique coprime positive weights making f homogeneous."""
    exps = [e for e, _ in f.terms]
    if not exps:
        raise InputError("cannot infer weights of the zero polynomial")
    base = exps[0]
    ratio = None  # (wx, wy) up to scaling
    for a, b in exps[1:]:
        da, db = a - base[0], b - base[1]
        if da == 0 and db == 0:
            continue
        if da == 0 or db == 0:
            raise InputError("not quasi-homogeneous")
        # da*wx + db*wy = 0 with positive weights needs opposite signs.
        if (da > 0) == (db > 0):
            raise InputError("not quasi-homogeneous")
        g = math.gcd(abs(da), abs(db))
        cand = (abs(db) // g, abs(da) // g)
        if ratio is None:
            ratio = cand
        elif ratio != cand:
            raise InputError("not quasi-homogeneous")
    if ratio is None:
        raise InputError("ambiguous")
    return ratio


def rational_roots(coeffs: Sequence[Fraction]) -> List[Tuple[Fraction, int]]:
    """Rational roots with multiplicity, sorted by (numerator, denominator).

    coeffs are low-first rational coefficients of a nonzero polynomial.
    Past the zero roots, a factor of degree >= 2 is searched by trial
    division over +-p/q (p | c_0, q | c_s), deflating each root found; a
    linear one, from the start or after deflation, has its root read directly.
    """
    coeffs = [as_fraction(c) for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:
        raise InputError("root finding on the zero polynomial")
    den_lcm = 1
    for c in coeffs:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in coeffs]
    zero_mult = 0
    while ints and ints[0] == 0:
        ints.pop(0)
        zero_mult += 1

    def divisors(n: int) -> List[int]:
        n = abs(n)
        out = []
        for d in range(1, int(math.isqrt(n)) + 1):
            if n % d == 0:
                out.append(d)
                out.append(n // d)
        return sorted(set(out))

    roots = []
    if zero_mult:
        roots.append((Fraction(0), zero_mult))

    def eval_at(cs, r):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * r + c
        return acc

    work = [Fraction(c) for c in ints]
    if len(work) > 2:
        qs = divisors(ints[-1])
        candidates = {Fraction(s * p, q) for p in divisors(ints[0]) for q in qs for s in (1, -1)}
        for r in sorted(candidates, key=lambda q: (q.numerator, q.denominator)):
            mult = 0
            while len(work) > 1 and eval_at(work, r) == 0:
                work = _deflate(work, r)
                mult += 1
            if mult:
                roots.append((r, mult))
            if len(work) <= 2:
                break
    if len(work) == 2:
        # Every root tried was deflated with its full multiplicity, so the
        # root of a linear remainder is a new one.
        roots.append((-work[0] / work[1], 1))
    return sorted(roots, key=lambda t: (t[0].numerator, t[0].denominator))


def _deflate(cs: List[Fraction], r: Fraction) -> List[Fraction]:
    """Synthetic division of low-first coefficients by (x - r), exact by assumption."""
    out = []
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * r + c
        out.append(acc)
    out.pop()  # remainder, zero
    return list(reversed(out))


def factor(
    f: BiPoly, weights: Tuple[int, int], field: NumberField
) -> Tuple[FieldElement, List[Branch]]:
    """Factor f = u * f_1 ... f_r into axis and binomial branches.

    Automatic root extraction works over Q only; over an extension the
    caller must supply the branch list explicitly (see QuasiCurve.create).
    The roots of the mixed factor come from rational_roots (read directly
    when it is linear, by trial division while its degree is >= 2), each
    branch's b from exact integer roots (_solve_b).
    """
    wx, wy = weights
    if math.gcd(wx, wy) != 1 or wx <= 0 or wy <= 0:
        raise InputError("weights must be positive and coprime")
    f.weighted_degree(wx, wy)  # validates homogeneity
    exps = [e for e, _ in f.terms]
    min_x = min(a for a, _ in exps)
    min_y = min(b for _, b in exps)
    if min_x > 1 or min_y > 1:
        raise InputError("not reduced")
    branches: List[Branch] = []
    rest = f
    if min_x:
        branches.append(_make_branch(BranchKind.AXIS_X, field, wx, wy))
        rest = rest.exact_div(BiPoly.monomial(field, field.one(), 1, 0))
    if min_y:
        branches.append(_make_branch(BranchKind.AXIS_Y, field, wx, wy))
        rest = rest.exact_div(BiPoly.monomial(field, field.one(), 0, 1))
    unit = field.one()
    if len(rest.terms) == 1 and rest.terms[0][0] == (0, 0):
        unit = rest.terms[0][1]
    elif rest.terms:
        # rest = x^{s*wy} * P(y^{wx}/x^{wy}); c_j is the coefficient of
        # x^{(s-j)wy} y^{j*wx}.
        w_rest = rest.weighted_degree(wx, wy)
        if w_rest % (wx * wy) != 0:
            raise ConsistencyError("mixed factor has unexpected weight %d" % w_rest)
        s = w_rest // (wx * wy)
        coeffs = [field.zero()] * (s + 1)
        for (a, b), c in rest.terms:
            if b % wx != 0 or a != (s - b // wx) * wy:
                raise ConsistencyError("unexpected monomial in mixed factor")
            coeffs[b // wx] = c
        if field.degree != 1:
            raise InputError(
                "root not in field: explicit branches required over an extension"
            )
        rat = [c.as_rational() for c in coeffs]
        roots = rational_roots(rat)
        total = sum(m for _, m in roots)
        if any(m > 1 for _, m in roots):
            raise InputError("not reduced")
        if total != s:
            residual = rat
            for r, _ in roots:
                residual = _deflate(residual, r)
            raise InputError(
                "root not in field: %s"
                % " + ".join(
                    "%s*u^%d" % (c, i) for i, c in enumerate(residual) if c
                )
            )
        # g = unit * x^{s*wy} * prod(1 + a_i u) with u = y^{wx}/x^{wy},
        # so the unit is the coefficient of the pure-x term.
        unit = coeffs[0]
        for rho, _ in roots:
            if rho == 0:
                raise ConsistencyError("zero root after axis extraction")
            a_val = field.from_rational(Fraction(-1) / rho)
            b_val = _solve_b(field, a_val, wx)
            branches.append(
                _make_branch(BranchKind.BINOMIAL, field, wx, wy, a_val, b_val)
            )
    if _branch_product(branches, field, wx, wy).scale(unit) != f:
        raise ConsistencyError("branch product does not expand to f")
    return unit, _order_branches(branches)


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for an integer n >= 1, by Newton's method on integers."""
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k), above the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _solve_b(field: NumberField, a: FieldElement, wx: int) -> FieldElement:
    """The least rational b by (numerator, denominator) with a*b^wx = -1, so the
    negative one for even wx, from exact integer wx-th roots of the numerator
    and denominator of -1/a in lowest terms, with no trial division; Q only."""
    if field.degree != 1:
        raise InputError("b_i not in field: supply explicit branches")
    target = -1 / a.as_rational()
    num, den = abs(target.numerator), target.denominator
    rnum, rden = _iroot(num, wx), _iroot(den, wx)
    if rnum ** wx != num or rden ** wx != den or (target < 0 and wx % 2 == 0):
        raise InputError("b_i not in field: u^%d + %s" % (wx, (field.one() / a)))
    sign = -1 if target < 0 or wx % 2 == 0 else 1
    return field.from_rational(Fraction(sign * rnum, rden))


def _order_branches(branches: List[Branch]) -> List[Branch]:
    def key(br: Branch):
        if br.kind is BranchKind.AXIS_X:
            return (0, ())
        if br.kind is BranchKind.AXIS_Y:
            return (1, ())
        coords = tuple((c.numerator, c.denominator) for c in br.a.coords)
        return (2, coords)

    return sorted(branches, key=key)


def _branch_product(
    branches: Sequence[Branch], field: NumberField, wx: int, wy: int
) -> BiPoly:
    """f_1 * ... * f_r, the product of the branch polynomials."""
    prod = BiPoly.monomial(field, field.one(), 0, 0)
    for br in branches:
        prod = prod * br.poly(field, wx, wy)
    return prod


@dataclass(frozen=True)
class QuasiCurve:
    field: NumberField
    wx: int
    wy: int
    f: BiPoly
    wf: int
    unit: FieldElement
    branches: tuple
    # Per-curve memos, none of which takes part in equality or hashing:
    # monomial_terms keyed by (x-exp, y-exp), the powers [1, c, c^2, ...]
    # of each coefficient c of n_i(x), n_i(y), and values derived from the
    # curve alone (derivation.q_element, module.coordinate_ring).
    _images: dict = dc_field(default_factory=dict, compare=False, repr=False)
    _powers: dict = dc_field(default_factory=dict, compare=False, repr=False)
    _derived: dict = dc_field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def create(
        field: NumberField,
        f: BiPoly,
        weights: Optional[Tuple[int, int]] = None,
        branches: Optional[Sequence[Tuple[BranchKind, Optional[FieldElement], Optional[FieldElement]]]] = None,
    ) -> "QuasiCurve":
        if not f:
            raise InputError("f must be nonzero")
        if weights is None:
            weights = infer_weights(f)
        wx, wy = weights
        if wx <= 0 or wy <= 0 or math.gcd(wx, wy) != 1:
            raise InputError("weights must be positive and coprime")
        wf = f.weighted_degree(wx, wy)
        if wf <= 0:
            raise InputError("f must have positive weight")
        if branches is None:
            unit, blist = factor(f, weights, field)
        else:
            blist = [
                _make_branch(kind, field, wx, wy, a, b) for kind, a, b in branches
            ]
            seen = set()
            for br in blist:
                key = (br.kind, br.a.coords if br.a is not None else None)
                if key in seen:
                    raise InputError("not reduced")
                seen.add(key)
            prod = _branch_product(blist, field, wx, wy)
            lead = prod.terms[-1]
            unit = f.as_dict().get(lead[0])
            if unit is None:
                raise InputError("branch product does not match f")
            unit = unit / lead[1]
            if prod.scale(unit) != f:
                raise InputError("branch product does not match f")
            blist = _order_branches(blist)
        curve = QuasiCurve(field, wx, wy, f, wf, unit, tuple(blist))
        for i, img in enumerate(curve.normalization_image(f)):
            if img is not None:
                raise ConsistencyError("n_%d(f) != 0" % (i + 1))
        return curve

    @property
    def r(self) -> int:
        return len(self.branches)

    def normalization_image(self, h: BiPoly) -> tuple:
        """n(h) for a homogeneous h, whose monomials share one exponent per
        branch: their terms add.  A zero h maps to None on every branch; a
        mixed h raises NotHomogeneousError."""
        if not h:
            return (None,) * self.r
        h.weighted_degree(self.wx, self.wy)
        coeffs = [None] * self.r
        exps = [0] * self.r
        for (a, b), c in h.terms:
            for i, term in enumerate(self.monomial_terms(a, b)):
                if term is not None:
                    v = c * term[0]
                    coeffs[i] = v if coeffs[i] is None else coeffs[i] + v
                    exps[i] = term[1]
        return tuple((c, e) if c else None for c, e in zip(coeffs, exps))

    def monomial_terms(self, xe: int, ye: int) -> tuple:
        """n(x^xe y^ye) as one term (c, e), meaning c*t_i^e, per branch,
        or None on a branch where the image vanishes.

        With n_i(x) = c_x t^{e_x} and n_i(y) = c_y t^{e_y} the image is
        c_x^xe c_y^ye t^{xe*e_x + ye*e_y}; it vanishes on an axis branch
        whose vanishing coordinate has a positive exponent.
        """
        key = (xe, ye)
        terms = self._images.get(key)
        if terms is None:
            if xe < 0 or ye < 0:
                raise InputError("negative exponent in k[x,y]")
            terms = self._images[key] = tuple(self._branch_term(br, xe, ye) for br in self.branches)
        return terms

    def monomial_image(self, xe: int, ye: int) -> List[UniPoly]:
        """n(x^xe y^ye) as one UniPoly per branch, built from monomial_terms."""
        return [UniPoly.zero(self.field) if t is None else UniPoly(self.field, ((t[1], t[0]),))
                for t in self.monomial_terms(xe, ye)]

    def _branch_term(self, br: Branch, xe: int, ye: int):
        coeff, exp = None, 0
        for term, k in ((br.nx, xe), (br.ny, ye)):
            if not k:
                continue
            if term is None:
                return None
            c, e = term
            ck = self._power(c, k)
            coeff, exp = ck if coeff is None else coeff * ck, exp + e * k
        return (self.field.one() if coeff is None else coeff, exp)

    def _power(self, c: FieldElement, k: int) -> FieldElement:
        """c^k, from the curve's table of the powers of c."""
        powers = self._powers.get(c)
        if powers is None:
            powers = self._powers[c] = [self.field.one()]
        while len(powers) <= k:
            powers.append(powers[-1] * c)
        return powers[k]

    def image_membership(
        self, target: Sequence[Optional[tuple]], w: int
    ) -> Optional[List[Tuple[Tuple[int, int], FieldElement]]]:
        """Express a homogeneous degree-w vector of ~A in the image of n.

        target has one term (c, e) with c nonzero, or None, per branch, as
        normalization_image returns it.  Returns the witness combination of
        monomials of k[x,y] or None when the vector is not in the image of
        A, as decided by membership in module.coordinate_ring(self), the
        cyclic A*(1,...,1).
        """
        # module imports this module, so the import waits until first use.
        from .module import _of, coordinate_ring

        coeffs = {(i, 0, t[1]): t[0] for i, t in enumerate(target) if t is not None}
        if any(e * self.branches[i].t_degree != w for i, _, e in coeffs):
            return None
        witness = coordinate_ring(self).contains(_of(self.field, coeffs))
        return None if witness is None else [(ab, c) for _, ab, c in witness]
