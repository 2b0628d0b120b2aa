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
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import ConsistencyError, InputError
from .field import FieldElement, NumberField, _common_denominator, _poly_divmod, as_fraction
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
        raise InputError(
            'weights are ambiguous for a single monomial; give them explicitly ("weights" in a CurveSpec)'
        )
    return ratio


# Stopgap budgets of the trial-division root search until a Hensel root
# finder replaces it (ROADMAP item 3): the isqrt of the end coefficients
# bounds _divisors, and a candidate costs one step per degree left to search.
ROOT_DIVISOR_BUDGET = 10 ** 7
ROOT_STEP_BUDGET = 10 ** 5


def _divisors(n: int) -> List[int]:
    """The positive divisors of n != 0, ascending, by trial division up to sqrt|n|."""
    n = abs(n)
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            out.append(n // d)
    return sorted(set(out))


def _root_candidates(c_0: int, c_s: int) -> Iterator[Fraction]:
    """Every -p/q and p/q in lowest terms with p | c_0, q | c_s, in (|p|, q, p)
    order, generated lazily.

    Both divisor lists are ascending, so walking them in nested order gives
    the order directly: a caller that stops early builds no later candidate.
    """
    qs = _divisors(c_s)
    for p in _divisors(c_0):
        for q in qs:
            if math.gcd(p, q) == 1:
                yield Fraction(-p, q)
                yield Fraction(p, q)


def rational_roots(coeffs: Sequence[Fraction]) -> List[Tuple[Fraction, int]]:
    """Rational roots with multiplicity, sorted by (numerator, denominator).

    coeffs are low-first rational coefficients of a nonzero polynomial.
    Past the zero roots, a factor of degree >= 2 is searched by trial
    division over _root_candidates, deflating each root found, and InputError
    is raised past ROOT_DIVISOR_BUDGET or ROOT_STEP_BUDGET; a linear one,
    from the start or after deflation, has its root read directly.
    """
    coeffs = [as_fraction(c) for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:
        raise InputError("root finding on the zero polynomial")
    ints, _ = _common_denominator(coeffs)
    zero_mult = next(k for k, c in enumerate(ints) if c)
    ints = ints[zero_mult:]
    roots = [(Fraction(0), zero_mult)] if zero_mult else []

    def eval_at(cs, r):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * r + c
        return acc

    work = [Fraction(c) for c in ints]
    if len(work) > 2:
        if math.isqrt(max(abs(ints[0]), abs(ints[-1]))) > ROOT_DIVISOR_BUDGET:
            raise InputError("root search: an end coefficient has isqrt above %d" % ROOT_DIVISOR_BUDGET)
        # Small |numerator| first: those candidates are the cheapest to
        # evaluate, and the search stops once a linear remainder is left.
        steps = 0
        for r in _root_candidates(ints[0], ints[-1]):
            steps += len(work) - 1
            if steps > ROOT_STEP_BUDGET:
                raise InputError("root search: more than the budget of %d steps" % ROOT_STEP_BUDGET)
            mult = 0
            while len(work) > 1 and eval_at(work, r) == 0:
                work = _poly_divmod(work, [-r, Fraction(1)])[0]
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


def find_rational_root(coeffs: Sequence[Fraction]) -> Optional[Fraction]:
    """A rational root of a square-free polynomial, or None, in time polynomial
    in its degree and digits (rational_roots lists divisors instead).

    On integer coefficients c_i a root a/b has a | c_0 and b | c_s, so
    y = c_s*a/b is an integer with |y| <= |c_0*c_s|.  Every root mod the
    least prime p not dividing c_s at which all roots are simple (one exists,
    as the polynomial is square-free) is lifted by Newton's step mod p^(2^k)
    past 2|c_0*c_s|, where c_s times it leaves y as its symmetric residue.
    """
    f, _ = _common_denominator([as_fraction(c) for c in coeffs])
    df = [k * c for k, c in enumerate(f)][1:]

    def at(cs, x, m):
        acc = 0
        for c in reversed(cs):
            acc = (acc * x + c) % m
        return acc

    p = 1
    while True:
        p += 1
        if f[-1] % p and all(p % k for k in range(2, math.isqrt(p) + 1)):
            roots = [r for r in range(p) if not at(f, r, p)]
            if all(at(df, r, p) for r in roots):
                break
    for r in roots:
        m = p
        while m <= 2 * abs(f[0] * f[-1]):
            m *= m
            r = (r - at(f, r, m) * pow(at(df, r, m), -1, m)) % m
        y = (f[-1] * r + m // 2) % m - m // 2
        if not sum(c * y ** i * f[-1] ** (len(f) - 1 - i) for i, c in enumerate(f)):
            return Fraction(y, f[-1])
    return None


def factor(
    f: BiPoly, weights: Tuple[int, int], field: NumberField
) -> Tuple[FieldElement, List[Branch]]:
    """Factor f = u * f_1 ... f_r into axis and binomial branches.

    Automatic root extraction works over Q only; over an extension the
    caller must supply the branch list explicitly (see QuasiCurve.create).
    The coefficients of the mixed factor are read off f's terms at the
    positions the weights fix; its roots come from rational_roots (read
    directly when it is linear, by trial division while its degree is
    >= 2), each branch's b from exact integer roots (_solve_b).
    """
    wx, wy = weights
    if math.gcd(wx, wy) != 1 or wx <= 0 or wy <= 0:
        raise InputError("weights must be positive and coprime")
    wf = f.weighted_degree(wx, wy)  # validates homogeneity
    min_x = min(a for (a, _), _ in f.terms)
    min_y = min(b for (_, b), _ in f.terms)
    if min_x > 1 or min_y > 1:
        raise InputError("not reduced")
    branches: List[Branch] = []
    if min_x:
        branches.append(_make_branch(BranchKind.AXIS_X, field, wx, wy))
    if min_y:
        branches.append(_make_branch(BranchKind.AXIS_Y, field, wx, wy))
    # f = x^min_x * y^min_y * x^{s*wy} * P(y^{wx}/x^{wy}); c_j, the
    # coefficient of u^j in P, is that of x^{min_x+(s-j)wy} y^{min_y+j*wx}.
    w_mixed = wf - min_x * wx - min_y * wy
    if w_mixed % (wx * wy) != 0:
        raise ConsistencyError("mixed factor has unexpected weight %d" % w_mixed)
    s = w_mixed // (wx * wy)
    coeffs = [field.zero()] * (s + 1)
    for (a, b), c in f.terms:
        j, off = divmod(b - min_y, wx)
        if off or a != min_x + (s - j) * wy:
            raise ConsistencyError("unexpected monomial in mixed factor")
        coeffs[j] = c
    # P = unit * prod(1 + a_i u), so the unit is c_0; P is that constant
    # when there is no binomial branch (s = 0).
    unit = coeffs[0]
    if s:
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
                residual = _poly_divmod(residual, [-r, Fraction(1)])[0]
            raise InputError(
                "root not in field: %s"
                % " + ".join(
                    "%s*u^%d" % (c, i) for i, c in enumerate(residual) if c
                )
            )
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

    @property
    def conductors(self) -> Tuple[int, ...]:
        """kappa_i = (w_f - w_i)/d_i + c(A_i) per branch: the conductor of
        the shifted semigroup Gamma_i, and the exponent of the conductor of
        A on branch i, the ideal (+) t_i^kappa_i k[t_i] of A-bar inside A."""
        out = []
        for i, br in enumerate(self.branches):
            shift, rest = divmod(self.wf - br.weight, br.t_degree)
            if rest:
                raise ConsistencyError("non-integral semigroup shift on branch %d" % (i + 1))
            out.append(shift + br.conductor)
        return tuple(out)

    @property
    def lead_exponent(self) -> Tuple[int, int]:
        """(n, k) of the term x^n y^k of f with the largest x-exponent; it is
        unique, since terms of one weight with one x-exponent coincide."""
        return self.f.terms[-1][0]

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
