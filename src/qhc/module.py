"""Graded torsion-free modules inside a free cover over the normalization.

A module is a graded submodule of k[t_1]^{s_1} x ... x k[t_r]^{s_r},
given by homogeneous generators.  This module provides graded pieces,
membership with explicit witnesses, the canonical (minimal-cover)
embedding by graded column reduction, and the condition checkers
(C1), (C2), (C3) that drive the connection construction.  Every
membership question of the package, including membership in the image
of A (coordinate_ring), is answered from one kept elimination per degree
piece: GradedSubmodule.is_member says yes or no (at once on a piece of
full rank), and GradedSubmodule.contains also returns the witness, which
only image_membership and the first read of a connection report's
witnesses ask for.  (C1) reads the branch projections of M's own pieces,
and a shifted module starts with the pieces of the module it shifts.
A module built by canonical_embedding (or shifted from one) also knows
the conductor bound, the exponents kappa_i of QuasiCurve.conductors:
A-bar*M is the whole cover there, so the conductor of A times the cover
lies in M, is_member answers yes at once on an element all of whose keys
lie in it (in_conductor), and every piece all of whose cover keys lie in
it, a conductor piece (conductor_slots), is the whole cover piece
(piece_basis).  No other module, coordinate_ring least of all, uses the
bound.

A ModuleElement is built, stored and read as a sparse vector over the
cover coordinates (branch, slot, t-exponent), the same keys that index a
degree piece and that a ModuleSpec lists, so sums, scalings, the action
of a branch image (one term (c, e) or None per branch, as the curve's
monomial_terms and normalization_image return it), the span columns of a
piece, a membership question and the column reduction of the canonical
embedding (linalg.sub_multiple) are coefficient operations with no
polynomial built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .curve import QuasiCurve
from .errors import ConsistencyError, InputError
from .field import FieldElement
from .poly import standard_monomials


@dataclass(frozen=True)
class FreeCover:
    """Per-branch ranks and basis shifts: shifts[i][j] = deg(e_ij)."""

    shifts: tuple  # tuple of tuples of ints, one inner tuple per branch

    def slots(self):
        for i, branch_shifts in enumerate(self.shifts):
            for j in range(len(branch_shifts)):
                yield (i, j)

    def shifted(self, lam: int) -> "FreeCover":
        return FreeCover(tuple(tuple(s + lam for s in row) for row in self.shifts))


def _of(field, coeffs: Dict[Tuple[int, int, int], FieldElement]) -> "ModuleElement":
    """An element on coeffs as given: the caller guarantees no zero in it."""
    v = object.__new__(ModuleElement)
    v.field = field
    v.coeffs = coeffs
    return v


class ModuleElement:
    """Sparse vector over cover coordinates: (i, j, e) -> c is c t_i^e e_ij.

    No zero is stored, so equality is structural; a product of nonzero
    coefficients is nonzero (the field has no zero divisors).  The
    constructor takes such a map, drops its zeros and rejects a negative
    exponent.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: Dict[Tuple[int, int, int], FieldElement]):
        if any(e < 0 for _, _, e in coeffs):
            raise InputError("negative exponent in k[t]")
        self.field = field
        self.coeffs = {k: c for k, c in coeffs.items() if c}

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, ModuleElement) and self.coeffs == other.coeffs

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out[k] + c if k in out else c
            if s:
                out[k] = s
            else:
                del out[k]
        return _of(self.field, out)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + (-other)

    def __neg__(self) -> "ModuleElement":
        return _of(self.field, {k: -c for k, c in self.coeffs.items()})

    def scale(self, c: FieldElement) -> "ModuleElement":
        if not c:
            return _of(self.field, {})
        return _of(self.field, {k: c * v for k, v in self.coeffs.items()})

    def act(self, terms: Sequence[Optional[tuple]]) -> "ModuleElement":
        """Multiply by a branch image, one term (c_i, e_i) or None per branch:
        each key on branch i moves by e_i and is multiplied by c_i, and a
        None branch drops its keys."""
        out = {}
        for (i, j, e), c in self.coeffs.items():
            t = terms[i]
            if t is not None:
                out[(i, j, e + t[1])] = t[0] * c
        return _of(self.field, out)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            "(%s)*t^%d*e_%d%d" % (c, e, i + 1, j + 1)
            for (i, j, e), c in sorted(self.coeffs.items())
        )


def element_degrees(curve: QuasiCurve, cover: FreeCover, v: ModuleElement) -> frozenset:
    branches, shifts = curve.branches, cover.shifts
    return frozenset(shifts[i][j] + e * branches[i].t_degree for i, j, e in v.coeffs)


def element_degree(curve: QuasiCurve, cover: FreeCover, v: ModuleElement) -> Optional[int]:
    """Degree of a homogeneous element; None for zero; raises when mixed."""
    branches, shifts = curve.branches, cover.shifts
    w = None
    for i, j, e in v.coeffs:
        d = shifts[i][j] + e * branches[i].t_degree
        if w is None:
            w = d
        elif d != w:
            degs = element_degrees(curve, cover, v)
            raise InputError("element is not homogeneous: degrees %s" % sorted(degs))
    return w


def basis_element(curve: QuasiCurve, i: int, j: int, exp: int = 0) -> ModuleElement:
    return ModuleElement(curve.field, {(i, j, exp): curve.field.one()})


# A witness term is (generator index, (x-exp, y-exp), coefficient):
# v = sum coeff * n(x^a y^b) * m_l.
# FieldElement is named by string: typing caches every subscription for the
# life of the process, and a class object there would keep each re-imported
# copy of this package alive.
Witness = List[Tuple[int, Tuple[int, int], "FieldElement"]]


class GradedSubmodule:
    """Graded submodule of a free cover, spanned by homogeneous generators.

    Each degree piece M_w is built and eliminated once, on first use, and
    kept as long as the module, so the generators must not change after
    construction; canonical_embedding() returns a new module that starts
    empty, and shifted() one that starts with the pieces built so far.

    ``conductor`` (curve.conductors, the exponent kappa_i of the conductor
    of A on each branch) is set on a module that canonical_embedding
    returns and kept by shifted(); on any other module it is None.
    """

    def __init__(
        self,
        curve: QuasiCurve,
        cover: FreeCover,
        generators: Sequence[ModuleElement],
    ):
        self.curve = curve
        self.cover = cover
        self.generators = list(generators)
        # Per degree w: the span columns chosen as a basis of M_w and the
        # elimination of their coefficient maps.
        self._pieces: Dict[int, Tuple[list, linalg.Elimination]] = {}
        self.weights = []
        for g in self.generators:
            w = element_degree(curve, cover, g)
            if w is None:
                raise InputError("zero generator is not allowed")
            self.weights.append(w)
        self.conductor: Optional[Tuple[int, ...]] = None

    # -- coordinates of a fixed degree -------------------------------------

    def _degree_slots(self, w: int) -> List[Tuple[int, int, int]]:
        """(branch, slot, exponent) coordinates of the degree-w cover piece."""
        slots = []
        for i, branch_shifts in enumerate(self.cover.shifts):
            d_i = self.curve.branches[i].t_degree
            for j, f_ij in enumerate(branch_shifts):
                delta = w - f_ij
                if delta >= 0 and delta % d_i == 0:
                    slots.append((i, j, delta // d_i))
        return slots

    def _piece(self, w: int) -> Tuple[list, linalg.Elimination]:
        """The degree-w piece, eliminated once and kept for the module's life:
        the greedy basis of the span columns m_l.act(n(x^a y^b)), tagged
        (l, (a, b), element).

        The elimination reads each column and each question as the
        element's own coefficient map: a key (i, j, e) of degree w has
        f_ij + e*d_i = w, so (i, j) fixes e and the least key, the pivot,
        is the first in _degree_slots order.

        Only the standard monomials of (f) are fed: with x^n y^k the term
        of f of largest x-exponent (curve.lead_exponent), those with a < n
        or b < k, in ascending a.  f acts as zero, so modulo f a column
        with a >= n and b >= k is a combination of columns of the same
        generator and weight with smaller x-exponent, which come earlier
        and are already in the span: the greedy basis never picks it.  The
        basis, its tags and every witness are those of the full family,
        and each generator feeds at most n + k columns at any degree.
        """
        piece = self._pieces.get(w)
        if piece is None:
            curve = self.curve
            n, k = curve.lead_exponent
            elimination = linalg.Elimination(len(self._degree_slots(w)), curve.field)
            basis = []
            for l, (gen, wl) in enumerate(zip(self.generators, self.weights)):
                for a, b in standard_monomials(curve.wx, curve.wy, w - wl, n, k):
                    elem = gen.act(curve.monomial_terms(a, b))
                    if elimination.add(elem.coeffs):
                        basis.append((l, (a, b), elem))
                        if elimination.full:
                            break
                if elimination.full:
                    break
            piece = self._pieces[w] = (basis, elimination)
        return piece

    def graded_piece(self, w: int) -> List[ModuleElement]:
        """A basis of M_w (subset of the canonical generating family)."""
        return [elem for _, _, elem in self._piece(w)[0]]

    def in_conductor(self, keys) -> bool:
        """Whether the bound is set and every key (i, j, e) has e >=
        conductor[i]: for the keys of an element, whether is_member says
        yes at once."""
        kappa = self.conductor
        return kappa is not None and all(e >= kappa[i] for i, _, e in keys)

    def conductor_slots(self, w: int) -> Optional[List[Tuple[int, int, int]]]:
        """The keys of the degree-w cover piece if w is a conductor piece,
        every key in_conductor, so that M_w is the whole cover piece; None
        elsewhere or with no bound."""
        slots = self._degree_slots(w)
        return slots if self.in_conductor(slots) else None

    def piece_basis(self, w: int) -> List[ModuleElement]:
        """A basis of M_w of graded_piece's size: the cover piece's unit
        vectors, with no elimination, on a conductor piece; graded_piece(w)
        elsewhere or with no bound."""
        slots = self.conductor_slots(w)
        if slots is None:
            return self.graded_piece(w)
        one = self.curve.field.one()
        return [_of(self.curve.field, {key: one}) for key in slots]

    def is_member(self, v: ModuleElement) -> bool:
        """Whether a homogeneous element lies in M: contains(v) is not None,
        decided without solving for the witness, and at once when
        in_conductor(v.coeffs)."""
        if not v:
            return True
        w = element_degree(self.curve, self.cover, v)
        if self.in_conductor(v.coeffs):
            return True
        return self._piece(w)[1].in_span(v.coeffs)

    def contains(self, v: ModuleElement) -> Optional[Witness]:
        """Membership of a homogeneous element, with an explicit witness.

        The witness is the unique combination of the graded_piece basis,
        i.e. what solving against the whole span family with free
        variables set to zero returns.
        """
        if not v:
            return []
        basis, elimination = self._piece(element_degree(self.curve, self.cover, v))
        coeffs = elimination.solve(v.coeffs)
        if coeffs is None:
            return None
        return [(l, ab, c) for (l, ab, _), c in zip(basis, coeffs) if c]

    def replay_witness(self, witness: Witness) -> ModuleElement:
        out = ModuleElement(self.curve.field, {})
        for l, (a, b), coeff in witness:
            out = out + self.generators[l].act(self.curve.monomial_terms(a, b)).scale(coeff)
        return out

    # -- canonical embedding ------------------------------------------------

    def canonical_embedding(self) -> "GradedSubmodule":
        """Re-embed into the minimal free cover of the branch projections.

        Per branch i, a graded column reduction over k[t_i] produces a
        deterministic homogeneous basis of the module generated by the
        branch projections of the generators; the cover is replaced by
        that basis and the generators are rewritten.  A branch part of
        degree w is held as (w, {slot: c}), its slot-j entry being
        c t_i^((w - f_ij)/d_i), so a reduction step is coefficient
        arithmetic and a new cover shift is the degree of its pivot.
        Each generator's new coordinates are read off that one reduction:
        the rows are swept in order and a pivot is zero on earlier rows, so
        a column's entry c at a pivot's row, where it is reduced (or the
        pivot's own, before it is normalized), is its coordinate
        c t_i^((w - pw)/d_i) on that pivot of degree pw.
        Idempotent: the pivot columns form an echelon basis, so a second
        pass picks the same pivots, now the unit vectors of the new cover.
        The result carries the conductor bound (_bound_by_conductor).
        """
        # parts[i][l]: the branch-i part of generator l as {slot: c}.
        parts = [[{} for _ in self.generators] for _ in self.cover.shifts]
        for l, g in enumerate(self.generators):
            for (i, j, _), c in g.coeffs.items():
                parts[i][l][j] = c
        coeffs = [{} for _ in self.generators]  # the new coordinates of each
        shifts = []  # per branch: the degree of each pivot, the new f_ij
        for i, branch_shifts in enumerate(self.cover.shifts):
            d_i = self.curve.branches[i].t_degree
            work = [(l, w, part) for l, (w, part) in enumerate(zip(self.weights, parts[i])) if part]
            pivot_degrees = []
            for row in range(len(branch_shifts)):
                candidates = [idx for idx, (_, _, col) in enumerate(work) if row in col]
                if not candidates:
                    continue
                pl, pw, pivot = work.pop(min(candidates, key=lambda idx: work[idx][1]))
                new_j = len(pivot_degrees)
                pivot_degrees.append(pw)
                coeffs[pl][(i, new_j, 0)] = pivot[row]
                inv = pivot[row].inv()
                pivot = {j: c * inv for j, c in pivot.items()}
                remaining = []
                for l, w, col in work:
                    if row in col:
                        if w < pw:
                            raise ConsistencyError("pivot was not minimal")
                        coeffs[l][(i, new_j, (w - pw) // d_i)] = col[row]
                        col = linalg.sub_multiple(col, col[row], pivot)
                    if col:
                        remaining.append((l, w, col))
                work = remaining
            if work:
                raise ConsistencyError("projection not reduced to zero")
            shifts.append(tuple(pivot_degrees))
        new_gens = [_of(self.curve.field, c) for c in coeffs]
        return GradedSubmodule(self.curve, FreeCover(tuple(shifts)), new_gens)._bound_by_conductor()

    def _bound_by_conductor(self) -> "GradedSubmodule":
        """Set conductor on a module with A-bar*M = cover.

        The conductor of A is the A-bar-ideal (+) t_i^kappa_i k[t_i] inside
        A, kappa_i = curve.conductors[i], so it times the cover is it times
        A-bar*M, which lies in M: every key (i, j, e) with e >= kappa_i is
        in M.  A-bar*M = cover means that each branch projection generates
        its cover over k[t_i].  That is checked without an elimination: each
        slot (i, j) must be the last branch-i slot of some generator, at
        exponent 0, so that those generators are a triangular basis change
        with constant diagonal.
        """
        heads = set()
        for g in self.generators:
            last = {}
            for i, j, e in g.coeffs:
                if i not in last or j > last[i][0]:
                    last[i] = (j, e)
            heads.update((i, j) for i, (j, e) in last.items() if e == 0)
        if not heads.issuperset(self.cover.slots()):
            raise ConsistencyError("a branch projection does not generate its cover")
        self.conductor = self.curve.conductors
        return self

    # -- conditions ----------------------------------------------------------

    def check_C1(self) -> Dict[Tuple[int, int], bool]:
        """(C1) as existence: some u in M_{f_ij} projects to exactly e_ij.

        The branch-i projection is a graded map, so the degree-w piece of
        the branch-i projection of M is the projection of M_w: (C1) at
        (i, j) asks whether e_ij is in the span of the branch-i parts of
        M's own basis of M_{f_ij} (piece_basis), eliminated once per branch
        and degree on the at most s_i branch-i keys of that degree.
        """
        field = self.curve.field
        out = {}
        spans: Dict[Tuple[int, int], linalg.Elimination] = {}
        for i, j in self.cover.slots():
            w = self.cover.shifts[i][j]
            span = spans.get((i, w))
            if span is None:
                keys = [key for key in self._degree_slots(w) if key[0] == i]
                span = spans[(i, w)] = linalg.Elimination(len(keys), field)
                for u in self.piece_basis(w):
                    span.add({key: c for key, c in u.coeffs.items() if key[0] == i})
            out[(i, j)] = span.in_span({(i, j, 0): field.one()})
        return out

    def check_C2(self) -> Dict[Tuple[int, int], bool]:
        """(C2): t_i^{g_i} e_ij in M for every cover slot, g_i = kappa_i - 1
        the Frobenius number of Gamma_i."""
        out = {}
        kappa = self.curve.conductors
        for i, j in self.cover.slots():
            g = kappa[i] - 1
            if g < 0:
                raise InputError("(C2) undefined: branch %d has negative Frobenius" % (i + 1))
            target = basis_element(self.curve, i, j, g)
            out[(i, j)] = self.is_member(target)
        return out

    def check_C3(self) -> Tuple[bool, Optional[int]]:
        """(C3): all cover shifts equal; returns the common value."""
        shifts = [s for row in self.cover.shifts for s in row]
        if not shifts:
            return (False, None)
        if all(s == shifts[0] for s in shifts):
            return (True, shifts[0])
        return (False, None)

    def shifted(self, lam: int) -> "GradedSubmodule":
        """M(lam): all shifts and weights translated by lam; the keys, and so
        the conductor bound and every piece, stay.  M(lam) starts with the
        pieces M has built, re-keyed to w + lam in a dict of its own: a
        piece is not changed once built, so the two modules share it, and a
        piece that either builds later stays its own."""
        M = GradedSubmodule(self.curve, self.cover.shifted(lam), self.generators)
        M.conductor = self.conductor
        M._pieces = {w + lam: piece for w, piece in self._pieces.items()}
        return M

    def min_shift(self) -> int:
        return min((s for row in self.cover.shifts for s in row), default=0)


def coordinate_ring(curve: QuasiCurve) -> GradedSubmodule:
    """A as the cyclic module A*(1,...,1) on the cover ((0,),...,(0,)).

    Built once per curve and kept on it, so each degree piece is
    eliminated once; derivation.q_element, semigroup.gamma_oracle and
    image_membership ask it.
    """
    ring = curve._derived.get("coordinate_ring")
    if ring is None:
        ones = _of(curve.field, {(i, 0, 0): curve.field.one() for i in range(curve.r)})
        ring = GradedSubmodule(curve, FreeCover(((0,),) * curve.r), [ones])
        curve._derived["coordinate_ring"] = ring
    return ring
