"""Graded torsion-free modules inside a free cover over the normalization.

A module is a graded submodule of k[t_1]^{s_1} x ... x k[t_r]^{s_r},
given by homogeneous generators.  This module provides graded pieces,
membership with explicit witnesses, the canonical (minimal-cover)
embedding by graded column reduction, and the condition checkers
(C1), (C2), (C3) that drive the connection construction.  Every
membership question of the package, including membership in the image
of A (coordinate_ring), is answered by GradedSubmodule.contains.

A ModuleElement is a sparse vector over the cover coordinates
(branch, slot, t-exponent), the same keys that index a degree piece, so
sums, scalings, the action of a monomial image and the coordinates of a
membership question are coefficient operations with no polynomial built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .curve import QuasiCurve
from .errors import ConsistencyError, InputError
from .field import FieldElement
from .poly import BiPoly, UniPoly, monomials_of_weight
from .semigroup import gamma_formula


@dataclass(frozen=True)
class FreeCover:
    """Per-branch ranks and basis shifts: shifts[i][j] = deg(e_ij)."""

    shifts: tuple  # tuple of tuples of ints, one inner tuple per branch

    @property
    def ranks(self) -> Tuple[int, ...]:
        return tuple(len(s) for s in self.shifts)

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
    constructor takes the (branch, slot) -> UniPoly map ``entries`` gives.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, entries: Dict[Tuple[int, int], UniPoly]):
        self.field = field
        self.coeffs = {
            (i, j, e): c for (i, j), p in entries.items() for e, c in p.terms if c
        }

    @property
    def entries(self) -> Dict[Tuple[int, int], UniPoly]:
        """The (branch, slot) -> UniPoly view of the coefficients."""
        slots: Dict[Tuple[int, int], Dict[int, FieldElement]] = {}
        for (i, j, e), c in self.coeffs.items():
            slots.setdefault((i, j), {})[e] = c
        return {k: UniPoly.make(self.field, d) for k, d in slots.items()}

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

    def act(self, vec: Sequence[UniPoly]) -> "ModuleElement":
        """Multiply by an element of the normalization, branch by branch.

        A branch image that is one monomial c_i t_i^{e_i} (every monomial
        image, and n(h) for homogeneous h) moves each key by e_i and
        multiplies by c_i; any other image is a convolution.
        """
        images = [p.terms for p in vec]
        out: Dict[Tuple[int, int, int], FieldElement] = {}
        convolved = False
        for (i, j, e), c in self.coeffs.items():
            terms = images[i]
            if len(terms) == 1:
                ((ei, ci),) = terms
                out[(i, j, e + ei)] = ci * c
            elif terms:
                convolved = True
                for ei, ci in terms:
                    k = (i, j, e + ei)
                    p = ci * c
                    out[k] = out[k] + p if k in out else p
        if convolved:
            out = {k: c for k, c in out.items() if c}
        return _of(self.field, out)

    def branch_projection(self, i: int, rank: int) -> List[UniPoly]:
        entries = self.entries
        return [entries.get((i, j), UniPoly.zero(self.field)) for j in range(rank)]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            "(%s)*e_%d%d" % (p, i + 1, j + 1)
            for (i, j), p in sorted(self.entries.items())
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


def homogeneous_components(
    curve: QuasiCurve, cover: FreeCover, v: ModuleElement
) -> Dict[int, ModuleElement]:
    """Components of v by degree; a homogeneous v is its own component."""
    branches, shifts = curve.branches, cover.shifts
    comps: Dict[int, Dict[Tuple[int, int, int], FieldElement]] = {}
    for (i, j, e), c in v.coeffs.items():
        comps.setdefault(shifts[i][j] + e * branches[i].t_degree, {})[(i, j, e)] = c
    if len(comps) <= 1:
        return {w: v for w in comps}
    return {w: _of(v.field, d) for w, d in sorted(comps.items())}


def basis_element(curve: QuasiCurve, i: int, j: int, exp: int = 0) -> ModuleElement:
    return ModuleElement(
        curve.field, {(i, j): UniPoly.monomial(curve.field, curve.field.one(), exp)}
    )


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
    construction; shifted() and canonical_embedding() return new modules
    that start empty.
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
        # Per degree w: the position of each cover coordinate (branch, slot,
        # exponent) of degree w, the span columns chosen as a basis of M_w,
        # and the elimination of their coordinate vectors.
        self._pieces: Dict[int, Tuple[dict, list, linalg.Elimination]] = {}
        self.weights = []
        for g in self.generators:
            w = element_degree(curve, cover, g)
            if w is None:
                raise InputError("zero generator is not allowed")
            self.weights.append(w)

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

    def _coords(
        self, v: ModuleElement, index: Dict[Tuple[int, int, int], int]
    ) -> List[FieldElement]:
        """Coordinates of a degree-w element in the slots indexed by index."""
        vec = [self.curve.field.zero()] * len(index)
        for key, c in v.coeffs.items():
            pos = index.get(key)
            if pos is None:
                raise ConsistencyError("element leaves the degree piece")
            vec[pos] = c
        return vec

    def _span_columns(self, w: int) -> Iterator[Tuple[int, Tuple[int, int], ModuleElement]]:
        """Generating family of M_w: n(monomial) * generator, tagged, in order."""
        for l, (gen, wl) in enumerate(zip(self.generators, self.weights)):
            delta = w - wl
            if delta < 0:
                continue
            for a, b in monomials_of_weight(self.curve.wx, self.curve.wy, delta):
                elem = gen.act(self.curve.monomial_image(a, b))
                if elem:
                    yield (l, (a, b), elem)

    def _piece(self, w: int) -> Tuple[dict, list, linalg.Elimination]:
        """The degree-w piece, eliminated once and kept for the module's life."""
        piece = self._pieces.get(w)
        if piece is None:
            index = {s: pos for pos, s in enumerate(self._degree_slots(w))}
            elimination = linalg.Elimination(len(index), self.curve.field)
            basis = []
            for col in self._span_columns(w):
                if elimination.add(self._coords(col[2], index)):
                    basis.append(col)
                    if elimination.full:
                        break
            piece = self._pieces[w] = (index, basis, elimination)
        return piece

    def graded_piece(self, w: int) -> List[ModuleElement]:
        """A basis of M_w (subset of the canonical generating family)."""
        return [elem for _, _, elem in self._piece(w)[1]]

    def contains(self, v: ModuleElement) -> Optional[Witness]:
        """Membership of a homogeneous element, with an explicit witness.

        The witness is the unique combination of the graded_piece basis,
        i.e. what solving against the whole span family with free
        variables set to zero returns.
        """
        if not v:
            return []
        index, basis, elimination = self._piece(element_degree(self.curve, self.cover, v))
        coeffs = elimination.solve(self._coords(v, index))
        if coeffs is None:
            return None
        return [(l, ab, c) for (l, ab, _), c in zip(basis, coeffs) if c]

    def replay_witness(self, witness: Witness) -> ModuleElement:
        out = ModuleElement(self.curve.field, {})
        for l, (a, b), coeff in witness:
            img = self.curve.monomial_image(a, b)
            out = out + self.generators[l].act(img).scale(coeff)
        return out

    # -- canonical embedding ------------------------------------------------

    def canonical_embedding(self) -> "GradedSubmodule":
        """Re-embed into the minimal free cover of the branch projections.

        Per branch, a graded column reduction over k[t_i] produces a
        deterministic homogeneous basis of the module generated by the
        branch projections of the generators; the cover is replaced by
        that basis and the generators are rewritten.  Idempotent.
        """
        field = self.curve.field
        new_shifts = []
        bases = []  # per branch: list of (pivot_row, column vector)
        for i, branch_shifts in enumerate(self.cover.shifts):
            rank = len(branch_shifts)
            d_i = self.curve.branches[i].t_degree
            work = []
            for gen in self.generators:
                col = gen.branch_projection(i, rank)
                if any(col):
                    work.append(col)
            basis = []
            for row in range(rank):
                candidates = [idx for idx, c in enumerate(work) if c[row]]
                if not candidates:
                    continue
                best = min(
                    candidates, key=lambda idx: work[idx][row].monomial_parts()[1]
                )
                pivot = work.pop(best)
                pc, pe = pivot[row].monomial_parts()
                pivot = [p.scale(pc.inv()) for p in pivot]
                remaining = []
                for c in work:
                    if c[row]:
                        cc, ce = c[row].monomial_parts()
                        if ce < pe:
                            raise ConsistencyError("pivot was not minimal")
                        factor = UniPoly.monomial(field, cc, ce - pe)
                        c = [a - factor * b for a, b in zip(c, pivot)]
                    if any(c):
                        remaining.append(c)
                work = remaining
                basis.append((row, pivot))
            # Reduce to the canonical echelon form: clear entries in other
            # pivot rows whenever the exponent allows; this makes the
            # embedding idempotent.
            # Later pivot columns already vanish on earlier pivot rows, so
            # clearing earlier pivot rows in ascending order (against
            # columns that are themselves reduced) finishes in one pass.
            for k in range(len(basis)):
                row_k, col_k = basis[k]
                for j in range(k):
                    row_j, col_j = basis[j]
                    if not col_k[row_j]:
                        continue
                    cc, ce = col_k[row_j].monomial_parts()
                    pe = col_j[row_j].monomial_parts()[1]
                    if ce >= pe:
                        factor = UniPoly.monomial(field, cc, ce - pe)
                        col_k = [a - factor * b for a, b in zip(col_k, col_j)]
                basis[k] = (row_k, col_k)
            shifts = []
            for row, col in basis:
                j_nz, nz = next((j, p) for j, p in enumerate(col) if p)
                _, e = nz.monomial_parts()
                shifts.append(branch_shifts[j_nz] + e * d_i)
            new_shifts.append(tuple(shifts))
            bases.append(basis)
        new_cover = FreeCover(tuple(new_shifts))
        new_gens = []
        for gen in self.generators:
            entries: Dict[Tuple[int, int], UniPoly] = {}
            for i, branch_shifts in enumerate(self.cover.shifts):
                rank = len(branch_shifts)
                p = gen.branch_projection(i, rank)
                for new_j, (row, col) in enumerate(bases[i]):
                    if not p[row]:
                        continue
                    pc, pe = p[row].monomial_parts()
                    bc, be = col[row].monomial_parts()
                    if pe < be:
                        raise ConsistencyError("projection not in branch module")
                    q = UniPoly.monomial(self.curve.field, pc / bc, pe - be)
                    p = [a - q * b for a, b in zip(p, col)]
                    entries[(i, new_j)] = q
                if any(p):
                    raise ConsistencyError("projection not reduced to zero")
            new_gens.append(ModuleElement(self.curve.field, entries))
        return GradedSubmodule(self.curve, new_cover, new_gens)

    # -- conditions ----------------------------------------------------------

    def check_C1(self) -> Dict[Tuple[int, int], bool]:
        """(C1) as existence: some u in M_{f_ij} projects to exactly e_ij.

        The branch-i projection of M is the submodule of the cover with the
        other branches emptied, generated by the branch-i parts of the
        generators; (C1) at (i, j) is membership of e_ij in it.
        """
        out = {}
        for i, branch_shifts in enumerate(self.cover.shifts):
            cover = FreeCover(tuple(
                s if k == i else () for k, s in enumerate(self.cover.shifts)
            ))
            parts = [
                _of(self.curve.field, {k: c for k, c in g.coeffs.items() if k[0] == i})
                for g in self.generators
            ]
            projection = GradedSubmodule(self.curve, cover, [g for g in parts if g])
            for j in range(len(branch_shifts)):
                out[(i, j)] = projection.contains(basis_element(self.curve, i, j)) is not None
        return out

    def check_C2(self) -> Dict[Tuple[int, int], bool]:
        """(C2): t_i^{g_i} e_ij in M for every cover slot."""
        out = {}
        gammas = [gamma_formula(self.curve, i) for i in range(self.curve.r)]
        for i, j in self.cover.slots():
            g = gammas[i].frobenius
            if g < 0:
                raise InputError("(C2) undefined: branch %d has negative Frobenius" % (i + 1))
            target = basis_element(self.curve, i, j, g)
            out[(i, j)] = self.contains(target) is not None
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
        """M(lam): all shifts and weights translated by lam."""
        return GradedSubmodule(
            self.curve, self.cover.shifted(lam), self.generators
        )

    def min_shift(self) -> int:
        return min((s for row in self.cover.shifts for s in row), default=0)


def coordinate_ring(curve: QuasiCurve) -> GradedSubmodule:
    """A as the cyclic module A*(1,...,1) on the cover ((0,),...,(0,)).

    Built once per curve and kept on it, so each degree piece is
    eliminated once; QuasiCurve.image_membership asks it.
    """
    ring = curve._derived.get("coordinate_ring")
    if ring is None:
        ones = ModuleElement(curve.field, {
            (i, 0): UniPoly.monomial(curve.field, curve.field.one(), 0)
            for i in range(curve.r)
        })
        ring = GradedSubmodule(curve, FreeCover(((0,),) * curve.r), [ones])
        curve._derived["coordinate_ring"] = ring
    return ring
