"""Graded torsion-free modules inside a free cover over the normalization.

A module is a graded submodule of k[t_1]^{s_1} x ... x k[t_r]^{s_r},
given by homogeneous generators.  This module provides graded pieces,
membership with explicit witnesses, the canonical (minimal-cover)
embedding by graded column reduction, and the condition checkers
(C1), (C2), (C3) that drive the connection construction.
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


class ModuleElement:
    """Finite map (branch, slot) -> UniPoly inside a fixed cover."""

    def __init__(self, field, entries: Dict[Tuple[int, int], UniPoly]):
        self.field = field
        self.entries = {k: v for k, v in entries.items() if v}

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, ModuleElement) and self.entries == other.entries

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, UniPoly.zero(self.field)) + v
        return ModuleElement(self.field, out)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + other.scale(-self.field.one())

    def scale(self, c: FieldElement) -> "ModuleElement":
        return ModuleElement(self.field, {k: v.scale(c) for k, v in self.entries.items()})

    def act(self, vec: Sequence[UniPoly]) -> "ModuleElement":
        """Multiply by an element of the normalization, branch by branch."""
        return ModuleElement(
            self.field, {(i, j): vec[i] * p for (i, j), p in self.entries.items()}
        )

    def branch_projection(self, i: int, rank: int) -> List[UniPoly]:
        return [
            self.entries.get((i, j), UniPoly.zero(self.field)) for j in range(rank)
        ]

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        return " + ".join(
            "(%s)*e_%d%d" % (p, i + 1, j + 1)
            for (i, j), p in sorted(self.entries.items())
        )


def element_degrees(curve: QuasiCurve, cover: FreeCover, v: ModuleElement) -> frozenset:
    degs = set()
    for (i, j), p in v.entries.items():
        d_i = curve.branches[i].t_degree
        f_ij = cover.shifts[i][j]
        for e, _ in p.terms:
            degs.add(f_ij + e * d_i)
    return frozenset(degs)


def element_degree(curve: QuasiCurve, cover: FreeCover, v: ModuleElement) -> Optional[int]:
    """Degree of a homogeneous element; None for zero; raises when mixed."""
    degs = element_degrees(curve, cover, v)
    if not degs:
        return None
    if len(degs) > 1:
        raise InputError("element is not homogeneous: degrees %s" % sorted(degs))
    return next(iter(degs))


def homogeneous_components(
    curve: QuasiCurve, cover: FreeCover, v: ModuleElement
) -> Dict[int, ModuleElement]:
    """Components of v by degree; a homogeneous v is its own component."""
    degs = element_degrees(curve, cover, v)
    if len(degs) <= 1:
        return {w: v for w in degs}
    comps: Dict[int, Dict[Tuple[int, int], UniPoly]] = {}
    for (i, j), p in v.entries.items():
        d_i = curve.branches[i].t_degree
        f_ij = cover.shifts[i][j]
        for e, c in p.terms:
            w = f_ij + e * d_i
            slot = comps.setdefault(w, {})
            mono = UniPoly.monomial(curve.field, c, e)
            slot[(i, j)] = slot.get((i, j), UniPoly.zero(curve.field)) + mono
    return {w: ModuleElement(curve.field, d) for w, d in sorted(comps.items())}


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
        for (i, j), p in v.entries.items():
            for e, c in p.terms:
                key = (i, j, e)
                if key not in index:
                    raise ConsistencyError("element leaves the degree piece")
                vec[index[key]] = c
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

        The branch-i projection of M_w is spanned by the projections of a
        basis of M_w, so the system has one column per basis vector.
        """
        field = self.curve.field
        out = {}
        for i, j in self.cover.slots():
            index, basis, _ = self._piece(self.cover.shifts[i][j])
            rows = [pos for slot, pos in index.items() if slot[0] == i]
            coords = [self._coords(elem, index) for _, _, elem in basis]
            matrix = [[vec[pos] for vec in coords] for pos in rows]
            rhs = [field.zero()] * len(rows)
            rhs[rows.index(index[(i, j, 0)])] = field.one()
            out[(i, j)] = bool(coords) and linalg.solve(matrix, rhs, field) is not None
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
