"""The natural graded integrable connection on a graded torsion-free module.

nabla_E scales each coefficient by the degree of its key and nabla_D is
q * nabla_E, with q from the Koszul/Euler comparison: each is one pass
over the element's keys, with no split into homogeneous components.
natural_connection decides which sufficient condition applies ((C1)+(C2),
(C1)+(C3) after a shift, or a direct stability check, each decided by
yes/no membership; a report solves its witnesses when they are read) and
verify_properties re-checks the Leibniz rule, gradedness and the
commutator identity by exact sampling, on a basis of each degree piece
that is the cover's unit vectors, with no elimination, on a conductor
piece: every key of the cover piece lies in the conductor, whose
exponents kappa_i the curve holds (QuasiCurve.conductors,
GradedSubmodule.conductor_slots).  The checks on such a unit vector read
its key and its slot's shift but no other slot and no generator, so one
that passed is recorded on the curve per bound, q and operators as
(slot, shift, exponent), and a later verify there does not check it
again, whatever cover it has the slot in.  A nabla_D image of two
degrees is a ConsistencyError.  Each entry point takes the module's own
curve or one equal to it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Set, Tuple

from .curve import QuasiCurve
from .derivation import euler, koszul, q_element
from .errors import ConsistencyError, InputError
from .module import (
    FreeCover,
    GradedSubmodule,
    ModuleElement,
    Witness,
    _of,
    element_degrees,
)
from .poly import BiPoly, monomials_of_weight


def apply_nabla_E(curve: QuasiCurve, cover: FreeCover, v: ModuleElement) -> ModuleElement:
    """w * c on each key (i, j, e) of degree w = f_ij + e d_i; a key of
    degree 0 is dropped."""
    fld, branches, shifts = curve.field, curve.branches, cover.shifts
    out = {}
    for (i, j, e), c in v.coeffs.items():
        w = shifts[i][j] + e * branches[i].t_degree
        if w:
            out[(i, j, e)] = fld.from_rational(w) * c
    return _of(fld, out)


def apply_nabla_D(
    curve: QuasiCurve, cover: FreeCover, v: ModuleElement, q: tuple
) -> ModuleElement:
    """nabla_D = q * nabla_E key by key: (i, j, e) of degree w goes to
    (i, j, e + g_i) with coefficient (w c_i) * c, where q_i = (c_i, g_i),
    and a key of degree 0 is dropped.  w c_i is computed once per curve,
    q, branch and degree: the products are kept in curve._derived under q,
    so a q other than q_element(curve) never reads another q's product.
    The key map is injective, so nothing is summed."""
    fld, branches, shifts = curve.field, curve.branches, cover.shifts
    factors = curve._derived.setdefault(("nabla_D_factors", q), {})
    out = {}
    for (i, j, e), c in v.coeffs.items():
        w = shifts[i][j] + e * branches[i].t_degree
        if not w:
            continue
        f = factors.get((i, w))
        if f is None:
            f = factors[(i, w)] = fld.from_rational(w) * q[i][0]
        out[(i, j, e + q[i][1])] = f * c
    return _of(fld, out)


def _image_degree(curve: QuasiCurve, cover: FreeCover, nd: ModuleElement) -> Optional[int]:
    """The degree of a nabla_D image, None for zero.  nabla_D maps a
    homogeneous element to a homogeneous one, so an image of two degrees
    is a fault of the operator, not of the input: ConsistencyError."""
    degrees = element_degrees(curve, cover, nd)
    if len(degrees) > 1:
        raise ConsistencyError("nabla_D image is not homogeneous: degrees %s" % sorted(degrees))
    return next(iter(degrees), None)


def check_stability(M: GradedSubmodule, q: tuple) -> Tuple[bool, List[ModuleElement]]:
    """Whether nabla_D(m_l) is in M for every generator, decided by
    is_member with no witness solved, and the images nabla_D(m_l); an
    image of two degrees raises ConsistencyError.

    Generator sufficiency follows from the Leibniz identity
    nabla_D(a m) = a nabla_D(m) + D(a) m with D(a) in A.
    """
    images = [apply_nabla_D(M.curve, M.cover, gen, q) for gen in M.generators]
    for img in images:
        _image_degree(M.curve, M.cover, img)
    return all(M.is_member(img) for img in images), images


@dataclass
class ConnectionReport:
    """The outcome of natural_connection.  The witnesses of the nabla_D
    images are solved against module on the first read of witnesses and
    kept; a caller that never reads them solves no system."""

    path: str  # "C2-path" | "C3-shift-path" | "direct-stability" | "none"
    lam: Optional[int]
    c1: Dict[Tuple[int, int], bool]
    c2: Dict[Tuple[int, int], bool]
    c3: Tuple[bool, Optional[int]]
    module: GradedSubmodule  # canonically embedded (and shifted on the C3 path)
    images: List[ModuleElement] = dc_field(default_factory=list)
    verification: Dict[str, int] = dc_field(default_factory=dict)
    _witnesses: Optional[List[Optional[Witness]]] = dc_field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def succeeded(self) -> bool:
        return self.path != "none"

    @property
    def witnesses(self) -> List[Optional[Witness]]:
        """module.contains(img) for each image, None where it is no member."""
        if self._witnesses is None:
            self._witnesses = [self.module.contains(img) for img in self.images]
        return self._witnesses


def _check_curve(curve: QuasiCurve, M: GradedSubmodule) -> None:
    """Raise unless curve is M's curve or equal to it: q, the degree bound
    and the checks read curve, everything else M.curve."""
    if curve is not M.curve and curve != M.curve:
        raise InputError("the curve is not the module's curve")


def natural_connection(curve: QuasiCurve, M: GradedSubmodule) -> ConnectionReport:
    """Decide and construct the natural connection on M, a module over curve.

    Pipeline: canonical embedding, then (C1)+(C2) on M itself, else
    (C1)+(C3) on the shifted module, else a direct stability check.
    Failure is a report outcome, never an exception.
    """
    _check_curve(curve, M)
    Mc = M.canonical_embedding()
    q = q_element(curve)
    c1 = Mc.check_C1()
    c2 = Mc.check_C2()
    c3 = Mc.check_C3()
    all_c1 = bool(c1) and all(c1.values())
    all_c2 = bool(c2) and all(c2.values())
    if all_c1 and all_c2:
        path, lam, target = "C2-path", None, Mc
    elif all_c1 and c3[0]:
        lam = c3[1]
        path, target = "C3-shift-path", Mc.shifted(-lam)
    else:
        path, lam, target = "direct-stability", None, Mc
    stable, images = check_stability(target, q)
    if not stable:
        if path in ("C2-path", "C3-shift-path"):
            raise ConsistencyError("sufficient condition held but stability failed")
        path = "none"
    return ConnectionReport(
        path=path, lam=lam, c1=c1, c2=c2, c3=c3, module=target, images=images
    )


def default_degree_bound(curve: QuasiCurve, M: GradedSubmodule) -> int:
    """Covers every degree touched by nabla_D images and conductor checks."""
    _check_curve(curve, M)
    lam = curve.wf - curve.wx - curve.wy
    max_cd = max(c * br.t_degree for c, br in zip(curve.conductors, curve.branches))
    return max(M.weights, default=0) + lam + max_cd + 2 * max(curve.wx, curve.wy)


def _random_homogeneous_scalar(
    rng: random.Random, curve: QuasiCurve, weights: List[int]
) -> BiPoly:
    """A random nonzero homogeneous element of k[x,y] of one of the weights,
    each of which has a monomial."""
    w = rng.choice(weights)
    monos = monomials_of_weight(curve.wx, curve.wy, w)
    terms = {}
    for a, b in monos:
        c = rng.randint(-3, 3)
        if c:
            terms[(a, b)] = curve.field.from_rational(c)
    if not terms:
        a, b = rng.choice(monos)
        terms[(a, b)] = curve.field.one()
    return BiPoly.make(curve.field, terms)


def _random_module_element(
    rng: random.Random, M: GradedSubmodule, bound: int
) -> Optional[ModuleElement]:
    lo, fld = M.min_shift(), M.curve.field
    if bound < lo:
        return None
    for _ in range(20):
        w = rng.randint(lo, bound)
        basis = M.piece_basis(w)
        if not basis:
            continue
        out = {}
        for vec in basis:
            c = rng.randint(-3, 3)
            if c:
                c = fld.from_rational(c)
                for k, v in vec.coeffs.items():
                    p = c * v
                    out[k] = out[k] + p if k in out else p
        # The constructor drops the coefficients that cancelled.
        elt = ModuleElement(fld, out)
        if elt:
            return elt
    return None


def _conductor_record(
    curve: QuasiCurve, M: GradedSubmodule, q: tuple
) -> Optional[Set[Tuple[int, int, int, int]]]:
    """The conductor unit vectors that passed the gradedness checks on
    this curve, each as (i, j, f_ij, e); None on a module with no
    conductor bound.

    On a conductor piece the basis is the cover's unit vectors, and the
    checks on the one of key (i, j, e) (nabla_E = w id, the degree and
    conductor membership of nabla_D, the commutator) read only the curve,
    q, the bound, the two operators, the key and its slot's shift f_ij =
    cover.shifts[i][j]: no other slot of the cover and no generator.  So
    one set is kept on the curve per bound, q and operators, the
    operators as verify_properties finds them now, and any module whose
    cover has the slot (i, j) at shift f_ij reads it.
    """
    if M.conductor is None:
        return None
    records = curve._derived.setdefault("conductor_vectors", {})
    return records.setdefault((M.conductor, q, apply_nabla_E, apply_nabla_D), set())


def verify_properties(
    curve: QuasiCurve,
    report: ConnectionReport,
    degree_bound: Optional[int] = None,
    samples: int = 100,
    seed: int = 0,
) -> Dict[str, int]:
    """Exact verification of the connection axioms on the report's module.

    Checks the Leibniz rule for E and D on random samples, and on every
    piece_basis vector v of degree w up to degree_bound: nabla_E(v)
    = w v, gradedness and membership of nd = nabla_D(v), and the commutator
    identity [nabla_E, nabla_D] = lam * nabla_D with lam = w_f - w_x - w_y.
    Since nabla_D(w v) = w nd, the identity on v is compared in the form
    nabla_E(nd) = (w + lam) nd.  Any failure raises with the offending
    sample or degree.

    On a conductor piece (GradedSubmodule.conductor_slots) each unit
    vector that passed is recorded on the curve by its slot, the slot's
    shift and its exponent (_conductor_record); one that an earlier
    verify on this curve recorded, for this module's cover or another
    with that slot at that shift, is counted as checked and not checked
    again.  An image of nabla_D of two degrees raises ConsistencyError.
    """
    if not report.succeeded:
        raise InputError("cannot verify properties of a failed construction")
    if samples < 0 or (degree_bound is not None and degree_bound < 0):
        raise InputError("samples and degree_bound must be nonnegative")
    M = report.module
    _check_curve(curve, M)
    if degree_bound is None:
        degree_bound = default_degree_bound(curve, M)
    rng = random.Random(seed)
    q = q_element(curve)
    E = euler(curve)
    D = koszul(curve)
    lam = curve.wf - curve.wx - curve.wy
    counts = {"leibniz": 0, "graded": 0, "integrable": 0}

    max_weight = max(degree_bound // 2, curve.wx + curve.wy)
    weights = [w for w in range(max_weight + 1) if monomials_of_weight(curve.wx, curve.wy, w)]
    for _ in range(samples):
        a = _random_homogeneous_scalar(rng, curve, weights)
        v = _random_module_element(rng, M, degree_bound)
        if v is None:
            continue
        na = curve.normalization_image(a)
        av = v.act(na)
        for deriv, apply_op in (
            (E, lambda u: apply_nabla_E(curve, M.cover, u)),
            (D, lambda u: apply_nabla_D(curve, M.cover, u, q)),
        ):
            lhs = apply_op(av)
            rhs = apply_op(v).act(na) + v.act(curve.normalization_image(deriv.apply(a)))
            if lhs != rhs:
                raise ConsistencyError(
                    "Leibniz failed for a=%s, v=%s" % (a, v)
                )
        counts["leibniz"] += 1

    record = _conductor_record(curve, M, q)
    fld, shifts = curve.field, M.cover.shifts
    for w in range(M.min_shift(), degree_bound + 1):
        slots = M.conductor_slots(w)
        if slots is None:
            basis = M.graded_piece(w)
        else:
            one = fld.one()
            basis = [
                _of(fld, {(i, j, e): one})
                for i, j, e in slots
                if (i, j, shifts[i][j], e) not in record
            ]
            n = len(slots) - len(basis)
            counts["graded"] += n
            counts["integrable"] += n
            if not basis:
                continue
        w_k = fld.from_rational(w)
        wlam_k = fld.from_rational(w + lam)
        for vec in basis:
            if apply_nabla_E(curve, M.cover, vec) != vec.scale(w_k):
                raise ConsistencyError("nabla_E is not w*id in degree %d" % w)
            nd = apply_nabla_D(curve, M.cover, vec, q)
            # Recorded only where the bound decided the membership: one
            # that read M's own piece depends on its generators.
            bounded = True
            if nd:
                if _image_degree(curve, M.cover, nd) != w + lam:
                    raise ConsistencyError("nabla_D does not raise degree by %d" % lam)
                bounded = M.in_conductor(nd.coeffs)
                if not bounded and not M.is_member(nd):
                    raise ConsistencyError(
                        "nabla_D leaves the module on a degree-%d basis vector" % w
                    )
            counts["graded"] += 1
            # nabla_D(w * vec) = w * nd, so [nabla_E, nabla_D] vec = lam * nd
            # says nabla_E(nd) = (w + lam) * nd.
            if apply_nabla_E(curve, M.cover, nd) != nd.scale(wlam_k):
                raise ConsistencyError("commutator identity failed in degree %d" % w)
            counts["integrable"] += 1
            if slots is not None and bounded:
                ((i, j, e),) = vec.coeffs
                record.add((i, j, shifts[i][j], e))

    report.verification = counts
    return counts
