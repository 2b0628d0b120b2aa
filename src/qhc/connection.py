"""The natural graded integrable connection on a graded torsion-free module.

nabla_E scales each homogeneous component by its weight; nabla_D is
q * nabla_E with q from the Koszul/Euler comparison.  natural_connection
decides which sufficient condition applies ((C1)+(C2), (C1)+(C3) after a
shift, or a direct stability check) and verify_properties re-checks the
Leibniz rule, gradedness and the commutator identity by exact sampling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from .curve import QuasiCurve
from .derivation import QElement, euler, koszul, q_element
from .errors import ConsistencyError, InputError
from .module import (
    FreeCover,
    GradedSubmodule,
    ModuleElement,
    Witness,
    _of,
    element_degree,
    homogeneous_components,
)
from .poly import BiPoly, monomials_of_weight
from .semigroup import gamma_formula


def apply_nabla_E(curve: QuasiCurve, cover: FreeCover, v: ModuleElement) -> ModuleElement:
    """Each homogeneous component of weight w is scaled by w."""
    comps = homogeneous_components(curve, cover, v)
    out = ModuleElement(curve.field, {})
    for w, comp in comps.items():
        term = comp.scale(curve.field.from_rational(w))
        if len(comps) == 1:
            return term
        out = out + term
    return out


def _nabla_D_homogeneous(
    curve: QuasiCurve, v: ModuleElement, w: int, q: QElement
) -> ModuleElement:
    """q * (w v) in one pass: the key (i, j, e) goes to (i, j, e + g_i)
    with coefficient (w c_i) * c, where q_i = c_i t_i^{g_i}; w c_i is
    computed once for each branch that v has a key on."""
    wq = curve.field.from_rational(w)
    if not wq:
        return ModuleElement(curve.field, {})
    factors = {}
    out = {}
    for (i, j, e), c in v.coeffs.items():
        f = factors.get(i)
        if f is None:
            f = factors[i] = wq * q.coeffs[i]
        out[(i, j, e + q.exps[i])] = f * c
    return _of(curve.field, out)


def apply_nabla_D(
    curve: QuasiCurve, cover: FreeCover, v: ModuleElement, q: QElement
) -> ModuleElement:
    """nabla_D = q * nabla_E, extended additively over components."""
    comps = homogeneous_components(curve, cover, v)
    out = ModuleElement(curve.field, {})
    for w, comp in comps.items():
        term = _nabla_D_homogeneous(curve, comp, w, q)
        if len(comps) == 1:
            return term
        out = out + term
    return out


def check_stability(
    M: GradedSubmodule, q: QElement
) -> Tuple[bool, List[Tuple[ModuleElement, Optional[Witness]]]]:
    """nabla_D(m_l) in M for every generator.

    Generator sufficiency follows from the Leibniz identity
    nabla_D(a m) = a nabla_D(m) + D(a) m with D(a) in A.
    """
    results = []
    stable = True
    for gen in M.generators:
        image = apply_nabla_D(M.curve, M.cover, gen, q)
        witness = M.contains(image)
        if witness is None:
            stable = False
        results.append((image, witness))
    return stable, results


@dataclass
class ConnectionReport:
    path: str  # "C2-path" | "C3-shift-path" | "direct-stability" | "none"
    lam: Optional[int]
    c1: Dict[Tuple[int, int], bool]
    c2: Dict[Tuple[int, int], bool]
    c3: Tuple[bool, Optional[int]]
    module: GradedSubmodule  # canonically embedded (and shifted on the C3 path)
    images: List[ModuleElement] = dc_field(default_factory=list)
    witnesses: List[Optional[Witness]] = dc_field(default_factory=list)
    verification: Dict[str, int] = dc_field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return self.path != "none"


def natural_connection(curve: QuasiCurve, M: GradedSubmodule) -> ConnectionReport:
    """Decide and construct the natural connection on M.

    Pipeline: canonical embedding, then (C1)+(C2) on M itself, else
    (C1)+(C3) on the shifted module, else a direct stability check.
    Failure is a report outcome, never an exception.
    """
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
    stable, results = check_stability(target, q)
    if not stable:
        if path in ("C2-path", "C3-shift-path"):
            raise ConsistencyError("sufficient condition held but stability failed")
        path = "none"
    report = ConnectionReport(
        path=path,
        lam=lam,
        c1=c1,
        c2=c2,
        c3=c3,
        module=target if stable else Mc,
        images=[img for img, _ in results],
        witnesses=[wit for _, wit in results],
    )
    return report


def default_degree_bound(curve: QuasiCurve, M: GradedSubmodule) -> int:
    """Covers every degree touched by nabla_D images and conductor checks."""
    lam = curve.wf - curve.wx - curve.wy
    max_cd = max(
        gamma_formula(curve, i).conductor * curve.branches[i].t_degree
        for i in range(curve.r)
    )
    return max(M.weights) + lam + max_cd + 2 * max(curve.wx, curve.wy)


def _random_homogeneous_scalar(
    rng: random.Random, curve: QuasiCurve, max_weight: int
) -> Optional[BiPoly]:
    """A random nonzero homogeneous element of k[x,y] of bounded weight."""
    weights = [w for w in range(0, max_weight + 1)
               if monomials_of_weight(curve.wx, curve.wy, w)]
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
    lo = M.min_shift()
    for _ in range(20):
        w = rng.randint(lo, bound)
        basis = M.graded_piece(w)
        if not basis:
            continue
        out = ModuleElement(M.curve.field, {})
        for vec in basis:
            c = rng.randint(-3, 3)
            if c:
                out = out + vec.scale(M.curve.field.from_rational(c))
        if out:
            return out
    return None


def verify_properties(
    curve: QuasiCurve,
    report: ConnectionReport,
    degree_bound: Optional[int] = None,
    samples: int = 100,
    seed: int = 0,
) -> Dict[str, int]:
    """Exact verification of the connection axioms on the report's module.

    Checks the Leibniz rule for E and D on random samples, gradedness of
    nabla_E / nabla_D on graded-piece bases, and the commutator identity
    [nabla_E, nabla_D] = (w_f - w_x - w_y) * nabla_D.  Any failure raises
    with the offending sample.
    """
    if not report.succeeded:
        raise InputError("cannot verify properties of a failed construction")
    if samples < 0 or (degree_bound is not None and degree_bound < 0):
        raise InputError("samples and degree_bound must be nonnegative")
    M = report.module
    if degree_bound is None:
        degree_bound = default_degree_bound(curve, M)
    rng = random.Random(seed)
    q = q_element(curve)
    E = euler(curve)
    D = koszul(curve)
    lam = curve.wf - curve.wx - curve.wy
    counts = {"leibniz": 0, "graded": 0, "integrable": 0}

    for _ in range(samples):
        a = _random_homogeneous_scalar(rng, curve, max(degree_bound // 2, curve.wx + curve.wy))
        v = _random_module_element(rng, M, degree_bound)
        if a is None or v is None:
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

    lam_k = curve.field.from_rational(lam)
    for w in range(M.min_shift(), degree_bound + 1):
        w_k = curve.field.from_rational(w)
        for vec in M.graded_piece(w):
            ne = apply_nabla_E(curve, M.cover, vec)
            if ne != vec.scale(w_k):
                raise ConsistencyError("nabla_E is not w*id in degree %d" % w)
            nd = apply_nabla_D(curve, M.cover, vec, q)
            if nd:
                wd = element_degree(curve, M.cover, nd)
                if wd != w + lam:
                    raise ConsistencyError("nabla_D does not raise degree by %d" % lam)
                if M.contains(nd) is None:
                    raise ConsistencyError(
                        "nabla_D leaves the module on a degree-%d basis vector" % w
                    )
            counts["graded"] += 1
            # ne == w * vec and nabla_D is k-linear, so nabla_D(ne) = w * nd.
            comm = apply_nabla_E(curve, M.cover, nd) - nd.scale(w_k)
            if comm != nd.scale(lam_k):
                raise ConsistencyError("commutator identity failed in degree %d" % w)
            counts["integrable"] += 1

    report.verification = counts
    return counts
