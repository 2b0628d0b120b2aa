"""Euler and Koszul derivations and their extensions to the normalization.

A derivation on A is stored through its coordinate images (P(x), P(y));
its canonical extension to k[t_1] x ... x k[t_r] is a vector of
coefficients delta_i with ~P_i = delta_i(t_i) * d/dt_i.  For a homogeneous
P every delta_i is one branch term (c, e), meaning c*t_i^e, or None (see
curve), solved from the chain rule n_i(P u) = delta_i * d/dt n_i(u).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .curve import QuasiCurve
from .errors import ConsistencyError, InputError
from .module import _of, coordinate_ring, element_degrees
from .poly import BiPoly


@dataclass(frozen=True)
class DerivationOnA:
    px: BiPoly  # image of x
    py: BiPoly  # image of y
    weight: int

    def apply(self, h: BiPoly) -> BiPoly:
        """px * dh/dx + py * dh/dy, summed into one dict: the products of
        BiPoly multiplication, with one canonical polynomial built."""
        out = {}
        for (a, b), c in h.terms:
            for p, e, sa, sb in ((self.px, a, a - 1, b), (self.py, b, a, b - 1)):
                if e:
                    dc = c.scale(e)
                    for (pa, pb), pc in p.terms:
                        key = (pa + sa, pb + sb)
                        prod = pc * dc
                        out[key] = out[key] + prod if key in out else prod
        return BiPoly.make(self.px.field, out)


def euler(curve: QuasiCurve) -> DerivationOnA:
    """E = w_x x d/dx + w_y y d/dy, homogeneous of weight 0."""
    fld = curve.field
    px = BiPoly.monomial(fld, fld.from_rational(curve.wx), 1, 0)
    py = BiPoly.monomial(fld, fld.from_rational(curve.wy), 0, 1)
    return DerivationOnA(px, py, 0)


def koszul(curve: QuasiCurve) -> DerivationOnA:
    """D = f_y d/dx - f_x d/dy, homogeneous of weight w_f - w_x - w_y."""
    return DerivationOnA(
        curve.f.dy(), -curve.f.dx(), curve.wf - curve.wx - curve.wy
    )


def _times(s: Optional[tuple], t: Optional[tuple]) -> Optional[tuple]:
    """The product of two branch terms."""
    return None if s is None or t is None else (s[0] * t[0], s[1] + t[1])


def _derivative(term: Optional[tuple]) -> Optional[tuple]:
    """d/dt of a branch term: c*t^e gives e*c*t^(e-1), None for a constant."""
    if term is None or not term[1]:
        return None
    c, e = term
    return (c.scale(e), e - 1)


def preserves_ideal(curve: QuasiCurve, P: DerivationOnA) -> bool:
    """Whether P(f) lies in (f), i.e. P descends to A = k[x,y]/(f); P(f)
    must be homogeneous."""
    return not any(curve.normalization_image(P.apply(curve.f)))


def extend(curve: QuasiCurve, P: DerivationOnA) -> tuple:
    """Canonical extension of P to the normalization: one term (c, e) or
    None per branch, the delta_i of ~P_i = delta_i(t_i) * d/dt_i.

    By the chain rule n_i(P u) = delta_i * d/dt n_i(u) for u in {x, y}:
    delta_i is solved on the first coordinate whose image has a nonzero
    derivative (every branch has one) and checked on both.  A P that is
    not homogeneous raises NotHomogeneousError.
    """
    if not preserves_ideal(curve, P):
        raise InputError("derivation does not preserve the ideal (f)")
    images = (curve.normalization_image(P.px), curve.normalization_image(P.py))
    deltas = []
    for i, br in enumerate(curve.branches):
        slopes = (_derivative(br.nx), _derivative(br.ny))
        slope, image = next((s, n[i]) for s, n in zip(slopes, images) if s is not None)
        delta = None
        if image is not None:
            if image[1] < slope[1]:
                raise InputError("inconsistent extension on branch %d" % (i + 1))
            delta = (image[0] / slope[0], image[1] - slope[1])
        if any(_times(delta, s) != n[i] for s, n in zip(slopes, images)):
            raise InputError("inconsistent extension on branch %d" % (i + 1))
        deltas.append(delta)
    return tuple(deltas)


def q_element(curve: QuasiCurve) -> tuple:
    """q = ((beta_1/d_1) t_1^{c_1-1}, ..., (beta_r/d_r) t_r^{c_r-1}), one
    term (c, e) per branch, read off the extended Koszul derivation
    ~D_i = beta_i t_i^{c_i}: ~D = q * ~E, verified together with q*x, q*y
    in A.

    Computed once per curve and kept on it.
    """
    q = curve._derived.get("q_element")
    if q is None:
        q = _compute_q(curve)
        curve._derived["q_element"] = q
    return q


def _compute_q(curve: QuasiCurve) -> tuple:
    ext_d = extend(curve, koszul(curve))
    # Each delta_i must be a term beta_i t^{c_i} with c_i the semigroup
    # conductor kappa_i; anything else is an internal inconsistency.
    for i, (delta, expected) in enumerate(zip(ext_d, curve.conductors)):
        if delta is None:
            raise ConsistencyError("extended Koszul delta vanishes on branch %d" % (i + 1))
        if delta[1] != expected:
            raise ConsistencyError(
                "Koszul exponent %d != semigroup conductor %d on branch %d"
                % (delta[1], expected, i + 1)
            )
    fld = curve.field
    q = tuple(
        (beta / fld.from_rational(br.t_degree), c - 1)
        for (beta, c), br in zip(ext_d, curve.branches)
    )
    # ~D = q * ~E componentwise
    ext_e = extend(curve, euler(curve))
    for i in range(curve.r):
        if _times(q[i], ext_e[i]) != ext_d[i]:
            raise ConsistencyError("~D != q*~E on branch %d" % (i + 1))
    # q in (A:m): q*n(x) and q*n(y) are elements of A of degree lam + w_x, lam + w_y
    ring = coordinate_ring(curve)
    lam = curve.wf - curve.wx - curve.wy
    q_vec = _of(fld, {(i, 0, g): c for i, (c, g) in enumerate(q)})
    for (a, b), wh in (((1, 0), curve.wx), ((0, 1), curve.wy)):
        v = q_vec.act(curve.monomial_terms(a, b))
        if not element_degrees(curve, ring.cover, v) <= {lam + wh} or not ring.is_member(v):
            raise ConsistencyError("q*m does not land in A")
    if any(g < 0 for _, g in q):
        raise InputError("q is not defined for a smooth branch (negative Frobenius number)")
    return q
