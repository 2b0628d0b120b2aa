"""Preset catalog: ADE simple singularities and the y(x^n - y^m) family.

The ADE entries are the rows of one table, _ADE.  Each row names the
minimal hand-picked cyclotomic extension needed to split f into branches,
and gives each binomial branch's a and b as signed powers of that field's
generator; the Y family is built by the same function.  Entries are fully
validated at load, a*b^w_x = -1 included.  Fixture modules (rank-one
families and normalization/maximal-ideal modules) are emitted as
ModuleSpec-style data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Tuple, Union

from .curve import BranchKind, QuasiCurve
from .errors import InputError
from .field import NumberField, QQ
from .module import FreeCover, GradedSubmodule, ModuleElement
from .poly import BiPoly
from .semigroup import gamma_formula

# Minimal cyclotomic extensions used by the catalog.
Q_I = NumberField((1, 0, 1))  # Q(i), a^2 = -1
Q_ZETA8 = NumberField((1, 0, 0, 0, 1))  # Q(zeta_8), a^4 = -1
Q_ZETA12 = NumberField((1, 0, -1, 0, 1))  # Q(zeta_12), a^4 = a^2 - 1


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    field: NumberField
    weights: Tuple[int, int]
    f: BiPoly
    branches: tuple  # (kind, a, b) seeds
    description: str
    # The curve, built and validated on first use; not part of equality.
    _curve: Optional[QuasiCurve] = dc_field(
        default=None, init=False, compare=False, repr=False
    )

    def curve(self) -> QuasiCurve:
        if self._curve is None:
            curve = QuasiCurve.create(self.field, self.f, self.weights, self.branches)
            object.__setattr__(self, "_curve", curve)
        return self._curve


_AXIS_X, _AXIS_Y = BranchKind.AXIS_X, BranchKind.AXIS_Y

# One row per ADE label, in catalog order: the field, the weights (w_x, w_y),
# f as {(i, j): c} for its terms c*x^i*y^j, the axis branches, each binomial
# branch's (a, b) and the description.  a and b are signed powers (s, k) of
# the field's generator g, standing for s*g^k; over Q only g^0 = 1 is used.
_ADE = {
    "A_1": (Q_I, (1, 1), {(2, 0): 1, (0, 2): 1}, (), (((1, 1), (1, 1)), ((-1, 1), (-1, 1))), "f = x^2 + y^2"),
    "A_2": (QQ, (3, 2), {(2, 0): 1, (0, 3): 1}, (), (((1, 0), (-1, 0)),), "f = x^2 + y^3"),
    "A_3": (Q_ZETA8, (2, 1), {(2, 0): 1, (0, 4): 1}, (), (((1, 2), (1, 1)), ((-1, 2), (1, 3))), "f = x^2 + y^4"),
    "A_4": (QQ, (5, 2), {(2, 0): 1, (0, 5): 1}, (), (((1, 0), (-1, 0)),), "f = x^2 + y^5"),
    "A_5": (Q_ZETA12, (3, 1), {(2, 0): 1, (0, 6): 1}, (), (((1, 3), (1, 1)), ((-1, 3), (-1, 1))), "f = x^2 + y^6"),
    "A_6": (QQ, (7, 2), {(2, 0): 1, (0, 7): 1}, (), (((1, 0), (-1, 0)),), "f = x^2 + y^7"),
    "D_4": (Q_I, (1, 1), {(2, 1): 1, (0, 3): 1}, (_AXIS_Y,), (((1, 1), (1, 1)), ((-1, 1), (-1, 1))), "f = x^2*y + y^3"),
    "D_5": (QQ, (3, 2), {(2, 1): 1, (0, 4): 1}, (_AXIS_Y,), (((1, 0), (-1, 0)),), "f = x^2*y + y^4"),
    "D_6": (Q_ZETA8, (2, 1), {(2, 1): 1, (0, 5): 1}, (_AXIS_Y,), (((1, 2), (1, 1)), ((-1, 2), (1, 3))), "f = x^2*y + y^5"),
    "E_6": (Q_ZETA8, (4, 3), {(3, 0): 1, (0, 4): 1}, (), (((1, 0), (1, 1)),), "(1)*y^4 + (1)*x^3"),
    "E_7": (QQ, (3, 2), {(3, 0): 1, (1, 3): 1}, (_AXIS_X,), (((1, 0), (-1, 0)),), "(1)*x*y^3 + (1)*x^3"),
    "E_8": (QQ, (5, 3), {(3, 0): 1, (0, 5): 1}, (), (((1, 0), (-1, 0)),), "(1)*y^5 + (1)*x^3"),
}

ADE_LABELS = list(_ADE)

# What an A, D or E label with an index outside _ADE is told.
_SERIES = {
    "A": "A-series catalog covers A_1..A_6",
    "D": "D-series catalog covers D_4..D_6",
    "E": "E-series catalog covers E_6, E_7, E_8",
}


def _entry(label, fld, weights, f, axes, binomials, description) -> CatalogEntry:
    g = fld.generator()
    powers = {k: g ** k for k in {k for pair in binomials for _, k in pair}}
    branches = tuple((kind, None, None) for kind in axes) + tuple(
        (BranchKind.BINOMIAL,) + tuple(powers[k].scale(s) for s, k in pair) for pair in binomials
    )
    f = BiPoly.make(fld, {e: fld.from_rational(c) for e, c in f.items()})
    return CatalogEntry(label, fld, weights, f, branches, description)


def catalog_labels() -> List[str]:
    return list(ADE_LABELS) + ["Y_m_n (coprime, m, n <= 10)"]


def catalog_get(label: str, index: Optional[Union[int, Tuple[int, int]]] = None) -> CatalogEntry:
    """Fetch and validate a catalog entry.

    label is "A".."E" with an index, a full label like "D_5" without one,
    or "Y" with index (m, n) for the y(x^n - y^m) family.
    """
    label = label.strip()
    if "_" in label:
        if index is not None:
            raise InputError("full catalog label %r cannot be combined with --index" % label)
        parts = label.split("_")
        label = parts[0]
        arity = 2 if label == "Y" else 1
        if len(parts) != arity + 1 or not all(p.isascii() and p.isdigit() for p in parts[1:]):
            raise InputError("malformed catalog label %r" % "_".join(parts))
        index = tuple(int(p) for p in parts[1:]) if arity == 2 else int(parts[1])
    if label == "Y":
        if not (isinstance(index, tuple) and len(index) == 2):
            raise InputError("YFamily needs index (m, n)")
        m, n = index
        if m <= 0 or n <= 0 or m > 10 or n > 10:
            raise InputError("YFamily supports 1 <= m, n <= 10")
        if math.gcd(m, n) != 1:
            raise InputError("YFamily needs coprime (m, n)")
        entry = _entry(
            "Y_%d_%d" % (m, n), QQ, (m, n), {(n, 1): 1, (0, m + 1): -1}, (_AXIS_Y,),
            (((-1, 0), (1, 0)),), "f = y*(x^%d - y^%d)" % (n, m),
        )
    elif label in _SERIES:
        key = "%s_%d" % (label, index) if isinstance(index, int) else None
        if key not in _ADE:
            raise InputError(_SERIES[label])
        entry = _entry(key, *_ADE[key])
    else:
        raise InputError("unknown catalog label %r" % label)
    entry.curve()  # validation: expansion, homogeneity, b-equation (kept on the entry)
    return entry


@dataclass(frozen=True)
class FixtureModule:
    name: str
    cover: FreeCover
    generators: tuple  # of ModuleElement

    def module(self, curve: QuasiCurve) -> GradedSubmodule:
        return GradedSubmodule(curve, self.cover, list(self.generators))


def fixture_modules(entry: CatalogEntry) -> List[FixtureModule]:
    """Bundled rank-one fixtures for an entry.

    YFamily entries get the two fixture families { e_11 + e_21, t_2^h e_21 }
    for h outside Gamma_2 and { e_11 + t_2^h e_21, e_21 } for h outside
    the branch value semigroup; ADE entries ship the full normalization
    and the maximal-ideal module.
    """
    curve = entry.curve()
    fld = curve.field
    one = fld.one()
    fixtures: List[FixtureModule] = []
    if entry.label.startswith("Y_"):
        gamma2 = gamma_formula(curve, 1)
        cover1 = FreeCover(((0,), (0,)))
        for h in range(1, gamma2.conductor):
            if gamma2.contains(h):
                continue
            gens = (
                ModuleElement(fld, {(0, 0, 0): one, (1, 0, 0): one}),
                ModuleElement(fld, {(1, 0, h): one}),
            )
            fixtures.append(FixtureModule("case1_h%d" % h, cover1, gens))
        base = gamma2.base  # the branch value semigroup <w_x, w_y>
        for h in range(1, base.conductor):
            if base.contains(h):
                continue
            cover2 = FreeCover(((h,), (0,)))
            gens = (
                ModuleElement(fld, {(0, 0, 0): one, (1, 0, h): one}),
                ModuleElement(fld, {(1, 0, 0): one}),
            )
            fixtures.append(FixtureModule("case2_h%d" % h, cover2, gens))
        return fixtures
    # ADE rank-one fixtures: full normalization and the maximal ideal.
    cover = FreeCover(tuple((0,) for _ in range(curve.r)))
    ones = ModuleElement(fld, {(i, 0, 0): one for i in range(curve.r)})
    norm_gens = [ones]
    for i, c_i in enumerate(curve.conductors):
        for g in range(1, c_i + 1):
            norm_gens.append(ModuleElement(fld, {(i, 0, g): one}))
    fixtures.append(FixtureModule("normalization", cover, tuple(norm_gens)))
    max_gens = tuple(ones.act(curve.monomial_terms(a, b)) for a, b in ((1, 0), (0, 1)))
    fixtures.append(FixtureModule("maximal_ideal", cover, max_gens))
    # The free cyclic module exercises the C3 shift path.
    fixtures.append(FixtureModule("free_cyclic", cover, (ones,)))
    return fixtures
