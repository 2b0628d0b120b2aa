"""Preset catalog: ADE simple singularities and the y(x^n - y^m) family.

Each entry carries the minimal hand-picked cyclotomic extension needed to
split f into branches; entries are fully validated at load.  Fixture
modules (rank-one families and normalization/maximal-ideal modules) are
emitted as ModuleSpec-style data.
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
from .semigroup import gamma_formula, sg_from_generators

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


def _mono(field, c, xe, ye):
    return BiPoly.monomial(field, field.from_rational(c), xe, ye)


def _gen_pow(field, k):
    return field.generator() ** k


def _entry_A(n: int) -> CatalogEntry:
    if n % 2 == 0:
        fld = QQ
        weights = (n + 1, 2)
        f = _mono(fld, 1, 2, 0) + _mono(fld, 1, 0, n + 1)
        branches = (
            (BranchKind.BINOMIAL, fld.one(), fld.from_rational(-1)),
        )
    else:
        k = (n + 1) // 2
        if n == 1:
            fld = Q_I
            a1, b1 = _gen_pow(fld, 1), _gen_pow(fld, 1)
            a2, b2 = -_gen_pow(fld, 1), -_gen_pow(fld, 1)
        elif n == 3:
            fld = Q_ZETA8
            a1, b1 = _gen_pow(fld, 2), _gen_pow(fld, 1)
            a2, b2 = -_gen_pow(fld, 2), _gen_pow(fld, 3)
        elif n == 5:
            fld = Q_ZETA12
            a1, b1 = _gen_pow(fld, 3), _gen_pow(fld, 1)
            a2, b2 = -_gen_pow(fld, 3), -_gen_pow(fld, 1)
        else:
            raise InputError("A_%d needs an extension outside the catalog" % n)
        weights = (k, 1)
        f = _mono(fld, 1, 2, 0) + _mono(fld, 1, 0, n + 1)
        branches = (
            (BranchKind.BINOMIAL, a1, b1),
            (BranchKind.BINOMIAL, a2, b2),
        )
    return CatalogEntry(
        "A_%d" % n, f.field, weights, f, branches, "f = x^2 + y^%d" % (n + 1)
    )


def _entry_D(n: int) -> CatalogEntry:
    if n == 4:
        fld = Q_I
        weights = (1, 1)
        f = _mono(fld, 1, 2, 1) + _mono(fld, 1, 0, 3)
        i = _gen_pow(fld, 1)
        branches = (
            (BranchKind.AXIS_Y, None, None),
            (BranchKind.BINOMIAL, i, i),
            (BranchKind.BINOMIAL, -i, -i),
        )
    elif n == 5:
        fld = QQ
        weights = (3, 2)
        f = _mono(fld, 1, 2, 1) + _mono(fld, 1, 0, 4)
        branches = (
            (BranchKind.AXIS_Y, None, None),
            (BranchKind.BINOMIAL, fld.one(), fld.from_rational(-1)),
        )
    elif n == 6:
        fld = Q_ZETA8
        weights = (2, 1)
        f = _mono(fld, 1, 2, 1) + _mono(fld, 1, 0, 5)
        branches = (
            (BranchKind.AXIS_Y, None, None),
            (BranchKind.BINOMIAL, _gen_pow(fld, 2), _gen_pow(fld, 1)),
            (BranchKind.BINOMIAL, -_gen_pow(fld, 2), _gen_pow(fld, 3)),
        )
    else:
        raise InputError("D_%d is outside the catalog range (D_4..D_6)" % n)
    return CatalogEntry(
        "D_%d" % n, fld, weights, f, branches, "f = x^2*y + y^%d" % (n - 1)
    )


def _entry_E(n: int) -> CatalogEntry:
    if n == 6:
        fld = Q_ZETA8
        weights = (4, 3)
        f = _mono(fld, 1, 3, 0) + _mono(fld, 1, 0, 4)
        branches = ((BranchKind.BINOMIAL, fld.one(), _gen_pow(fld, 1)),)
    elif n == 7:
        fld = QQ
        weights = (3, 2)
        f = _mono(fld, 1, 3, 0) + _mono(fld, 1, 1, 3)
        branches = (
            (BranchKind.AXIS_X, None, None),
            (BranchKind.BINOMIAL, fld.one(), fld.from_rational(-1)),
        )
    elif n == 8:
        fld = QQ
        weights = (5, 3)
        f = _mono(fld, 1, 3, 0) + _mono(fld, 1, 0, 5)
        branches = ((BranchKind.BINOMIAL, fld.one(), fld.from_rational(-1)),)
    else:
        raise InputError("E_%d is not a simple singularity label" % n)
    return CatalogEntry("E_%d" % n, fld, weights, f, branches, str(f))


def _entry_Y(m: int, n: int) -> CatalogEntry:
    if m <= 0 or n <= 0 or m > 10 or n > 10:
        raise InputError("YFamily supports 1 <= m, n <= 10")
    if math.gcd(m, n) != 1:
        raise InputError("YFamily needs coprime (m, n)")
    fld = QQ
    weights = (m, n)
    # y * (x^n - y^m)
    f = _mono(fld, 1, n, 1) + _mono(fld, -1, 0, m + 1)
    branches = (
        (BranchKind.AXIS_Y, None, None),
        (BranchKind.BINOMIAL, fld.from_rational(-1), fld.one()),
    )
    return CatalogEntry(
        "Y_%d_%d" % (m, n), fld, weights, f, branches, "f = y*(x^%d - y^%d)" % (n, m)
    )


ADE_LABELS = (
    ["A_%d" % n for n in range(1, 7)]
    + ["D_%d" % n for n in range(4, 7)]
    + ["E_6", "E_7", "E_8"]
)


def catalog_labels() -> List[str]:
    return list(ADE_LABELS) + ["Y_m_n (coprime, m, n <= 10)"]


def catalog_get(label: str, index: Optional[Union[int, Tuple[int, int]]] = None) -> CatalogEntry:
    """Fetch and validate a catalog entry.

    label is "A".."E" with an index, a full label like "D_5", or "Y" with
    index (m, n) for the y(x^n - y^m) family.
    """
    label = label.strip()
    if "_" in label and index is None:
        parts = label.split("_")
        label = parts[0]
        arity = 2 if label == "Y" else 1
        if len(parts) != arity + 1 or not all(p.isdigit() for p in parts[1:]):
            raise InputError("malformed catalog label %r" % "_".join(parts))
        index = tuple(int(p) for p in parts[1:]) if arity == 2 else int(parts[1])
    if label == "A":
        if not isinstance(index, int) or not 1 <= index <= 6:
            raise InputError("A-series catalog covers A_1..A_6")
        entry = _entry_A(index)
    elif label == "D":
        if not isinstance(index, int) or not 4 <= index <= 6:
            raise InputError("D-series catalog covers D_4..D_6")
        entry = _entry_D(index)
    elif label == "E":
        if not isinstance(index, int) or index not in (6, 7, 8):
            raise InputError("E-series catalog covers E_6, E_7, E_8")
        entry = _entry_E(index)
    elif label == "Y":
        if not (isinstance(index, tuple) and len(index) == 2):
            raise InputError("YFamily needs index (m, n)")
        entry = _entry_Y(index[0], index[1])
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
        base = sg_from_generators((curve.wx, curve.wy))
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
    for i in range(curve.r):
        c_i = gamma_formula(curve, i).conductor
        for g in range(1, c_i + 1):
            norm_gens.append(ModuleElement(fld, {(i, 0, g): one}))
    fixtures.append(FixtureModule("normalization", cover, tuple(norm_gens)))
    max_gens = tuple(ones.act(curve.monomial_terms(a, b)) for a, b in ((1, 0), (0, 1)))
    fixtures.append(FixtureModule("maximal_ideal", cover, max_gens))
    # The free cyclic module exercises the C3 shift path.
    fixtures.append(FixtureModule("free_cyclic", cover, (ones,)))
    return fixtures
