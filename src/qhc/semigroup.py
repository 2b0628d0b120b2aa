"""Numerical semigroups of branches and the shifted semigroups Gamma_i.

The shifted semigroup of branch i is computed two ways: the closed
formula (shift + branch value semigroup, conductor (w_f-w_i)/d_i + c(A_i))
and a brute-force membership oracle that decides t_i^gamma in A by
membership in the coordinate ring module A*(1,...,1), through the
graded module kernel.  Tests keep the two routes in agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Set

from .curve import BranchKind, QuasiCurve
from .errors import ConsistencyError, InputError
from .poly import UniPoly


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple
    gaps: frozenset
    conductor: int

    def contains(self, n: int) -> bool:
        if n < 0:
            return False
        if n >= self.conductor:
            return True
        return n not in self.gaps

    @property
    def frobenius(self) -> int:
        return self.conductor - 1


def sg_from_generators(gens: Iterable[int]) -> NumericalSemigroup:
    """Semigroup generated by gens; gaps and conductor by upward sieve."""
    gens = tuple(sorted(set(int(g) for g in gens)))
    if not gens or any(g <= 0 for g in gens):
        raise InputError("generators must be positive integers")
    g = 0
    for v in gens:
        g = math.gcd(g, v)
    if g != 1:
        raise InputError("gcd of generators is %d, not 1" % g)
    members = {0}
    gaps = set()
    run = 0
    n = 0
    smallest = gens[0]
    while run < smallest:
        n += 1
        if any(n - v in members for v in gens if n - v >= 0):
            members.add(n)
            run += 1
        else:
            gaps.add(n)
            run = 0
    conductor = 0 if not gaps else max(gaps) + 1
    return NumericalSemigroup(gens, frozenset(gaps), conductor)


def is_symmetric(sg: NumericalSemigroup) -> bool:
    """gamma in Gamma iff g - gamma not in Gamma, for 0 <= gamma <= g."""
    g = sg.frobenius
    if g < 0:
        return True
    return all(sg.contains(k) != sg.contains(g - k) for k in range(g + 1))


@dataclass(frozen=True)
class ShiftedSemigroup:
    shift: int
    base: NumericalSemigroup
    conductor: int
    frobenius: int

    def contains(self, gamma: int) -> bool:
        return self.base.contains(gamma - self.shift)

    def members_upto(self, bound: int) -> Set[int]:
        return {g for g in range(bound + 1) if self.contains(g)}


def gamma_formula(curve: QuasiCurve, i: int) -> ShiftedSemigroup:
    """Gamma_i via the conductor formula c_i = (w_f - w_i)/d_i + c(A_i)."""
    br = curve.branches[i]
    num = curve.wf - br.weight
    if num % br.t_degree != 0:
        raise ConsistencyError("non-integral semigroup shift on branch %d" % (i + 1))
    shift = num // br.t_degree
    if br.kind is BranchKind.BINOMIAL:
        base = sg_from_generators((curve.wx, curve.wy))
    else:
        base = sg_from_generators((1,))
    conductor = shift + base.conductor
    return ShiftedSemigroup(shift, base, conductor, conductor - 1)


def gamma_oracle(curve: QuasiCurve, i: int, bound: int) -> Set[int]:
    """Members of Gamma_i on [0, bound] by graded membership of t_i^gamma."""
    br = curve.branches[i]
    members = set()
    for gamma in range(bound + 1):
        target = [UniPoly.zero(curve.field) for _ in curve.branches]
        target[i] = UniPoly.monomial(curve.field, curve.field.one(), gamma)
        if curve.image_membership(target, gamma * br.t_degree) is not None:
            members.add(gamma)
    return members
