"""Numerical semigroups of branches and the shifted semigroups Gamma_i.

The shifted semigroup of branch i is computed two ways: the closed
formula (shift + branch value semigroup, the shift read off the curve's
conductor kappa_i = (w_f-w_i)/d_i + c(A_i), QuasiCurve.conductors) and a
brute-force membership oracle that decides t_i^gamma in A by membership
of the cover element {(i, 0, gamma): 1} in the coordinate ring module
A*(1,...,1), through the graded module kernel.  Tests keep the two
routes in agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Set

from .curve import BranchKind, QuasiCurve
from .errors import InputError
from .module import basis_element, coordinate_ring


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
    """Gamma_i = s_i + Gamma(A_i), s_i = (w_f - w_i)/d_i.

    The shift is read off the curve's conductor kappa_i = s_i + c(A_i)
    (QuasiCurve.conductors) and the gaps of the branch value semigroup
    Gamma(A_i) come from its sieve.  The conductor is s_i plus the
    sieve's, so it equals kappa_i exactly when the closed form c(A_i) does.
    """
    br = curve.branches[i]
    shift = curve.conductors[i] - br.conductor
    if br.kind is BranchKind.BINOMIAL:
        base = sg_from_generators((curve.wx, curve.wy))
    else:
        base = sg_from_generators((1,))
    conductor = shift + base.conductor
    return ShiftedSemigroup(shift, base, conductor, conductor - 1)


def gamma_oracle(curve: QuasiCurve, i: int, bound: int) -> Set[int]:
    """Members of Gamma_i on [0, bound]: each t_i^gamma, the cover element
    {(i, 0, gamma): 1}, asked of coordinate_ring(curve).is_member."""
    ring = coordinate_ring(curve)
    return {g for g in range(bound + 1) if ring.is_member(basis_element(curve, i, 0, g))}
