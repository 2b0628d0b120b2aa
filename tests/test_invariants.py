"""Closed-form curve invariants as oracles for the ranks the code computes.

Two classical identities of a reduced quasi-homogeneous curve f with r
branches need no linear algebra:

- Milnor-Orlik: mu = (w_f/w_x - 1)(w_f/w_y - 1), and, a plane curve being
  Gorenstein with mu = 2 delta - r + 1, the conductor exponents kappa_i of
  QuasiCurve.conductors add up to 2 delta = mu + r - 1.
- The Hilbert series of A = k[x, y]/(f) is
  (1 - T^{w_f}) / ((1 - T^{w_x})(1 - T^{w_y})), so dim A_w is the rank of
  the degree-w piece of coordinate_ring(curve).

The seeds of the random draws were fixed before the first run.
"""

import random
from fractions import Fraction

import pytest

from qhc.catalog import ADE_LABELS, catalog_get
from qhc.module import coordinate_ring

from conftest import random_reduced_curve

Y_LABELS = ["Y_1_1", "Y_2_1", "Y_1_2", "Y_3_2", "Y_2_3", "Y_5_3", "Y_5_4", "Y_7_4", "Y_7_5", "Y_10_9"]
LABELS = list(ADE_LABELS) + Y_LABELS


def _milnor_number(curve):
    wf = Fraction(curve.wf)
    return (wf / curve.wx - 1) * (wf / curve.wy - 1)


def _hilbert_coefficient(curve, w):
    """The coefficient of T^w in (1 - T^{w_f}) / ((1 - T^{w_x})(1 - T^{w_y}))."""

    def monomials(n):
        """The number of x^a y^b of weight n."""
        if n < 0:
            return 0
        return sum(1 for a in range(n // curve.wx + 1) if (n - a * curve.wx) % curve.wy == 0)

    return monomials(w) - monomials(w - curve.wf)


def _check_conductor_sum(curve):
    assert sum(curve.conductors) == _milnor_number(curve) + curve.r - 1


def _check_hilbert_function(curve):
    ring = coordinate_ring(curve)
    for w in range(3 * curve.wf + 1):
        assert len(ring.graded_piece(w)) == _hilbert_coefficient(curve, w), w


@pytest.mark.parametrize("label", LABELS)
def test_conductor_sum_is_milnor_plus_branches_minus_one_on_the_catalog(label):
    _check_conductor_sum(catalog_get(label).curve())


@pytest.mark.parametrize("label", LABELS)
def test_coordinate_ring_pieces_follow_the_hilbert_series_on_the_catalog(label):
    _check_hilbert_function(catalog_get(label).curve())


def test_conductor_sum_is_milnor_plus_branches_minus_one_on_random_curves():
    rng = random.Random(1801)
    for _ in range(300):
        _check_conductor_sum(random_reduced_curve(rng)[0])


def test_coordinate_ring_pieces_follow_the_hilbert_series_on_random_curves():
    rng = random.Random(1802)
    for _ in range(150):
        _check_hilbert_function(random_reduced_curve(rng)[0])


def test_the_oracles_are_not_vacuous():
    # The cusp x^2 - y^3: mu = 2, one branch, kappa = 2; A has pieces of
    # dimension 1 in degrees 0, 2, 3, 4, ... and none in degree 1.
    curve = catalog_get("A_2").curve()
    assert (curve.wx, curve.wy, curve.wf) in ((3, 2, 6), (2, 3, 6))
    assert _milnor_number(curve) == 2 and curve.conductors == (2,)
    assert [_hilbert_coefficient(curve, w) for w in range(8)] == [1, 0, 1, 1, 1, 1, 1, 1]
