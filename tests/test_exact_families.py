"""Exact all-order oracle: a rigid motion of a critical ring keeps it critical.

The model L(x, y) = (|x - y|^2 - 1)^2 depends on |x - y| only, so rotating
or translating a critical measure gives critical measures for every lambda.
On the regular 16-gon of radius 1/sqrt(3) with weights 1/16 (nu = 2/3) the
family x -> exp(lambda J) x has the jets v^(p) = J^p x / p!, the family
x -> x + lambda e_1 the jets v^(1) = e_1, v^(p >= 2) = 0, all with zero
scalars.  Fed as the inhomogeneity, each order's right-hand side
E^(p) + Delta v^(p) vanishes to rounding, so the expansion returns the
prescribed jets unchanged.  Those rounding-level right-hand sides lie
within the range test's floor, so strict mode accepts both families, while
a kernel component above the floor is still out of range.
"""

import math

import numpy as np
import pytest

from cvpert import DiscreteMeasure, Jet, calibrate_nu
from cvpert.errors import OutOfRange
from cvpert.expansion import (Inhomogeneity, error_term, expand_inhomogeneous,
                              family_from_linearized, reconstruct)
from cvpert.jets import DualJet
from cvpert.lagrangian import PolynomialLagrangian
from cvpert.linops import GreensOperator, assemble_delta, delta_zero_dual, kernel_basis

N = 16
J = np.array([[0.0, -1.0], [1.0, 0.0]])


@pytest.fixture(scope="module")
def ring():
    lag = PolynomialLagrangian.from_formula(
        "ring", 2, lambda x0, x1, y0, y1: ((x0 - y0) ** 2 + (x1 - y1) ** 2 - 1) ** 2)
    angles = 2.0 * np.pi * np.arange(N) / N
    mu = DiscreteMeasure(np.column_stack([np.cos(angles), np.sin(angles)]) / math.sqrt(3.0),
                         np.full(N, 1.0 / N))
    return mu, lag, calibrate_nu(mu, lag)


def rotation(points, order):
    """v^(p) = J^p x / p!: the Taylor coefficients of exp(lambda J) x."""
    return [Jet(np.zeros(N), points @ np.linalg.matrix_power(J, p).T / math.factorial(p))
            for p in range(1, order + 1)]


def translation(order):
    """v^(1) = e_1 at every point, v^(p >= 2) = 0."""
    return [Jet(np.zeros(N), np.tile([1.0, 0.0], (N, 1)))] + [Jet.zero(N, 2)] * (order - 1)


def test_the_ring_calibrates_to_two_thirds(ring):
    assert ring[2] == pytest.approx(2.0 / 3.0, rel=0.0, abs=1e-15)


@pytest.mark.parametrize("family, order", [("rotation", 6), ("translation", 3)])
def test_a_rigid_motion_is_expanded_unchanged_at_every_order(ring, family, order):
    mu, lag, nu = ring
    v = rotation(mu.points, order) if family == "rotation" else translation(order)
    series = expand_inhomogeneous(mu, lag, nu, order, Inhomogeneity(v))
    assert series.order == order
    for p, (w, vp) in enumerate(zip(series.jets, v), start=1):
        assert (w - vp).norm() <= 1e-14, p


@pytest.mark.parametrize("family, order", [("rotation", 6), ("translation", 3)])
def test_each_order_right_hand_side_vanishes(ring, family, order):
    mu, lag, nu = ring
    v = rotation(mu.points, order) if family == "rotation" else translation(order)
    delta = assemble_delta(mu, lag, nu)
    for p in range(1, order + 1):
        assert (error_term(p, v, mu, lag, nu) + delta.apply(v[p - 1])).norm() <= 1e-14, p


def test_the_reconstructed_rotation_stays_critical(ring):
    # the order-6 truncation of exp(0.1 J) x misses the rotation by O(0.1^7 / 7!)
    mu, lag, nu = ring
    series = expand_inhomogeneous(mu, lag, nu, 6, Inhomogeneity(rotation(mu.points, 6)))
    moved = reconstruct(series, 0.1)
    assert delta_zero_dual(moved, lag, nu).norm() <= 1e-10
    turned = mu.points @ (math.cos(0.1) * np.eye(2) + math.sin(0.1) * J).T
    assert np.max(np.abs(moved.points - turned)) <= 1e-10


@pytest.mark.parametrize("family", ["rotation", "translation"])
def test_strict_family_accepts_a_rigid_motion(ring, family):
    # E^(p) is rounding noise at every order, within the floor of the range test
    mu, lag, nu = ring
    (w1,) = rotation(mu.points, 1) if family == "rotation" else translation(1)
    strict = family_from_linearized(w1, mu, lag, nu, 4, strict=True)
    loose = family_from_linearized(w1, mu, lag, nu, 4)
    assert strict.range_defects == loose.range_defects
    for a, b in zip(strict.jets, loose.jets):
        assert np.array_equal(a.flatten(), b.flatten())


@pytest.mark.parametrize("size, raises", [(1.0, True), (1e-12, True), (1e-17, False)])
def test_a_kernel_component_is_out_of_range_above_the_floor(ring, size, raises):
    # Delta is symmetric, so a kernel jet is orthogonal to its range; the floor,
    # rows * eps * sigma_max = 5.3e-15 here, lies between the two smallest sizes
    mu, lag, nu = ring
    delta = assemble_delta(mu, lag, nu)
    kernel = kernel_basis(delta).jets[0]
    dual = DualJet(kernel.scalar, kernel.vector) * (size / mu.weights[0])
    _, defect = GreensOperator(delta).apply(dual)
    assert defect > 0.9  # the part outside the range, relative to the right-hand side
    if raises:
        with pytest.raises(OutOfRange):
            GreensOperator(delta, strict=True).apply(dual)
    else:
        GreensOperator(delta, strict=True).apply(dual)
