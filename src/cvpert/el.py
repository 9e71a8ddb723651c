"""The function ell and the weak Euler-Lagrange residuals.

ell(x) = sum_j w_j L(x, y_j) - nu/2.  A measure is critical when ell and its
gradient vanish on the support for all test jets.  nu is a fixed scenario
parameter; it is calibrated once and never re-derived while perturbing.
"""

from __future__ import annotations

import numpy as np

from .errors import NotCritical
from .jets import DualJet, TestBasis
from .lagrangian import LagrangianModel, pair_table
from .measure import DiscreteMeasure


def integrate_partial(lagrangian, X, points, weights, alpha) -> np.ndarray:
    """sum_j weights_j d^alpha_x L(X_i, points_j) for every row X_i.

    The sum runs in support order, so that ell is exactly additive in the
    measure and a row of the support table equals the single-point value.
    """
    table = pair_table(lagrangian, X, points, alpha, (0,) * lagrangian.dim)
    total = np.zeros(len(table))
    for w, column in zip(weights, table.T):
        total += w * column
    return total


def ell_field(lagrangian, nu, X, points, weights) -> tuple:
    """ell and its x-gradient at every row of X, for the measure with the
    given support and weights (coincident or massless points allowed)."""
    units = np.eye(lagrangian.dim, dtype=int)
    vals = integrate_partial(lagrangian, X, points, weights, (0,) * lagrangian.dim) - nu / 2.0
    grads = np.stack([integrate_partial(lagrangian, X, points, weights, e) for e in units],
                     axis=-1)
    return vals, grads


def ell(measure: DiscreteMeasure, lagrangian: LagrangianModel, nu: float, x) -> float:
    """Discrete integral of L(x, .) against the measure, minus nu/2."""
    x = np.asarray(x, dtype=float)[None, :]
    total = integrate_partial(lagrangian, x, measure.points, measure.weights,
                              (0,) * measure.dimension)[0]
    return float(total - nu / 2.0)


def ell_on_support(measure: DiscreteMeasure, lagrangian: LagrangianModel, nu: float) -> np.ndarray:
    return integrate_partial(lagrangian, measure.points, measure.points, measure.weights,
                             (0,) * measure.dimension) - nu / 2.0


def grad_ell(measure: DiscreteMeasure, lagrangian: LagrangianModel, x) -> np.ndarray:
    """Gradient of ell in the first slot (nu drops out)."""
    x = np.asarray(x, dtype=float)[None, :]
    return np.array([integrate_partial(lagrangian, x, measure.points, measure.weights, e)[0]
                     for e in np.eye(measure.dimension, dtype=int)])


def support_dual(measure: DiscreteMeasure, lagrangian: LagrangianModel, nu: float) -> DualJet:
    """ell and its gradient on the support as a dual jet (Delta_0); its norm
    is the weak EL residual over the full test space."""
    return DualJet(*ell_field(lagrangian, nu, measure.points, measure.points, measure.weights))


def calibrate_nu(measure: DiscreteMeasure, lagrangian: LagrangianModel, tol: float = 1e-9) -> float:
    """nu making ell vanish on the support: twice the mean of the L-integrals.

    Raises NotCritical if the per-point integrals deviate from their mean by
    more than tol, since no single nu can then zero out ell on the support.
    """
    vals = ell_on_support(measure, lagrangian, nu=0.0)
    mean = float(np.mean(vals))
    deviation = float(np.max(np.abs(vals - mean))) if len(vals) else 0.0
    if deviation > tol:
        raise NotCritical(deviation, "support values of the L-integral are not constant")
    return 2.0 * mean


def weak_el_residual(measure: DiscreteMeasure, lagrangian: LagrangianModel, nu: float,
                     testbasis: TestBasis) -> np.ndarray:
    """Per test jet and per support point: a_i ell(x_i) + grad ell(x_i) . u_i."""
    dual = support_dual(measure, lagrangian, nu)
    out = np.zeros((len(testbasis), measure.size))
    for r, jet in enumerate(testbasis.jets):
        out[r] = jet.scalar * dual.value + np.einsum("ij,ij->i", dual.gradient, jet.vector)
    return out


def residual_norm(measure, lagrangian, nu, testbasis) -> float:
    res = weak_el_residual(measure, lagrangian, nu, testbasis)
    return float(np.max(np.abs(res))) if res.size else 0.0
