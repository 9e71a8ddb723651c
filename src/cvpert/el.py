"""The function ell and the weak Euler-Lagrange residuals.

ell(x) = sum_j w_j L(x, y_j) - nu/2.  A measure is critical when ell and its
gradient vanish on the support for all test jets.  nu is a fixed scenario
parameter; it is calibrated once and never re-derived while perturbing.

``ell_field`` is the one support sum of ell's x-derivatives up to order 2,
read by Delta_0, the weak EL residuals, Delta's diagonal blocks and the
fragmentation's ell-Hessians.
"""

from __future__ import annotations

from operator import add

import numpy as np

from .errors import ArgError, NotCritical, ShapeError, finite_real
from .jets import DualJet, TestBasis, check_on_support, pairing
from .lagrangian import LagrangianModel, pair_table
from .measure import DiscreteMeasure


def _integrate(table, weights) -> np.ndarray:
    """sum_j weights_j table[..., j] over the trailing support axis, column by
    column in support order, so a row of the support table equals the
    single-point value; ell is additive in the measure only up to rounding.
    Weights (..., N) of a stack weigh the tables (..., rows, N) start by start."""
    if table.shape[-1] != weights.shape[-1]:
        raise ShapeError(f"{weights.shape[-1]} weights for a support of {table.shape[-1]} points")
    total = np.zeros(table.shape[:-1])
    for j in range(weights.shape[-1]):
        total += weights[..., j, None] * table[..., j]
    return total


def integrate_partial(lagrangian, X, points, weights, alpha) -> np.ndarray:
    """sum_j weights_j d^alpha_x L(X_i, points_j) for every row X_i."""
    return _integrate(pair_table(lagrangian, X, points, alpha, (0,) * lagrangian.dim), weights)


def ell_field(lagrangian, nu, weights, table, order=1) -> tuple:
    """ell and its x-derivatives up to ``order`` (0, 1 or 2): (ell,),
    (ell, grad ell) or (ell, grad ell, Hess ell) at every row X_i that
    ``table(alpha, beta)`` reads, the reader of d^alpha_x d^beta_y L(X_i, y_j)
    against a support y_j with the given weights (coincident or massless
    points allowed), one field per start of a stack.  The tables d^alpha_x L,
    |alpha| <= order, are read together (``table.tables``; a reader without
    it, any callable, one by one), stacked and summed over the support once
    (``_integrate``)."""
    m = lagrangian.dim
    zero = (0,) * m
    units = [tuple(e) for e in np.eye(m, dtype=int).tolist()]
    pairs = [(a, b) for a in range(m) for b in range(a, m)] if order == 2 else []
    alphas = [zero] + units[:m * order] + [tuple(map(add, units[a], units[b])) for a, b in pairs]
    read = getattr(table, "tables", None) or (lambda partials: [table(*p) for p in partials])
    sums = np.moveaxis(_integrate(np.array(read([(alpha, zero) for alpha in alphas])), weights),
                       0, -1)
    hessian = np.zeros((m, m), dtype=int)
    for k, (a, b) in enumerate(pairs, start=1 + m):
        hessian[a, b] = hessian[b, a] = k
    return (sums[..., 0] - nu / 2.0, sums[..., 1:1 + m], sums[..., hessian])[:order + 1]


def ell(measure: DiscreteMeasure, lagrangian: LagrangianModel, nu: float, x) -> float:
    """Discrete integral of L(x, .) against the measure, minus nu/2."""
    x = np.asarray(x, dtype=float)[None, :]
    total = integrate_partial(lagrangian, x, measure.points, measure.weights,
                              (0,) * measure.dimension)[0]
    return float(total - nu / 2.0)


def ell_on_support(measure: DiscreteMeasure, lagrangian: LagrangianModel, nu: float) -> np.ndarray:
    return ell_field(lagrangian, nu, measure.weights, measure.pair_tables(lagrangian), 0)[0]


def grad_ell(measure: DiscreteMeasure, lagrangian: LagrangianModel, x) -> np.ndarray:
    """Gradient of ell in the first slot (nu drops out)."""
    x = np.asarray(x, dtype=float)[None, :]
    return np.array([integrate_partial(lagrangian, x, measure.points, measure.weights, e)[0]
                     for e in np.eye(measure.dimension, dtype=int)])


def calibrate_nu(measure: DiscreteMeasure, lagrangian: LagrangianModel, tol: float = 1e-9) -> float:
    """nu making ell vanish on the support: twice the mean of the L-integrals.

    Raises NotCritical if the per-point integrals deviate from their mean by
    more than tol >= 0, since no single nu can then zero out ell on the support.
    """
    if finite_real(tol, "tol", ArgError) < 0:
        raise ArgError(f"tol must be >= 0, got {tol!r}")
    vals = ell_on_support(measure, lagrangian, nu=0.0)
    mean = float(np.mean(vals))
    deviation = float(np.max(np.abs(vals - mean))) if len(vals) else 0.0
    if deviation > tol:
        raise NotCritical(deviation, "support values of the L-integral are not constant")
    return 2.0 * mean


def weak_el_residual(measure: DiscreteMeasure, lagrangian: LagrangianModel, nu: float,
                     testbasis: TestBasis) -> np.ndarray:
    """Per test jet and per support point: a_i ell(x_i) + grad ell(x_i) . u_i,
    the ``pairing`` of the jet with (ell, grad ell) from ``ell_field``.

    A basis without vector parts reads only ell, no gradient: the term it
    drops is a zero, so the entries are equal up to the sign of a zero.
    """
    check_on_support(testbasis.jets, measure.size, measure.dimension, "test basis")
    if not any(np.any(jet.vector) for jet in testbasis.jets):
        values = ell_on_support(measure, lagrangian, nu)
        return np.array([jet.scalar * values for jet in testbasis.jets])
    dual = DualJet(*ell_field(lagrangian, nu, measure.weights, measure.pair_tables(lagrangian)))
    return np.array([pairing(dual, jet) for jet in testbasis.jets])


def residual_norm(measure, lagrangian, nu, testbasis) -> float:
    res = weak_el_residual(measure, lagrangian, nu, testbasis)
    return float(np.max(np.abs(res))) if res.size else 0.0
