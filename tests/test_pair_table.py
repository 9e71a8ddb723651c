"""The pair-derivative kernel: vectorized tables against the per-pair
reference, and the callers assembled from them."""

from itertools import product

import numpy as np
import pytest
import sympy as sp

from cvpert import DiscreteMeasure, TestBasis, build_lagrangian
from cvpert.el import residual_norm
from cvpert.errors import NumericalFailure, OrderUnsupported
from cvpert.fragmentation import (FragmentedMeasure, MultiJet, apply_increment,
                                  fragmented_jacobian, fragmented_residual)
from cvpert.lagrangian import PolynomialLagrangian, pair_table
from cvpert.linops import assemble_delta, delta_zero_dual


class PerPair:
    """Duck-typed view of a model that hides its polynomial type, so that
    pair_table takes the per-pair reference loop."""

    def __init__(self, lag):
        self._lag = lag
        self.name, self.dim, self.max_order = lag.name, lag.dim, lag.max_order

    def __call__(self, x, y):
        return self._lag(x, y)

    def partial(self, x, y, alpha, beta):
        return self._lag.partial(x, y, alpha, beta)


def _zero_model():
    x0, x1, y0, y1 = sp.symbols("x0 x1 y0 y1", real=True)
    return PolynomialLagrangian("zero", 2, 0 * x0, (x0, x1), (y0, y1))


MODELS = {
    "example52_regularized": lambda: build_lagrangian("example52_regularized"),
    "quartic_pair_dim5": lambda: build_lagrangian("quartic_pair", {"dim": 5}),
    "zero": _zero_model,
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_vectorized_table_matches_per_pair_reference(name, rng):
    lag = MODELS[name]()
    m = lag.dim
    X = rng.uniform(-1.5, 1.5, size=(4, m))
    Y = rng.uniform(-1.5, 1.5, size=(3, m))
    checked = 0
    for idx in product(range(3), repeat=2 * m):
        if sum(idx) > 2:
            continue
        alpha, beta = idx[:m], idx[m:]
        fast = pair_table(lag, X, Y, alpha, beta)
        slow = pair_table(PerPair(lag), X, Y, alpha, beta)
        assert fast.shape == slow.shape == (4, 3)
        assert np.all(np.abs(fast - slow) <= 1e-12 * np.abs(slow)), (alpha, beta)
        checked += 1
    assert checked == (2 * m + 1) * (2 * m + 2) // 2  # every order <= 2


def test_pair_table_checks_indices_on_both_paths(example52):
    X = np.zeros((2, 2))
    for lag in (example52, PerPair(example52)):
        with pytest.raises(ValueError):
            pair_table(lag, X, X, (1,), (0, 0))
        with pytest.raises(OrderUnsupported):
            pair_table(lag, X, X, (5, 0), (4, 0))


def test_assemble_delta_singular_pair_raises():
    x0, y0 = sp.symbols("x0 y0", real=True)
    lag = PolynomialLagrangian("pole", 1, 1 / (x0 - y0) ** 2, (x0,), (y0,))
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.ones(2))
    with pytest.raises(NumericalFailure) as info:
        assemble_delta(mu, lag, 0.0)
    x, y = info.value.pair
    assert np.array_equal(x, y)


@pytest.mark.parametrize("convention", ["standard", "breve"])
def test_assembly_matches_per_pair_reference(example52_reg, rng, convention):
    mu = DiscreteMeasure(rng.normal(size=(5, 2)) * 0.7, rng.uniform(0.5, 1.5, 5))
    fast = assemble_delta(mu, example52_reg, 0.4, convention=convention).matrix
    slow = assemble_delta(mu, PerPair(example52_reg), 0.4, convention=convention).matrix
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


def test_full_space_residual_is_delta_zero_norm(example52_reg, rng):
    mu = DiscreteMeasure(rng.normal(size=(8, 2)), rng.uniform(0.5, 1.5, 8))
    full = residual_norm(mu, example52_reg, 0.3, TestBasis.full(8, 2))
    assert delta_zero_dual(mu, example52_reg, 0.3).norm() == full


def test_fragmented_jacobian_is_flow_derivative_of_residual(example52_reg, rng):
    # J v = d/dt residual(weights e^{t b}, positions + t v), central difference
    L, n, m = 2, 2, 2
    base = DiscreteMeasure(rng.normal(size=(n, m)) * 0.5, rng.uniform(0.5, 1.5, n))
    frag = FragmentedMeasure(base, rng.uniform(-0.2, 0.2, (L, n)),
                             rng.uniform(-0.3, 0.3, (L, n, m)))
    J = fragmented_jacobian(frag, example52_reg)
    v = rng.normal(size=L * n * (1 + m))
    h = 1e-5
    up = fragmented_residual(apply_increment(frag, MultiJet.unflatten(h * v, L, m)),
                             example52_reg, 0.2)
    dn = fragmented_residual(apply_increment(frag, MultiJet.unflatten(-h * v, L, m)),
                             example52_reg, 0.2)
    fd = (up - dn) / (2 * h)
    assert np.max(np.abs(J @ v - fd)) <= 1e-7 * np.max(np.abs(fd))
