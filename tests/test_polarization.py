"""Delta_l by polarized Taylor coefficients against the direct enumeration of
the 4^l slot assignments, which survives here as the oracle."""

import math
from itertools import product

import numpy as np
import pytest
import sympy as sp

from cvpert import DiscreteMeasure, Jet
from cvpert.errors import OrderUnsupported
from cvpert.expansion import compositions, error_term
from cvpert.lagrangian import NumericLagrangian, PolynomialLagrangian, build_lagrangian
from cvpert.linops import delta_ell, delta_ell_dual, mixed_directional


def enumerated_delta(order, jets, measure, lagrangian, nu, convention):
    """Delta_l[w_1..w_l] and its x-gradient by enumerating, for every pair of
    points, all slot assignments of the l factors: 0 scalar at x, 1 scalar
    at y, 2 derivative at x, 3 derivative at y (breve drops option 0)."""
    options = (1, 2, 3) if convention == "breve" else (0, 1, 2, 3)
    n, m = measure.size, measure.dimension
    vals = np.zeros(n)
    grads = np.zeros((n, m))
    units = list(np.eye(m))
    for i, j in product(range(n), repeat=2):
        xi, yj, wj = measure.points[i], measure.points[j], measure.weights[j]
        for opts in product(options, repeat=order):
            scal = 1.0
            xdirs, ydirs = [], []
            for jet, o in zip(jets, opts):
                if o == 0:
                    scal *= jet.scalar[i]
                elif o == 1:
                    scal *= jet.scalar[j]
                elif o == 2:
                    xdirs.append(jet.vector[i])
                else:
                    ydirs.append(jet.vector[j])
            if scal == 0.0:
                continue
            vals[i] += wj * scal * mixed_directional(lagrangian, xi, yj, xdirs, ydirs)
            for g in range(m):
                grads[i, g] += wj * scal * mixed_directional(lagrangian, xi, yj,
                                                             xdirs + [units[g]], ydirs)
    if convention == "standard":
        vals -= nu / 2.0 * np.prod([w.scalar for w in jets], axis=0)
    fact = math.factorial(order)
    return vals / fact, grads / fact


def _gauss():
    x0, = sp.symbols("x0:1", real=True)
    y0, = sp.symbols("y0:1", real=True)
    expr = (x0 - y0) ** 4 + sp.exp(-(x0 ** 2 + y0 ** 2) / 4)
    return PolynomialLagrangian("gauss_quartic", 1, expr, (x0,), (y0,))


def _numeric():
    reg = build_lagrangian("example52_regularized")
    return NumericLagrangian("numeric52", 2, lambda x, y: reg(x, y))


MODELS = {
    "example52_regularized": build_lagrangian("example52_regularized"),
    "quartic_pair_dim3": build_lagrangian("quartic_pair", {"dim": 3}),
    "gauss": _gauss(),
    "numeric": _numeric(),
}
# (model, l) grid: the highest l per model keeps the oracle's cost in check
GRID = [("example52_regularized", l) for l in range(1, 6)] \
    + [("quartic_pair_dim3", l) for l in range(1, 5)] \
    + [("gauss", l) for l in range(1, 5)] \
    + [("numeric", l) for l in range(1, 4)]


def make_case(model, order, seed, scales=None):
    lag = MODELS[model]
    rng = np.random.default_rng(seed)
    n, m = 2, lag.dim
    mu = DiscreteMeasure(0.6 * rng.normal(size=(n, m)), rng.uniform(0.5, 2.0, size=n))
    scales = scales or [0.5] * order
    jets = [Jet(s * rng.normal(size=n), s * rng.normal(size=(n, m))) for s in scales]
    return lag, mu, jets, float(rng.normal())


def assert_close(got, ref, rtol=1e-12):
    scale = np.max(np.abs(ref))
    assert scale > 0.0
    assert np.max(np.abs(got - ref)) <= rtol * scale


@pytest.mark.parametrize("model,order", GRID)
def test_polarized_delta_matches_enumeration(model, order):
    lag, mu, jets, nu = make_case(model, order, seed=order)
    for convention in ("standard", "breve"):
        ref_v, ref_g = enumerated_delta(order, jets, mu, lag, nu, convention)
        dual = delta_ell_dual(order, jets, mu, lag, nu, convention)
        assert_close(dual.scalar, ref_v)
        assert_close(dual.vector, ref_g)
        value = delta_ell(order, jets, mu, lag, nu, convention)
        assert_close(value, ref_v)


@pytest.mark.parametrize("model", ["example52_regularized", "numeric"])
def test_disparate_jet_scales(model):
    lag, mu, jets, nu = make_case(model, 3, seed=7, scales=[1e3, 1.0, 1e-6])
    for convention in ("standard", "breve"):
        ref_v, ref_g = enumerated_delta(3, jets, mu, lag, nu, convention)
        dual = delta_ell_dual(3, jets, mu, lag, nu, convention)
        assert_close(dual.scalar, ref_v)
        assert_close(dual.vector, ref_g)


@pytest.mark.parametrize("model", ["example52_regularized", "numeric"])
def test_order_checks_value_and_gradient(model):
    lag, mu, jets, nu = make_case(model, 3, seed=3)
    zeros = [Jet.zero(mu.size, mu.dimension)] * 3
    saved = lag.max_order
    try:
        lag.max_order = 3  # a value of Delta_3 needs order 3, its gradient order 4
        assert np.all(np.isfinite(delta_ell(3, jets, mu, lag, nu)))
        assert np.all(delta_ell(3, zeros, mu, lag, nu, "breve") == 0.0)
        for args in (jets, zeros):
            with pytest.raises(OrderUnsupported):
                delta_ell_dual(3, args, mu, lag, nu)
        lag.max_order = 2
        for args in (jets, zeros):
            with pytest.raises(OrderUnsupported):
                delta_ell(3, args, mu, lag, nu)
            with pytest.raises(OrderUnsupported):
                delta_ell(3, args, mu, lag, nu, "breve")
    finally:
        lag.max_order = saved


class Counting:
    """Duck-typed black box that counts its partial calls."""

    def __init__(self, lag):
        self._lag = lag
        self.name, self.dim, self.max_order = lag.name, lag.dim, lag.max_order
        self.calls = 0
        self.reads = set()

    def __call__(self, x, y):
        return self._lag(x, y)

    def partial(self, x, y, alpha, beta):
        self.calls += 1
        self.reads.add((tuple(x), tuple(y), tuple(alpha), tuple(beta)))
        return self._lag.partial(x, y, alpha, beta)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_black_box_reads_each_partial_table_once(order):
    lag, mu, jets, nu = make_case("example52_regularized", order, seed=5)
    box = Counting(lag)
    dual = delta_ell_dual(order, jets, mu, box, nu)
    assert_close(dual.scalar, delta_ell_dual(order, jets, mu, lag, nu).scalar)
    # one table of n^2 pairs per multi-index pair (alpha, beta), |alpha|+|beta| <= l+1
    indices = math.comb(2 * lag.dim + order + 1, order + 1)
    assert 0 < box.calls <= indices * mu.size ** 2


@pytest.mark.parametrize("p", [3, 4])
def test_black_box_error_term_reads_each_partial_once(p):
    # the Taylor lift of the jet series reads no (x, y, alpha, beta) twice,
    # and agrees with the per-composition sum
    lag, mu, jets, nu = make_case("example52_regularized", p - 1, seed=5)
    box = Counting(lag)
    dual = error_term(p, jets, mu, box, nu)
    assert 0 < box.calls == len(box.reads)
    ref_value, ref_gradient = 0.0, 0.0
    for ell in range(2, p + 1):
        for comp in compositions(p, ell):
            term = delta_ell_dual(ell, [jets[q - 1] for q in comp], mu, Counting(lag), nu)
            ref_value, ref_gradient = ref_value + term.scalar, ref_gradient + term.vector
    assert_close(dual.scalar, ref_value)
    assert_close(dual.vector, ref_gradient)
