from itertools import product

import numpy as np
import pytest
import sympy as sp

from cvpert import build_lagrangian
from cvpert.errors import OrderUnsupported
from cvpert.lagrangian import NumericLagrangian, PolynomialLagrangian, numeric_partial

MODELS = ["example52", "example52_regularized", "quartic_pair", "pair_distance"]


def symmetry_defect(lag, rng, n_probes=1000, scale=1.0) -> float:
    """Max |L(x,y) - L(y,x)| / (1 + |L|) over random probe pairs."""
    worst = 0.0
    for _ in range(n_probes):
        x = rng.uniform(-scale, scale, size=lag.dim)
        y = rng.uniform(-scale, scale, size=lag.dim)
        a, b = lag(x, y), lag(y, x)
        worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    return worst


def derivative_defect(lag, rng, max_total=3, n_probes=25, scale=0.8) -> float:
    """Max relative gap between analytic partials and the finite-difference oracle."""
    worst = 0.0
    m = lag.dim
    indices = [idx for idx in product(range(max_total + 1), repeat=2 * m)
               if 1 <= sum(idx) <= max_total]
    for _ in range(n_probes):
        x = rng.uniform(-scale, scale, size=m)
        y = rng.uniform(-scale, scale, size=m)
        for idx in indices:
            alpha, beta = idx[:m], idx[m:]
            ana = lag.partial(x, y, alpha, beta)
            num = numeric_partial(lambda a, b: lag(a, b), x, y, alpha, beta)
            worst = max(worst, abs(ana - num) / (1.0 + abs(ana)))
    return worst


@pytest.mark.parametrize("name", MODELS)
def test_symmetry_on_probes(name, rng):
    lag = build_lagrangian(name)
    assert symmetry_defect(lag, rng, n_probes=1000) <= 1e-12


@pytest.mark.parametrize("name", MODELS)
def test_analytic_vs_finite_difference(name, rng):
    # all mixed partials of total order <= 3 against the numeric oracle
    lag = build_lagrangian(name)
    assert derivative_defect(lag, rng, max_total=3, n_probes=10) <= 1e-6


def test_nonnegative_models_on_probes(rng):
    for name in ("quartic_pair", "pair_distance"):
        lag = build_lagrangian(name)
        assert lag.nonnegative
        for _ in range(200):
            x = rng.uniform(-2, 2, size=lag.dim)
            y = rng.uniform(-2, 2, size=lag.dim)
            assert lag(x, y) >= -1e-12


def test_example52_values(example52):
    # hand values at the fragmented support of the worked example
    lam, w = 0.1, 1.0 / np.sqrt(2.0)
    p1 = np.array([lam * w, lam])
    p2 = np.array([-lam * w, lam])
    assert example52(p1, p1) == pytest.approx(0.0, abs=1e-15)
    expected = 16 * lam ** 4 * w ** 2 * (w ** 2 - 1)
    assert example52(p1, p2) == pytest.approx(expected, rel=1e-12)


def test_mixed_partial_slot_swap_symmetry(example52, rng):
    # d_x^a d_y^b L(x, y) equals d_x^b d_y^a L(y, x) for symmetric L
    for _ in range(20):
        x = rng.uniform(-1, 1, size=2)
        y = rng.uniform(-1, 1, size=2)
        a, b = (1, 0), (0, 2)
        assert example52.partial(x, y, a, b) == pytest.approx(
            example52.partial(y, x, b, a), rel=1e-12, abs=1e-12)


def test_order_cap():
    lag = build_lagrangian("example52")
    lag.max_order = 2
    with pytest.raises(OrderUnsupported):
        lag.partial(np.zeros(2), np.zeros(2), (2, 0), (1, 0))


def test_numeric_partial_exact_on_cubic():
    fn = lambda x, y: (x[0] - y[0]) ** 3
    val = numeric_partial(fn, np.array([0.3]), np.array([-0.2]), (2,), (0,))
    assert val == pytest.approx(6 * 0.5, rel=1e-9)


def test_registry_unknown_name():
    with pytest.raises(KeyError):
        build_lagrangian("nope")


def test_numeric_partial_order_zero_is_one_exact_call():
    rng = np.random.default_rng(11)
    calls = []

    def fn(x, y):
        calls.append(1)
        return float(np.exp(x @ y) * np.sin(x[0] - y[1]))

    for _ in range(50):
        x, y = rng.normal(size=2), rng.normal(size=2)
        calls.clear()
        got = numeric_partial(fn, x, y, (0, 0), (0, 0))
        assert len(calls) == 1
        assert got == fn(x, y)
    lag = NumericLagrangian("smooth", 2, fn)
    x, y = rng.normal(size=2), rng.normal(size=2)
    assert lag.partial(x, y, (0, 0), (0, 0)) == lag(x, y)


def partial_values(lag, max_total):
    """Every mixed partial of total order <= max_total at one pair of points."""
    x, y = np.linspace(0.7, -0.3, lag.dim), np.linspace(-0.4, 0.9, lag.dim)
    return [lag.partial(x, y, idx[:lag.dim], idx[lag.dim:])
            for idx in product(range(max_total + 1), repeat=2 * lag.dim)
            if sum(idx) <= max_total]


def sympy_values(lag, max_total):
    """partial_values by substituting into the differentiated expression."""
    x, y = np.linspace(0.7, -0.3, lag.dim), np.linspace(-0.4, 0.9, lag.dim)
    syms = lag._xs + lag._ys
    point = dict(zip(syms, [*x, *y]))
    return [float(sp.diff(lag.expr, *zip(syms, idx)).subs(point))
            for idx in product(range(max_total + 1), repeat=2 * lag.dim)
            if sum(idx) <= max_total]


@pytest.mark.parametrize("name", MODELS)
def test_rebuilt_model_compiles_nothing(name, compiles):
    first = partial_values(build_lagrangian(name), 3)
    compiles.clear()
    assert partial_values(build_lagrangian(name), 3) == first
    assert compiles == []


def test_partials_are_not_shared_across_models(compiles):
    x0, y0 = sp.symbols("x0 y0", real=True)  # the symbols of quartic_pair in dim 1
    builds = [lambda: build_lagrangian("quartic_pair", {"well_scale": 4.0}),
              lambda: build_lagrangian("quartic_pair", {"well_scale": 3.0}),
              lambda: build_lagrangian("quartic_pair", {"dim": 2}),
              lambda: PolynomialLagrangian("user", 1, (x0 - y0) ** 4 + x0 ** 2 * y0 ** 2,
                                           (x0,), (y0,))]
    for _ in range(2):
        compiles.clear()
        for build in builds:
            lag = build()
            assert partial_values(lag, 3) == pytest.approx(sympy_values(lag, 3), rel=1e-12)
    # the builtin rebuilds compile nothing; the user model compiles only its
    # own expression, its values, never another model's code
    assert compiles == [lag.expr]


def test_fresh_model_cache_holds_only_its_own_partials(compiles):
    partial_values(build_lagrangian("example52_regularized"), 4)
    lag = build_lagrangian("example52_regularized")
    assert lag._cache == {}
    compiles.clear()
    lag.partial(np.array([0.3, 0.1]), np.array([-0.2, 0.5]), (1, 0), (0, 1))
    assert list(lag._cache) == [((1, 0), (0, 1))]
    assert compiles == []


def test_live_model_keeps_its_compiled_partials(compiles):
    # a non-polynomial model compiles a partial on first use and reuses it
    x0, y0 = sp.symbols("x0 y0", real=True)
    x, y = np.array([0.5]), np.array([-0.25])
    lag = PolynomialLagrangian("live", 1, sp.exp(x0 * y0), (x0,), (y0,))
    first = lag.partial(x, y, (1,), (1,))
    assert first == pytest.approx((1.0 + x[0] * y[0]) * np.exp(x[0] * y[0]), rel=1e-14)
    assert len(compiles) == 1
    compiles.clear()
    assert lag.partial(x, y, (1,), (1,)) == first
    assert compiles == []
