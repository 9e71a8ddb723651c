"""One monomial basis per point set: the basis of each polynomial model, the
fused support sums of the error terms against the per-partial series route,
and the number of basis evaluations per operation."""

import itertools
import warnings

import numpy as np
import pytest

from cvpert import DiscreteMeasure, Jet, build_lagrangian
from cvpert import lagrangian, linops, measure
from cvpert.errors import ArgError, NumericalFailure
from cvpert.lagrangian import TruncatedSeries, pair_series
from cvpert.linops import assemble_delta, taylor_error_dual
from cvpert.series import basis_values, lower_set

MODELS = {"example52_regularized": lambda: build_lagrangian("example52_regularized"),
          "quartic_pair_dim5": lambda: build_lagrangian("quartic_pair", {"dim": 5})}


def per_partial_error_dual(p, jets, mu, lag, nu, convention):
    """E^(p) by the per-partial route: the (n, n, K) series table of each
    partial on the jet curve, Cauchy-multiplied by the mass, summed over j."""
    n, m = mu.size, mu.dimension
    zero = (0,) * m
    c = np.stack([np.zeros(n)] + [w.scalar for w in jets] + [np.zeros(n)], axis=-1)
    x = np.stack([mu.points] + [w.vector for w in jets] + [np.zeros((n, m))], axis=-1)
    growth = TruncatedSeries(c).exp()
    mass = TruncatedSeries(mu.weights[None, :, None] * growth.coef[None])
    alphas = [zero] + [tuple(e) for e in np.eye(m, dtype=int).tolist()]
    parts = [TruncatedSeries((pair_series(lag, x, x, a, zero) * mass).coef.sum(axis=1))
             for a in alphas]
    if convention == "standard":
        parts = [growth * (parts[0] - nu / 2.0)] + [growth * g for g in parts[1:]]
    return np.stack([s.coef[:, -1] for s in parts], axis=-1).ravel()


@pytest.mark.parametrize("convention", ["standard", "breve"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_fused_support_sums_match_per_partial_route(name, convention):
    lag = MODELS[name]()
    m = lag.dim
    rng = np.random.default_rng(64 + m)
    mu = DiscreteMeasure(0.7 * rng.normal(size=(64, m)), rng.uniform(0.5, 1.5, 64))
    nu = float(rng.normal())
    for p in range(2, 7):
        jets = [Jet(0.3 * rng.normal(size=64), 0.3 * rng.normal(size=(64, m)))
                for _ in range(p - 1)]
        got = taylor_error_dual(p, jets, mu, lag, nu, convention).flatten()
        want = per_partial_error_dual(p, jets, mu, lag, nu, convention)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), p


def test_overflowing_series_raises_numerical_failure_without_warning():
    lag = build_lagrangian("quartic_pair", {"dim": 5})
    mu = DiscreteMeasure(np.eye(3, 5), np.ones(3))
    jets = [Jet(np.zeros(3), np.full((3, 5), 1e200)) for _ in range(2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match=r"E\^\(3\) not finite"):
            taylor_error_dual(3, jets, mu, lag, 0.0)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_basis_is_every_exponent_below_a_term(name):
    lag = MODELS[name]()
    m = lag.dim
    parts = lag._exponents.reshape(-1, m)
    want = sorted({u for row in parts.tolist()
                   for u in itertools.product(*(range(e + 1) for e in row))})
    assert sorted(map(tuple, lag.basis.tolist())) == want
    # each partial's rows point at its shifted exponents
    for alpha, beta in [((0,) * m, (0,) * m), ((1,) + (0,) * (m - 1), (0,) * m),
                        ((0,) * m, (2,) + (0,) * (m - 1))]:
        ix, iy, _ = lag._partial(alpha, beta)
        shift = np.array(alpha + beta)
        rows = lag._exponents[np.all(lag._exponents >= shift, axis=1)] - shift
        assert np.array_equal(np.hstack([lag.basis[ix], lag.basis[iy]]), rows)


def test_lower_set_rejects_codes_past_int64():
    # 23 coordinates of degree 6 span 7^23 > 2^63 mixed-radix codes
    with pytest.raises(ArgError):
        lower_set(np.full((1, 23), 6))


@pytest.fixture
def basis_calls(monkeypatch):
    """List of the basis_values calls made through any cvpert module."""
    calls = []
    original = lagrangian.basis_values

    def counting(basis, X):
        calls.append(X.shape)
        return original(basis, X)

    for module in (lagrangian, measure, linops):
        monkeypatch.setattr(module, "basis_values", counting)
    return calls


@pytest.mark.parametrize("name", sorted(MODELS))
def test_one_basis_evaluation_per_point_set(name, basis_calls):
    lag = MODELS[name]()
    m = lag.dim
    rng = np.random.default_rng(3)
    mu = DiscreteMeasure(rng.normal(size=(6, m)), rng.uniform(0.5, 1.5, 6))
    assemble_delta(mu, lag, 0.4)
    assert len(basis_calls) == 1
    table = mu.pair_tables(lag)
    for idx in itertools.product(range(3), repeat=2 * m):
        if sum(idx) <= 2:
            table(idx[:m], idx[m:])
    assert len(basis_calls) == 1
    basis_calls.clear()
    jets = [Jet(0.3 * rng.normal(size=6), 0.3 * rng.normal(size=(6, m))) for _ in range(3)]
    taylor_error_dual(4, jets, mu, lag, 0.4)
    assert basis_calls == [(6, m, 5)]


def test_constant_model_on_series_points():
    # no coordinate occurs in the basis: its one value is the series 1
    import sympy as sp

    x0, y0 = sp.symbols("x0 y0", real=True)
    lag = lagrangian.PolynomialLagrangian("constant", 1, sp.Integer(3) + 0 * x0, (x0,), (y0,))
    X = np.random.default_rng(5).normal(size=(2, 1, 3))
    assert np.array_equal(basis_values(lag.basis, X), [[[1.0, 0.0, 0.0]] * 2])
    assert np.array_equal(pair_series(lag, X, X[:1], (0,), (0,)).coef, [[[3.0, 0.0, 0.0]]] * 2)
