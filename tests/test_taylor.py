"""Taylor-mode error terms against the composition sum, and the lazy ledger."""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cvpert import DiscreteMeasure, Jet
from cvpert import linops
from cvpert import measure as measure_module
from cvpert.errors import OrderUnsupported
from cvpert.expansion import (DiagramLedger, compositions, error_term, expand,
                              family_from_linearized)
from cvpert.lagrangian import (NumericLagrangian, PolynomialLagrangian, TruncatedSeries,
                               build_lagrangian, takes_series)
from cvpert.linops import delta_ell_dual
from cvpert.measure import push_forward


def composition_sum(p, jets, measure, lag, nu, convention="standard"):
    """Reference E^(p): Delta_l summed over the compositions of p, l >= 2."""
    terms = [delta_ell_dual(ell, [jets[q - 1] for q in comp], measure, lag, nu, convention)
             for ell in range(2, p + 1) for comp in compositions(p, ell)]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def assert_close(got, ref, rtol=1e-12):
    scale = max(np.max(np.abs(ref)), 1e-300)
    assert np.max(np.abs(got - ref)) <= rtol * scale


def random_jets(rng, count, n, m, scale=0.3):
    return [Jet(scale * rng.normal(size=n), scale * rng.normal(size=(n, m)))
            for _ in range(count)]


def generic_start(lag):
    rng = np.random.default_rng(11)
    base = DiscreteMeasure(np.array([[0.52353851, 0.7775154], [-0.52353851, 0.7775154]]),
                           np.ones(2))
    return push_forward(base, 0.05 * rng.normal(size=2), 0.05 * rng.normal(size=(2, 2)))


def numeric52():
    """Black box of example52_regularized, partials by finite differences up to
    order 5, which E^(4) needs."""
    return NumericLagrangian("numeric52", 2, build_lagrangian("example52_regularized"),
                             max_order=5)


MODELS = {"example52_regularized": build_lagrangian("example52_regularized"),
          "quartic_pair": build_lagrangian("quartic_pair", {"dim": 2}),
          "numeric52": numeric52()}


def test_truncated_series_arithmetic():
    lam = TruncatedSeries([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(((1 + lam) ** 5).coef, [math.comb(5, k) for k in range(6)])
    assert np.array_equal((lam ** 0).coef, [1, 0, 0, 0, 0, 0])
    assert np.array_equal((2.0 - lam * 3).coef, [2, -3, 0, 0, 0, 0])
    assert np.allclose((lam * 0.5).exp().coef, [0.5 ** k / math.factorial(k) for k in range(6)],
                       rtol=1e-15, atol=0)
    # numpy scalars defer to the series operators
    assert isinstance(np.float64(2.0) * lam, TruncatedSeries)
    # broadcasting over leading axes: (2, 1, K) * (1, 3, K) -> (2, 3, K)
    a = TruncatedSeries(np.arange(12.0).reshape(2, 1, 6))
    b = TruncatedSeries(np.arange(18.0).reshape(1, 3, 6))
    assert (a * b).coef.shape == (2, 3, 6)
    with pytest.raises(TypeError):
        lam ** 0.5


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3), p=st.integers(2, 4),
       convention=st.sampled_from(["standard", "breve"]),
       model=st.sampled_from(sorted(MODELS)))
def test_taylor_error_term_matches_composition_sum(seed, n, p, convention, model):
    lag = MODELS[model]
    rng = np.random.default_rng(seed)
    mu = DiscreteMeasure(rng.normal(size=(n, 2)), rng.uniform(0.5, 2.0, size=n))
    jets = random_jets(rng, p - 1, n, 2)
    nu = float(rng.normal())
    fast = error_term(p, jets, mu, lag, nu, convention)
    ref = composition_sum(p, jets, mu, lag, nu, convention)
    assert_close(fast.flatten(), ref.flatten())


def test_expand_makes_no_partial_call():
    lag = build_lagrangian("example52_regularized")
    calls = []
    partial = lag.partial
    lag.partial = lambda *args: calls.append(args) or partial(*args)
    start = generic_start(lag)
    nu = 2.0 * float(np.mean([sum(lag(x, y) for y in start.points) for x in start.points]))
    series = expand(start, lag, nu, order=5)
    assert len(series.jets) == 5
    assert calls == []
    assert max(sum(alpha) + sum(beta) for alpha, beta in lag._cache) <= 2


def test_lowered_max_order_fails_at_the_same_order():
    poly = build_lagrangian("example52_regularized")
    start = generic_start(poly)
    jets = expand(start, poly, 0.3, order=3, keep_ledger=False).jets
    for lag in (poly, numeric52()):
        lag.max_order = 3

        def failing_orders(ledger):
            out = []
            for p in range(2, 5):
                try:
                    error_term(p, jets, start, lag, 0.3, ledger=ledger)
                except OrderUnsupported:
                    out.append(p)
            return out

        assert failing_orders(None) == failing_orders(DiagramLedger()) == [3, 4]
        with pytest.raises(OrderUnsupported):
            expand(start, lag, 0.3, order=3)


def test_black_box_expansion_sums_compositions_only_for_the_ledger(monkeypatch):
    lag = numeric52()
    start = generic_start(lag)
    composition_duals = linops.composition_duals

    def forbidden(*args):
        raise AssertionError("composition sum outside the ledger")

    monkeypatch.setattr(linops, "composition_duals", forbidden)
    series = expand(start, lag, 0.3, order=4)
    entered = []
    monkeypatch.setattr(linops, "composition_duals",
                        lambda *args: entered.append(args) or composition_duals(*args))
    ledger = series.ledger
    assert entered
    for p in range(1, 5):
        assert_close(error_term(p, series.jets, start, lag, 0.3).flatten(),
                     ledger.order_sum(p, start.size, start.dimension).flatten())


def test_lazy_ledger_equals_eager_ledger():
    lag = MODELS["example52_regularized"]
    start = generic_start(lag)
    series = expand(start, lag, 0.3, order=3)
    eager = DiagramLedger()
    for p in range(1, 4):
        error_term(p, series.jets, start, lag, 0.3, ledger=eager)
    lazy = series.ledger
    assert series.ledger is lazy
    assert sorted(lazy.terms) == sorted(eager.terms) == [1, 2, 3]
    for p, terms in eager.terms.items():
        assert [(t.order, t.ell, t.composition) for t in lazy.terms[p]] == \
            [(t.order, t.ell, t.composition) for t in terms]
        for a, b in zip(lazy.terms[p], terms):
            assert np.array_equal(a.dual.flatten(), b.dual.flatten())
    assert expand(start, lag, 0.3, order=2, keep_ledger=False).ledger is None
    assert expand(start, lag, 0.3, order=0).ledger.terms == {}

    family = family_from_linearized(Jet.zero(1, 2), DiscreteMeasure(np.zeros((1, 2)), np.ones(1)),
                                    build_lagrangian("example52"), 0.0, order=3)
    assert sorted(family.ledger.terms) == [2, 3]


def test_non_polynomial_expression_takes_taylor_lift(monkeypatch):
    x0, = sp.symbols("x0:1", real=True)
    y0, = sp.symbols("y0:1", real=True)
    expr = (x0 - y0) ** 4 + sp.exp(-(x0 ** 2 + y0 ** 2) / 4)
    lag = PolynomialLagrangian("gauss_quartic", 1, expr, (x0,), (y0,))
    assert not takes_series(lag)
    assert takes_series(MODELS["quartic_pair"])
    calls = []
    pair_table = measure_module.pair_table
    monkeypatch.setattr(measure_module, "pair_table",
                        lambda *args: calls.append(args) or pair_table(*args))
    rng = np.random.default_rng(4)
    mu = DiscreteMeasure(np.array([[0.3], [-0.4]]), np.array([1.0, 0.7]))
    jets = random_jets(rng, 2, 2, 1)
    got = error_term(3, jets, mu, lag, 0.2)
    assert calls
    ref = composition_sum(3, jets, mu, lag, 0.2)
    assert_close(got.flatten(), ref.flatten())
