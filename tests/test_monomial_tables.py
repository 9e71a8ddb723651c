"""Monomial tables of the built-in polynomial models against their factored
sympy formulas, series contraction against lambdified code on truncated
series, and a sympy-free import and run."""

import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

import cvpert
from cvpert import build_lagrangian
from cvpert.lagrangian import PolynomialLagrangian, TruncatedSeries, pair_series, pair_table


# -- the factored formulas the built-in models were once written in ----------

def example52_formula(regularized):
    x0, x1, y0, y1 = sp.symbols("x0 x1 y0 y1", real=True)
    expr = (x0 - y0) ** 4 + (x1 - y1) ** 2 - (x1 + y1) ** 2 * (x0 - y0) ** 2
    if regularized:
        expr = expr + x0 ** 6 + x1 ** 6 + y0 ** 6 + y1 ** 6
    return expr, (x0, x1), (y0, y1)


def quartic_pair_formula(dim=1, well_scale=4.0):
    xs = sp.symbols(f"x0:{dim}", real=True)
    ys = sp.symbols(f"y0:{dim}", real=True)
    confine = lambda t: t ** 2 * (t ** 2 - well_scale ** 2) ** 2
    expr = sum((xs[k] - ys[k]) ** 4 + confine(xs[k]) + confine(ys[k]) for k in range(dim))
    return expr, xs, ys


def pair_distance_formula(distance=1.0):
    x0, y0 = sp.symbols("x0 y0", real=True)
    return ((x0 - y0) ** 2 - distance ** 2) ** 2, (x0,), (y0,)


CASES = {
    "example52": ("example52", {}, lambda: example52_formula(False)),
    "example52_regularized": ("example52_regularized", {}, lambda: example52_formula(True)),
    "quartic_pair": ("quartic_pair", {}, quartic_pair_formula),
    "quartic_pair_dim2_s3": ("quartic_pair", {"dim": 2, "well_scale": 3.0},
                             lambda: quartic_pair_formula(2, 3.0)),
    "pair_distance": ("pair_distance", {}, pair_distance_formula),
    "pair_distance_d1.7": ("pair_distance", {"distance": 1.7},
                           lambda: pair_distance_formula(1.7)),
}


def multi_indices(m, max_total):
    return [(idx[:m], idx[m:]) for idx in product(range(max_total + 1), repeat=2 * m)
            if sum(idx) <= max_total]


@pytest.mark.parametrize("case", sorted(CASES))
def test_table_is_the_expanded_formula(case):
    name, params, formula = CASES[case]
    lag = build_lagrangian(name, params)
    expr, xs, ys = formula()
    want = dict(sp.Poly(expr, *xs, *ys).terms())
    got = {tuple(row): c for row, c in zip(lag._exponents.tolist(), lag._coefs.tolist())}
    assert sorted(got) == sorted(want)
    for monomial, coef in want.items():
        assert got[monomial] == pytest.approx(float(coef), rel=1e-12)


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_partial_to_order_6_matches_the_formula(case):
    name, params, formula = CASES[case]
    lag = build_lagrangian(name, params)
    expr, xs, ys = formula()
    rng = np.random.default_rng(sum(map(ord, case)))
    for _ in range(2):
        x, y = rng.uniform(-1.5, 1.5, lag.dim), rng.uniform(-1.5, 1.5, lag.dim)
        point = dict(zip(xs + ys, [*x, *y]))
        for alpha, beta in multi_indices(lag.dim, 6):
            want = float(sp.diff(expr, *zip(xs + ys, alpha + beta)).subs(point))
            got = lag.partial(x, y, alpha, beta)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (alpha, beta)


def lambdified_series(expr, xs, ys, alpha, beta, X, Y):
    """The evaluation the tables replaced: the lambdified partial of the
    factored formula, run on truncated series."""
    fn = sp.lambdify(xs + ys, sp.diff(expr, *zip(xs + ys, alpha + beta)), "numpy")
    m = len(xs)
    out = fn(*(TruncatedSeries(X[:, None, k]) for k in range(m)),
             *(TruncatedSeries(Y[None, :, k]) for k in range(m)))
    shape = (len(X), len(Y), X.shape[-1])
    if isinstance(out, TruncatedSeries):
        return np.broadcast_to(out.coef, shape)
    return np.full(shape, 0.0) + np.eye(1, shape[-1])[0] * float(out)


@pytest.mark.parametrize("name, params, formula", [
    ("example52_regularized", {}, lambda: example52_formula(True)),
    ("quartic_pair", {"dim": 3}, lambda: quartic_pair_formula(3)),
], ids=["example52_regularized", "quartic_pair_dim3"])
def test_pair_series_matches_lambdified_series(name, params, formula):
    lag = build_lagrangian(name, params)
    expr, xs, ys = formula()
    rng = np.random.default_rng(5)
    m = lag.dim
    for K in (1, 2, 4, 6):
        X = rng.uniform(-1.0, 1.0, (3, m, K))
        Y = rng.uniform(-1.0, 1.0, (2, m, K))
        for alpha, beta in multi_indices(m, 2):
            got = pair_series(lag, X, Y, alpha, beta).coef
            want = lambdified_series(expr, xs, ys, alpha, beta, X, Y)
            assert got.shape == want.shape == (3, 2, K)
            scale = max(np.max(np.abs(want)), 1e-300)
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, (K, alpha, beta)


def test_cli_runs_polynomial_scenarios_without_sympy(tmp_path):
    code = ("import sys; from cvpert.cli import run_config\n"
            "for name in ('quartic-pair-expansion', 'example52-fragmentation'):\n"
            "    report, code = run_config({'schema_version': 1, 'scenario': name}, seed=101,\n"
            f"                              out={str(tmp_path)!r} + '/' + name)\n"
            "    assert code == 0, report\n"
            "print([m for m in ('sympy', 'mpmath') if m in sys.modules])")
    src = str(Path(cvpert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name, params", [("example52", {}), ("example52_regularized", {}),
                                          ("quartic_pair", {"dim": 2}), ("pair_distance", {})])
def test_builtin_partials_compile_nothing(name, params, compiles):
    lag = build_lagrangian(name, params)
    m = lag.dim
    x, y = np.linspace(0.7, -0.3, m), np.linspace(-0.4, 0.9, m)
    series = np.stack([np.stack([x, y]), np.full((2, m), 0.5)], axis=-1)
    lag(x, y)
    for alpha, beta in multi_indices(m, 4):
        lag.partial(x, y, alpha, beta)
        pair_table(lag, np.stack([x, y]), np.stack([y, x]), alpha, beta)
        pair_series(lag, series, series, alpha, beta)
    assert compiles == []


def test_formula_subtracted_from_a_number_expands_to_its_polynomial():
    # the number on the left of "-" makes the expansion's reflected subtraction run
    lag = PolynomialLagrangian.from_formula("bump", 1, lambda x0, y0: 1 - (x0 - y0) ** 2)
    x0, y0 = sp.symbols("x0 y0", real=True)
    want = {row: float(c) for row, c in sp.Poly(1 - (x0 - y0) ** 2, x0, y0).terms()}
    got = {tuple(row): c for row, c in zip(lag._exponents.tolist(), lag._coefs.tolist())}
    assert got == want


def unique_reference(exponents, coefs):
    """The table combined by ``np.unique`` over rows and ``np.add.at``."""
    rows, inverse = np.unique(np.asarray(exponents, dtype=int), axis=0, return_inverse=True)
    sums = np.zeros(len(rows))
    np.add.at(sums, inverse.reshape(-1), np.asarray(coefs, dtype=float))
    keep = sums != 0.0
    return rows[keep], sums[keep]


@pytest.mark.parametrize("case", sorted(CASES) + ["quartic_pair_dim5"])
def test_builtin_table_sums_like_np_unique(case):
    from cvpert.lagrangian import _Expansion

    name, params, _ = CASES.get(case, ("quartic_pair", {"dim": 5}, None))
    lag = build_lagrangian(name, params)
    raw = lag._value_fn(*_Expansion.variables(2 * lag.dim))
    assert len(raw.coefs) > len(lag._coefs)  # equal monomials were summed
    rows, sums = unique_reference(raw.exponents, raw.coefs)
    assert np.array_equal(lag._exponents, rows) and lag._exponents.dtype == rows.dtype
    assert np.array_equal(lag._coefs, sums)


def test_table_of_cancelling_sympy_terms_sums_like_np_unique():
    from cvpert.lagrangian import _combined

    x0, x1, y0, y1 = sp.symbols("x0 x1 y0 y1", real=True)
    first = sp.Poly((x0 - y0) ** 3 + sp.Rational(1, 10) * x1 * y1, x0, x1, y0, y1).terms()
    second = sp.Poly(-(x0 - y0) ** 3 + sp.Rational(2, 10) * x1 * y1 - x0 ** 2,
                     x0, x1, y0, y1).terms()
    third = sp.Poly(sp.Rational(3, 10) * x1 * y1 + x0 ** 2, x0, x1, y0, y1).terms()
    terms = first + second + third  # x1 y1 sums 0.1 + 0.2 + 0.3 in input order; the rest cancel
    exponents = np.array([e for e, _ in terms], dtype=int)
    coefs = [float(c) for _, c in terms]
    rows, sums = _combined(exponents, coefs)
    want_rows, want_sums = unique_reference(exponents, coefs)
    assert np.array_equal(rows, want_rows) and np.array_equal(sums, want_sums)
    assert rows.tolist() == [[0, 1, 0, 1]] and sums.tolist() == [0.1 + 0.2 + 0.3]
    empty_rows, empty_sums = _combined(exponents[:0], [])
    assert empty_rows.shape == (0, 4) and empty_sums.shape == (0,)
