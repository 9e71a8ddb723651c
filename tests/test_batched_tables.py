"""Batched reads of pair tables (``measure.pair_reader(...).tables``).

A polynomial model gathers every partial of one read together, one
``cauchy_matmul`` per term count (``PolynomialLagrangian.gathered_sums``).
The oracles are the one-partial routes: a fresh ``pair_table`` per partial,
and the series support sums contracted one partial at a time.  A model
without a monomial table still reads each partial pair by pair.
"""

import itertools
import math

import numpy as np
import pytest
import sympy as sp

from cvpert import build_lagrangian, cli, lagrangian, linops
from cvpert.lagrangian import NumericLagrangian, PolynomialLagrangian, pair_table
from cvpert.linops import assemble_delta
from cvpert.measure import DiscreteMeasure, SupportStack, pair_reader


def user_polynomial():
    xs = sp.symbols("x0:2", real=True)
    ys = sp.symbols("y0:2", real=True)
    expr = (xs[0] - ys[0]) ** 4 + xs[1] ** 2 * ys[1] ** 2 - 3 * xs[0] * ys[1] + xs[1] ** 3
    return PolynomialLagrangian("user", 2, expr, xs, ys)


MODELS = {
    "example52": lambda: build_lagrangian("example52"),
    "example52_regularized": lambda: build_lagrangian("example52_regularized"),
    "quartic_pair-1d": lambda: build_lagrangian("quartic_pair"),
    "quartic_pair-5d": lambda: build_lagrangian("quartic_pair", {"dim": 5}),
    "pair_distance": lambda: build_lagrangian("pair_distance"),
    "user-sympy": user_polynomial,
}


def partials_up_to(m, order):
    """Every (alpha, beta) of total order <= ``order``, lowest order first."""
    found = [idx for idx in itertools.product(range(order + 1), repeat=2 * m)
             if sum(idx) <= order]
    return [(idx[:m], idx[m:]) for idx in sorted(found, key=sum)]


def wide_support():
    return 2.0 * math.sqrt(2.0) * np.array(list(itertools.product([-1.0, 1.0], repeat=5)))


@pytest.mark.parametrize("support", ["measure", "stack"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_batched_tables_equal_one_partial_tables_bit_for_bit(name, support):
    lag = MODELS[name]()
    m = lag.dim
    rng = np.random.default_rng(5)
    if support == "measure":
        points = rng.normal(size=(6, m))
        tables = DiscreteMeasure(points, rng.uniform(0.5, 1.5, 6)).pair_tables(lag)
    else:
        points = rng.normal(size=(3, 6, m))
        tables = SupportStack(points, rng.uniform(0.5, 1.5, (3, 6))).pair_tables(lag)
    partials = partials_up_to(m, 2 if m > 2 else 3)
    got = tables.tables(partials)
    assert len(got) == len(partials)
    for table, (alpha, beta) in zip(got, partials):
        want = pair_table(MODELS[name](), points, points, alpha, beta)
        assert table.shape == want.shape
        assert np.array_equal(table, want), (alpha, beta)
    # a second read, in another order and with repeats, returns the same tables
    again = tables.tables(partials[::-1] + partials[:2])
    assert all(a is b for a, b in zip(again, got[::-1] + got[:2]))


def test_wide_support_delta_makes_one_product_per_term_count(monkeypatch):
    # the quartic pair separates per coordinate: of the 50 gathered tables of
    # Delta, 30 have no terms, and the other 20 have 3, 5 or 6 terms
    lag = build_lagrangian("quartic_pair", {"dim": 5})
    reads, products = [], []
    whole = lag.gathered_sums

    def counting_sums(partials, VX, VY):
        reads.append(len(partials))
        products.append([])
        return whole(partials, VX, VY)

    matmul = lagrangian.cauchy_matmul
    monkeypatch.setattr(lag, "gathered_sums", counting_sums)
    monkeypatch.setattr(lagrangian, "cauchy_matmul",
                        lambda P, Q: products[-1].append(P.shape[-4:-2]) or matmul(P, Q))
    assemble_delta(DiscreteMeasure(wide_support(), np.full(32, 0.7)), lag, 0.3)
    # ell_field's 20 derivative tables, then the 30 slot blocks not read before
    assert reads == [20, 30]
    for made in products:
        counts = [count for _, count in made]
        assert len(counts) == len(set(counts)) and set(counts) <= {3, 5, 6}
    assert sum(map(len, products)) <= 6
    assert sum(group for made in products for group, _ in made) == 20


def one_partial_sums(lag):
    """``gathered_sums`` of ``lag`` contracted one partial at a time."""
    whole = lag.gathered_sums
    return lambda partials, VX, VY: np.stack([whole([p], VX, VY)[0] for p in partials])


@pytest.mark.parametrize("name", ["example52-expansion", "quartic-pair-expansion"])
def test_taylor_error_dual_on_study_stacks_equals_one_partial_sums(name, tmp_path, monkeypatch):
    calls = []
    inner = linops.taylor_error_dual
    monkeypatch.setattr(linops, "taylor_error_dual",
                        lambda *args: calls.append((args, inner(*args))) or calls[-1][1])
    cli.run_config({"schema_version": 1, "scenario": name}, seed=101, out=str(tmp_path))
    monkeypatch.undo()
    stacked = [(args, got) for args, got in calls if isinstance(args[2], SupportStack)]
    assert stacked
    for args, got in stacked:
        lag = args[3]
        with monkeypatch.context() as patch:
            patch.setattr(lag, "gathered_sums", one_partial_sums(lag))
            want = linops.taylor_error_dual(*args)
        assert np.array_equal(got.scalar, want.scalar)
        assert np.array_equal(got.vector, want.vector)


def test_numeric_model_reads_pair_by_pair():
    quartic = build_lagrangian("quartic_pair")
    lag = NumericLagrangian("numeric-quartic", 1, quartic)
    calls = []
    partial = lag.partial
    lag.partial = lambda *args: calls.append(args[2:]) or partial(*args)
    points = np.array([[0.3], [-0.4], [1.1], [2.0]])
    partials = [((0,), (0,)), ((1,), (0,)), ((0,), (1,)), ((2,), (0,))]
    got = pair_reader(lag, points).tables(partials)
    # no partial call for the values, one per pair for every other table
    assert calls == [p for p in partials[1:] for _ in range(16)]
    for table, (alpha, beta) in zip(got, partials):
        assert np.array_equal(table, pair_table(lag, points, points, alpha, beta))
    stack = np.stack([points, points[::-1]])
    for table, (alpha, beta) in zip(pair_reader(lag, stack).tables(partials), partials):
        assert np.array_equal(table, [pair_table(lag, p, p, alpha, beta) for p in stack])
