"""Read plans: a polynomial table's partial terms and term-count groups.

A model's ``_plans``, made with its monomial table, keeps the terms
(ix, iy, c) of each partial read in a list of two or more, and the groups by
term count of each such list, so that a later read of the list, by any build
that shares the table, gathers with no index or coefficient array built.
The plans live as long as the table: a built-in's while ``_prototype`` keeps
it, a user model's while the model lives.  A read of one partial keeps
nothing there.  Each build still records the partials it reads in its own
``_cache``.
"""

import gc
import weakref

import numpy as np
import pytest

from cvpert import build_lagrangian, cli, lagrangian
from cvpert.lagrangian import PolynomialLagrangian, pair_series, pair_table, pair_tables
from cvpert.series import basis_values
from tests.test_batched_tables import one_partial_sums, partials_up_to


@pytest.fixture
def terms_calls(monkeypatch):
    """The partial lists of every ``_terms`` call, the built-in tables cleared
    first."""
    lagrangian._prototype.cache_clear()
    calls = []
    inner = PolynomialLagrangian._terms
    monkeypatch.setattr(PolynomialLagrangian, "_terms",
                        lambda lag, partials: calls.append(list(partials)) or inner(lag, partials))
    return calls


def test_a_second_run_builds_no_terms(terms_calls, tmp_path):
    runs = []
    for run in ("first", "second"):
        terms_calls.clear()
        _, code = cli.run_config({"schema_version": 1, "scenario": "example52-expansion"},
                                 seed=101, out=str(tmp_path / run))
        assert code == 0
        runs.append([p for call in terms_calls for p in call])
    first, second = runs
    assert first and second == []
    assert len(first) == len(set(first))


def test_a_read_on_a_plan_builds_no_group(monkeypatch):
    lagrangian._prototype.cache_clear()
    first, second = build_lagrangian("quartic_pair", {"dim": 3}), build_lagrangian(
        "quartic_pair", {"dim": 3})
    points = np.random.default_rng(3).normal(size=(4, 3))
    partials = partials_up_to(3, 2)[1:]
    want = pair_tables(first, points, points, partials)
    groups = []
    inner = lagrangian._groups
    monkeypatch.setattr(lagrangian, "_groups", lambda terms: groups.append(1) or inner(terms))
    monkeypatch.setattr(PolynomialLagrangian, "_terms", None)  # a call would fail
    assert np.array_equal(pair_tables(second, points, points, partials), want)
    assert groups == [] and list(second._cache) == partials


def test_two_builds_share_the_terms_and_keep_their_own_cache():
    first, second = build_lagrangian("example52_regularized"), build_lagrangian(
        "example52_regularized")
    points = np.random.default_rng(4).normal(size=(3, 2))
    partials = partials_up_to(2, 3)[1:]
    for lag in (first, second):
        pair_tables(lag, points, points, partials)
    assert first._cache is not second._cache
    assert list(first._cache) == list(second._cache) == partials
    for p in partials:
        assert all(a is b for a, b in zip(first._cache[p], second._cache[p])), p


def test_a_parameter_sweep_keeps_the_store_bounded():
    # the plans live on the tables, which _prototype keeps for the sets read last
    points = np.array([[0.3], [-0.2]])
    partials = [((1,), (0,)), ((2,), (0,))]
    tables = []
    for s in np.linspace(1.0, 2.0, 40):
        lag = build_lagrangian("quartic_pair", {"well_scale": float(s)})
        pair_tables(lag, points, points, partials)
        assert list(lag._plans[1]) == [tuple(partials)]
        tables.append(weakref.ref(lag._exponents))
    del lag
    gc.collect()
    alive = sum(table() is not None for table in tables)
    assert alive <= lagrangian._prototype.cache_info().maxsize < 40


def test_models_built_and_dropped_read_only_their_own_plans():
    # 40 user tables of one shape, each dropped before the next is built, so
    # a new table may take the memory of a dropped one
    points = np.random.default_rng(6).normal(size=(4, 1))
    partials = partials_up_to(1, 4)[1:]
    for c in np.linspace(-2.0, 2.0, 40):
        lag = PolynomialLagrangian.from_formula(
            "user", 1, lambda x0, y0: c * (x0 - y0) ** 4 + x0 ** 3 * y0 - c ** 2 * x0 * y0)
        V = basis_values(lag.basis, points[..., None])
        got = lag.gathered_sums(partials, V, V)
        want = one_partial_sums(lag)(partials, V, V)
        assert np.array_equal(np.stack(got), want), c
        assert list(lag._plans[1]) == [tuple(partials)]
        del lag


def test_one_partial_reads_keep_no_plan(terms_calls):
    lag = build_lagrangian("quartic_pair")
    x, y = np.array([0.3]), np.array([-0.2])
    for order in range(1, 5):
        lag.partial(x, y, (order,), (0,))
        pair_table(lag, x[None], y[None], (0,), (order,))
    pair_series(lag, np.zeros((2, 1, 3)), np.ones((2, 1, 3)), (1,), (1,))
    assert lag._plans == ({}, {})
    assert len(terms_calls) == len(lag._cache) == 9


def test_a_builtins_plans_survive_other_tables(terms_calls):
    points = np.array([[0.3], [-0.2]])
    partials = [((1,), (0,)), ((2,), (0,))]
    pair_tables(build_lagrangian("quartic_pair"), points, points, partials)
    for c in np.linspace(-2.0, 2.0, 40):
        user = PolynomialLagrangian.from_formula("user", 1, lambda x0, y0: c * (x0 - y0) ** 4)
        pair_tables(user, points, points, partials)
    terms_calls.clear()
    pair_tables(build_lagrangian("quartic_pair"), points, points, partials)
    assert terms_calls == []


def test_a_dropped_user_model_frees_its_table():
    points = np.array([[0.3], [-0.2]])
    lag = PolynomialLagrangian.from_formula("user", 1, lambda x0, y0: (x0 - y0) ** 4 + x0 * y0)
    pair_tables(lag, points, points, [((1,), (0,)), ((0,), (1,))])
    assert lag._plans[1]
    table = weakref.ref(lag._exponents)
    del lag
    gc.collect()
    assert table() is None
