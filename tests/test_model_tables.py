"""The built-in polynomial models share one monomial table per process and
parameter set: each ``build_lagrangian`` call returns a new model over the
same read-only arrays, with its own partial cache and settings."""

import numpy as np
import pytest

from cvpert import build_lagrangian, cli, lagrangian
from cvpert.errors import ConfigError

TABLE = ("_exponents", "_coefs", "_falling", "basis", "_place", "_codes")


def test_equal_parameters_share_one_table():
    first = build_lagrangian("quartic_pair", {"dim": 5})
    second = build_lagrangian("quartic_pair", {"dim": 5, "well_scale": 4.0})
    assert first is not second
    for name in TABLE:
        assert getattr(first, name) is getattr(second, name)
    assert first._value_fn is second._value_fn


def test_each_build_keeps_its_own_cache_and_order_cap():
    first = build_lagrangian("example52_regularized")
    first.partial(np.array([0.3, 0.1]), np.array([-0.2, 0.5]), (1, 0), (0, 1))
    first.max_order = 3
    second = build_lagrangian("example52_regularized")
    assert list(first._cache) == [((1, 0), (0, 1))]
    assert second._cache == {} and second._cache is not first._cache
    assert second.max_order == 8


def test_each_build_writes_its_own_symbolic_form():
    first, second = build_lagrangian("example52"), build_lagrangian("example52")
    assert first.expr == second.expr
    assert first._symbolic is not second._symbolic


@pytest.mark.parametrize("name", TABLE)
def test_the_shared_arrays_refuse_an_in_place_write(name):
    table = getattr(build_lagrangian("pair_distance", {"distance": 2.0}), name)
    with pytest.raises(ValueError, match="read-only"):
        table[...] = 0


@pytest.mark.parametrize("params, other", [
    ({"dim": 1}, {"dim": 5}),
    ({"well_scale": 4}, {"well_scale": 3}),
], ids=["dim", "well_scale"])
def test_other_parameters_get_another_table(params, other):
    first = build_lagrangian("quartic_pair", params)
    second = build_lagrangian("quartic_pair", other)
    assert first._exponents is not second._exponents
    assert not (np.array_equal(first._exponents, second._exponents)
                and np.array_equal(first._coefs, second._coefs))


def test_a_parameter_sweep_keeps_the_cache_bounded():
    for s in np.linspace(1.0, 2.0, 40):
        build_lagrangian("quartic_pair", {"well_scale": float(s)})
    info = lagrangian._prototype.cache_info()
    assert info.currsize <= info.maxsize < 40


@pytest.mark.parametrize("name, params", [
    ("pair_distance", {"distance": 10 ** 5000}),
    ("quartic_pair", {"dim": [1]}),
    ("quartic_pair", {"dim": 5.0}),
], ids=["5000-digit-distance", "list-dim", "float-dim"])
def test_invalid_parameters_still_raise_config_errors(name, params):
    with pytest.raises(ConfigError):
        build_lagrangian(name, params)


def test_runs_in_one_process_build_the_table_once(tmp_path, monkeypatch):
    lagrangian._prototype.cache_clear()
    calls = []
    inner = lagrangian.lower_set
    monkeypatch.setattr(lagrangian, "lower_set", lambda parts: calls.append(1) or inner(parts))
    for run in ("first", "second"):
        _, code = cli.run_config({"schema_version": 1, "scenario": "quartic-pair-expansion"},
                                 seed=101, out=str(tmp_path / run))
        assert code == 0
    assert len(calls) == 1


def test_a_charted_model_is_never_cached(tmp_path):
    before = lagrangian._prototype.cache_info()
    _, code = cli.run_config({"schema_version": 1, "scenario": "cfs-two-point"},
                             out=str(tmp_path))
    assert code == 0
    after = lagrangian._prototype.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
