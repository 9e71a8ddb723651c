"""Every builtin scenario through run_config, judged by the benchmark's own
checks (perfbench/workloads.py, loaded by path)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from cvpert import cli, expansion, lagrangian, scenarios

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


def test_benchmark_runs_every_builtin_scenario():
    assert list(WORKLOADS.SCENARIOS) == [name for name, _ in scenarios.list_scenarios()]


@pytest.mark.parametrize("name", WORKLOADS.SCENARIOS)
def test_builtin_scenario_passes_benchmark_check(name, tmp_path):
    report, code = cli.run_config({"schema_version": 1, "scenario": name}, seed=101,
                                  out=str(tmp_path))
    problems, _margins = WORKLOADS.check_scenario(name, report)
    assert problems == []
    assert code == 0


@pytest.mark.parametrize("name", WORKLOADS.SCENARIOS)
def test_builtin_scenario_rerun_compiles_nothing(name, tmp_path, compiles):
    # a second job in one process reuses every compiled partial of the first
    config = {"schema_version": 1, "scenario": name}
    cli.run_config(config, seed=101, out=str(tmp_path / "first"))
    compiles.clear()
    cli.run_config(config, seed=101, out=str(tmp_path / "second"))
    assert compiles == []
    first, second = (json.loads((tmp_path / run / "report.json").read_text())
                     for run in ("first", "second"))
    assert second["stages"] == first["stages"]


@pytest.mark.parametrize("seed", [0, 101])
@pytest.mark.parametrize("L", [2, 3])
def test_mixing_gap_to_infimum_is_nonnegative(L, seed, tmp_path):
    report, code = cli.run_config({"schema_version": 1, "scenario": f"mixing-L{L}"},
                                  seed=seed, out=str(tmp_path))
    assert code == 0
    data = report["stages"][0]["data"]
    assert 0.0 <= data["gap_to_infimum"] <= 1e-12
    assert 0.0 <= data["unitarity_defect"] <= 1e-12


@pytest.mark.parametrize("name", ["example52-expansion", "quartic-pair-expansion"])
def test_expansion_scenario_expands_its_grid_once(name, tmp_path, monkeypatch):
    # orders [1, 2] on a grid of 5 lambdas: one order-2 expansion of the 5 starts
    calls = []
    inner = expansion.expand_inhomogeneous

    def spy(*args, **kwargs):
        calls.append((args[0].points.shape[0], args[3]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(expansion, "expand_inhomogeneous", spy)
    _report, code = cli.run_config({"schema_version": 1, "scenario": name}, seed=101,
                                   out=str(tmp_path))
    assert code == 0
    assert calls == [(5, 2)]


def test_cfs_scalar_residual_reads_no_gradient(tmp_path, monkeypatch):
    # the scalar test jet has no vector part, so no partial of order >= 1 is read
    orders = []
    inner = lagrangian.NumericLagrangian.partial

    def spy(self, x, y, alpha, beta):
        orders.append(sum(alpha) + sum(beta))
        return inner(self, x, y, alpha, beta)

    monkeypatch.setattr(lagrangian.NumericLagrangian, "partial", spy)
    _report, code = cli.run_config({"schema_version": 1, "scenario": "cfs-two-point"},
                                   seed=101, out=str(tmp_path))
    assert code == 0
    assert [k for k in orders if k >= 1] == []
