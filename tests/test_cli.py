import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cvpert.cli import main, run_config, validate_config
from cvpert.errors import ConfigError
from cvpert.fitting import strict_loglog_slope
from cvpert.scenarios import list_scenarios


def test_schema_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        validate_config({"schema_version": 1, "scenario": "mixing-L2",
                         "bogus": True})
    with pytest.raises(ConfigError):
        validate_config({"schema_version": 2, "scenario": "mixing-L2"})
    validate_config({"schema_version": 1})  # stage-less configs are legal


def test_list_scenarios_sorted():
    names = [name for name, _ in list_scenarios()]
    assert names == sorted(names)
    assert "example52-fragmentation" in names
    assert "mixing-L2" in names
    assert "cfs-two-point" in names


def test_cli_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "example52-fragmentation" in out


def test_run_mixing_l2(tmp_path):
    config = {
        "schema_version": 1,
        "scenario": "mixing-L2",
        "scenario_config": {"restarts": 6},
        "expectations": [
            {"path": "stages.0.data.min_value", "op": "approx", "value": 2.0,
             "tol": 1e-6},
        ],
    }
    report, code = run_config(config, seed=1, out=str(tmp_path))
    assert code == 0
    assert report["passed"] is True
    for f in report["files"]:
        from pathlib import Path

        assert Path(f).exists() and Path(f).stat().st_size > 0


def test_run_empty_stagelist_empty_report(tmp_path):
    report, code = run_config({"schema_version": 1}, out=str(tmp_path))
    assert code == 0
    assert report["stages"] == []
    assert report["passed"] is True


def test_expectation_on_a_missing_path_fails_with_its_error(tmp_path):
    config = {"schema_version": 1, "expectations": [
        {"path": "stages.0.data.slope", "op": "ge", "value": 1.0},
        {"path": "missing", "op": "true"}]}
    report, code = run_config(config, out=str(tmp_path))
    assert code == 1 and report["passed"] is False
    assert report["expectations"] == [
        {"path": "stages.0.data.slope", "ok": False, "error": "list index out of range"},
        {"path": "missing", "ok": False, "error": "'missing'"}]


def test_expectation_on_an_integer_too_large_for_a_float_fails_with_its_error(tmp_path):
    config = {"schema_version": 1, "expectations": [
        {"path": "schema_version", "op": "le", "value": 10 ** 400}]}
    report, code = run_config(config, out=str(tmp_path))
    assert code == 1 and report["passed"] is False
    assert report["expectations"] == [
        {"path": "schema_version", "ok": False, "error": "int too large to convert to float"}]


def test_run_inline_expansion(tmp_path):
    t = 2.0 * math.sqrt(2.0)
    config = {
        "schema_version": 1,
        "measure": {"points": [[t], [-t]], "weights": [1.0, 1.0]},
        "lagrangian": {"name": "quartic_pair"},
        "nu": "calibrate",
        "expansion": {
            "order": 1,
            "deviation": {"c": [0.2, -0.1], "F": [[0.3], [-0.1]]},
            "lambda_grid": [0.02, 0.04, 0.08],
        },
        "expectations": [
            {"path": "stages.1.data.slope", "op": "ge", "value": 1.8},
        ],
    }
    report, code = run_config(config, out=str(tmp_path))
    assert code == 0
    assert report["stages"][0]["data"]["nu"] == pytest.approx(6144.0, rel=1e-12)


def test_run_report_determinism(tmp_path):
    config = {
        "schema_version": 1,
        "scenario": "mixing-L2",
        "scenario_config": {"restarts": 4},
    }
    rep1, _ = run_config(config, seed=7, out=str(tmp_path / "a"))
    rep2, _ = run_config(config, seed=7, out=str(tmp_path / "b"))
    a = json.loads(json.dumps(rep1, default=float))
    b = json.loads(json.dumps(rep2, default=float))
    for rep in (a, b):
        rep.pop("wall_clock_s")
        rep["files"] = [f.split("/")[-1] for f in rep["files"]]
    assert a == b


def test_report_round_trips_under_schema(tmp_path):
    config = {"schema_version": 1, "scenario": "mixing-L2",
              "scenario_config": {"restarts": 2}}
    report, _ = run_config(config, seed=0, out=str(tmp_path))
    blob = (tmp_path / "report.json").read_text()
    parsed = json.loads(blob)
    assert parsed["schema_version"] == 1
    assert parsed["scenario"] == "mixing-L2"
    assert isinstance(parsed["stages"], list)


def test_cli_slope_command(tmp_path, capsys):
    path = tmp_path / "data.csv"
    xs = np.geomspace(0.01, 0.1, 6)
    with open(path, "w") as fh:
        fh.write("lambda,residual\n")
        for x in xs:
            fh.write(f"{x},{x ** 2}\n")
    assert main(["slope", str(path), "--x", "lambda", "--y", "residual"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["slope"] == pytest.approx(2.0, abs=0.01)


def test_cli_slope_constant(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for x in (1.0, 2.0, 3.0, 4.0):
            fh.write(f"{x},5.0\n")
    assert main(["slope", str(path), "--x", "x", "--y", "y"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["slope"] == 0.0


def test_strict_slope_degenerate():
    from cvpert.errors import DegenerateFit

    with pytest.raises(DegenerateFit):
        strict_loglog_slope([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DegenerateFit):
        strict_loglog_slope([1.0, 2.0, 3.0, 4.0], [1.0, -2.0, 3.0, 4.0])


def test_scalar_row_slope_of_ill_posed_ansatz(tmp_path):
    # fit of the closed-form scalar-row error -8 lam^4 (f1 - 1) w^2 (w^2 - 1)
    lam = np.geomspace(0.02, 0.2, 6)
    f1, w = 1.5, 0.6
    err = np.abs(-8 * lam ** 4 * (f1 - 1) * w ** 2 * (w ** 2 - 1))
    slope, r2 = strict_loglog_slope(lam, err)
    assert slope == pytest.approx(4.0, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_console_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "cvpert.cli", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "mixing-L3" in proc.stdout


@pytest.mark.parametrize("points, weights", [([[0.5], [0.5]], [1.0, 1.0]),
                                             ([[0.5], [-0.5]], [1.0, 0.0])])
def test_run_reports_invalid_measure(tmp_path, points, weights):
    # coincident points, then a non-positive weight
    config = {"schema_version": 1, "measure": {"points": points, "weights": weights},
              "lagrangian": {"name": "quartic_pair"}}
    report, code = run_config(config, out=str(tmp_path))
    assert code == 1
    assert report["status"] == "error"
    assert report["stages"][-1]["error"].startswith("InvalidMeasure:")


def test_run_inline_expansion_range_defects(tmp_path):
    t = 2.0 * math.sqrt(2.0)
    config = {
        "schema_version": 1,
        "measure": {"points": [[t + 0.05], [-t + 0.02]], "weights": [1.0, 1.2]},
        "lagrangian": {"name": "quartic_pair"},
        "nu": 6144.0,
        "expansion": {"order": 3},
    }
    rep1, code = run_config(config, seed=3, out=str(tmp_path / "a"))
    rep2, _ = run_config(config, seed=3, out=str(tmp_path / "b"))
    assert code == 0
    data = rep1["stages"][1]["data"]
    assert len(data["range_defects"]) == len(data["jet_norms"]) == 3
    a = json.loads(json.dumps(rep1, default=float))
    b = json.loads(json.dumps(rep2, default=float))
    for rep in (a, b):
        rep.pop("wall_clock_s")
        rep["files"] = [f.split("/")[-1] for f in rep["files"]]
    assert a == b


@pytest.mark.parametrize("rows, column, message", [
    (["1,2", "2,4", "3,6"], "x", "at least 4 rows"),
    ([], "x", "at least 4 rows"),
    (["1,0", "2,0", "3,0", "4,0"], "x", "positive values"),
    (["1,2", "2,4", "3,6", "4,8"], "lam", "no column 'lam'"),
    (["1,2", "2,oops", "3,6", "4,8"], "x", "could not convert"),
    (["1,2", "2,nan", "3,6", "4,8"], "x", "finite"),
    (["1,2", "2,inf", "3,6", "4,8"], "x", "finite"),
    (["1,2", "nan,4", "3,6", "4,8"], "x", "finite"),
    (["1,2", "inf,4", "3,6", "4,8"], "x", "finite"),
], ids=["three-rows", "empty", "zero-column", "unknown-column", "non-numeric", "nan-y", "inf-y",
        "nan-x", "inf-x"])
def test_cli_slope_bad_table_exits_2(tmp_path, capsys, rows, column, message):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["x,y"] + rows) + "\n")
    assert main(["slope", str(path), "--x", column, "--y", "y"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_strict_slope_constant_column_after_checks():
    from cvpert.errors import DegenerateFit

    assert strict_loglog_slope([1.0, 2.0, 3.0, 4.0], [5.0] * 4) == (0.0, 1.0)
    with pytest.raises(DegenerateFit):
        strict_loglog_slope([1.0, 2.0, 3.0], [5.0] * 3)
    with pytest.raises(DegenerateFit):
        strict_loglog_slope([1.0, 2.0, 3.0, 4.0], [0.0] * 4)


@pytest.mark.parametrize("model, error", [
    ({"name": "nosuch"}, "UnknownModel: unknown Lagrangian model 'nosuch'"),
    ({"name": "quartic_pair", "params": {"dim": 0}}, "ConfigError: dim must be an integer >= 1"),
    ({"name": "quartic_pair", "params": {"dim": 1.5}}, "ConfigError: dim must be an integer >= 1"),
    ({"name": "quartic_pair", "params": {"dim": 2.0}}, "ConfigError: dim must be an integer >= 1"),
    ({"name": "quartic_pair", "params": {"well_scale": "abc"}},
     "ConfigError: well_scale must be a finite number"),
    ({"name": "pair_distance", "params": {"distance": float("inf")}},
     "ConfigError: distance must be a finite number"),
    ({"name": "pair_distance", "params": {"distance": 10 ** 400}},  # no float holds it
     "ConfigError: distance must be a finite number"),
    ({"name": "cfs", "params": {"hilbert_dim": "abc"}},
     "ConfigError: hilbert_dim must be an integer >= 1"),
    ({"name": "cfs", "params": {"max_order": 1.7}}, "ConfigError: max_order must be an integer >= 1"),
    ({"name": "cfs", "params": {"kappa": "abc"}}, "ConfigError: kappa must be a finite number"),
    ({"name": "quartic_pair", "params": {"well_scal": 3}},
     "ConfigError: quartic_pair reads no parameters ['well_scal']"),
], ids=["unknown-name", "dim-0", "dim-1.5", "dim-2.0", "well-scale-text", "distance-inf",
        "distance-huge-int", "hilbert-dim-text", "max-order-1.7", "kappa-text",
        "unknown-param"])
def test_cli_run_reports_bad_model_config(tmp_path, capsys, model, error):
    config = {"schema_version": 1, "measure": {"points": [[1.0], [-1.0]], "weights": [1.0, 1.0]},
              "lagrangian": model}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "error"
    assert report["stages"][-1]["error"].startswith(error)


def test_unknown_model_is_a_config_error_and_a_key_error():
    from cvpert.lagrangian import build_lagrangian

    with pytest.raises(ConfigError) as info:
        build_lagrangian("nosuch")
    assert isinstance(info.value, KeyError)
    assert str(info.value).startswith("unknown Lagrangian model 'nosuch'")


def test_run_reports_dimension_mismatch(tmp_path):
    config = {"schema_version": 1, "measure": {"points": [[1.0], [-1.0]], "weights": [1.0, 1.0]},
              "lagrangian": {"name": "quartic_pair", "params": {"dim": 2}}}
    report, code = run_config(config, out=str(tmp_path))
    assert code == 1
    assert report["status"] == "error"
    assert report["stages"][-1]["error"] == ("ShapeError: measure points have dimension 1, "
                                             "Lagrangian 'quartic_pair' has dimension 2")


@pytest.mark.parametrize("scenario", ["example52-expansion", "quartic-pair-expansion"])
@pytest.mark.parametrize("orders", [[1.5], ["2"], [-1], [True], [1, 2.0], 2])
def test_run_reports_bad_scenario_orders(tmp_path, scenario, orders):
    config = {"schema_version": 1, "scenario": scenario,
              "scenario_config": {"orders": orders}}
    report, code = run_config(config, out=str(tmp_path))
    assert code == 1
    assert report["status"] == "error"
    assert report["stages"][-1]["error"].startswith(f"ConfigError: {scenario}: orders must be")


@pytest.mark.parametrize("scenario", ["example52-expansion", "quartic-pair-expansion"])
@pytest.mark.parametrize("grid", [[0.0, 0.05, 0.1], [-0.05, 0.05], [], [0.05],
                                  [0.05, float("inf")], [0.05, float("nan")], [True, 0.1],
                                  ["0.1", 0.2], 0.1],
                         ids=["zero", "negative", "empty", "one-point", "inf", "nan", "bool",
                              "text", "scalar"])
def test_run_reports_bad_scenario_lambda_grid(tmp_path, scenario, grid):
    config = {"schema_version": 1, "scenario": scenario,
              "scenario_config": {"lambda_grid": grid}}
    report, code = run_config(config, out=str(tmp_path))
    assert code == 1
    assert report["status"] == "error"
    assert report["stages"][-1]["error"].startswith(f"ConfigError: {scenario}: lambda_grid must be")


@pytest.mark.parametrize("scenario", ["example52-expansion", "quartic-pair-expansion"])
def test_run_reports_repeated_lambda_grid(tmp_path, scenario):
    # three equal lambdas fix no log-log slope
    config = {"schema_version": 1, "scenario": scenario,
              "scenario_config": {"lambda_grid": [0.05, 0.05, 0.05]}}
    report, code = run_config(config, out=str(tmp_path))
    assert code == 1
    assert report["status"] == "error"
    assert report["stages"][-1]["error"].startswith(
        "DegenerateFit: log-log fit needs two distinct x values")


def _inline_expansion(grid):
    t = 2.0 * math.sqrt(2.0)
    return {"schema_version": 1,
            "measure": {"points": [[t], [-t]], "weights": [1.0, 1.0]},
            "lagrangian": {"name": "quartic_pair"},
            "expansion": {"order": 1, "deviation": {"c": [0.2, -0.1], "F": [[0.3], [-0.1]]},
                          "lambda_grid": grid}}


@pytest.mark.parametrize("grid", [[0.05, float("inf")], [float("nan"), 0.05], [0.0, 0.05],
                                  [-0.05, 0.05], [], [0.05]],
                         ids=["inf", "nan", "zero", "negative", "empty", "one-point"])
def test_inline_run_reports_non_finite_lambda_grid(tmp_path, grid):
    report, code = run_config(_inline_expansion(grid), out=str(tmp_path))
    assert code == 1
    assert report["stages"][-1]["error"].startswith(
        "ConfigError: expansion: lambda_grid must be at least 2 finite numbers > 0")


@pytest.mark.parametrize("xs", [[0.0, 0.1, 0.2], [-0.1, 0.1, 0.2], [np.nan, 0.1, 0.2],
                                [np.inf, 0.1, 0.2]], ids=["zero", "negative", "nan", "inf"])
def test_loglog_slope_rejects_non_positive_x(xs):
    from cvpert.errors import DegenerateFit
    from cvpert.fitting import loglog_slope

    with pytest.raises(DegenerateFit, match="finite positive x"):
        loglog_slope(xs, [1.0, 2.0, 4.0])


def test_cli_bad_lambda_grid_exits_1_without_traceback(tmp_path):
    # a zero entry used to reach the log-log fit: log 0 made the least-squares
    # SVD fail, which surfaced as a LinAlgError traceback (and LAPACK's DLASCL
    # lines, which only a separate process shows on stderr)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema_version": 1, "scenario": "quartic-pair-expansion",
                                "scenario_config": {"lambda_grid": [0.0, 0.05, 0.1]}}))
    proc = subprocess.run([sys.executable, "-m", "cvpert.cli", "run", str(path),
                           "--out", str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "DLASCL" not in proc.stderr
    assert json.loads(proc.stdout)["passed"] is False


_T = 2.0 * math.sqrt(2.0)


@pytest.mark.parametrize("config, error", [
    ({"scenario": "example52-fragmentation", "scenario_config": {"lambda": "0.1"}},
     "ConfigError: example52-fragmentation: lambda must be a number"),
    ({"scenario": "example52-fragmentation", "scenario_config": {"lambda": True}},
     "ConfigError: example52-fragmentation: lambda must be a number"),
    ({"scenario": "cfs-two-point", "scenario_config": {"b": "x"}},
     "ConfigError: cfs-two-point: b must be a number"),
    ({"scenario": "cfs-two-point", "scenario_config": {"kappa": [0.1]}},
     "ConfigError: cfs-two-point: kappa must be a number"),
    ({"scenario": "cfs-two-point", "scenario_config": {"trace_constant": None}},
     "ConfigError: cfs-two-point: trace_constant must be a number"),
    ({"measure": {"points": [[_T], [-_T]], "weights": [1.0, 1.0]},
      "lagrangian": {"name": "quartic_pair"},
      "expansion": {"order": 1, "deviation": {"c": ["a", 0.1], "F": [[0.3], [-0.1]]}}},
     "ConfigError: deviation.c must be a regular array of numbers"),
    ({"measure": {"points": [[_T], [-_T]], "weights": [1.0, 1.0]},
      "lagrangian": {"name": "quartic_pair"},
      "expansion": {"order": 1, "deviation": {"c": [0.2, 0.1], "F": [[0.3], [-0.1, 0.2]]}}},
     "ConfigError: deviation.F must be a regular array of numbers"),
    ({"measure": {"points": [[1.0, 0.0], [-1.0]], "weights": [1.0, 1.0]},
      "lagrangian": {"name": "quartic_pair"}},
     "ConfigError: measure.points must be a regular array of numbers"),
    ({"scenario": "mixing-L2", "scenario_config": {"restarts": "5"}},
     "ShapeError: restarts must be an integer >= 1"),
    ({"scenario": "mixing-L2", "scenario_config": {"restarts": 2.7}},
     "ShapeError: restarts must be an integer >= 1"),
    ({"scenario": "cfs-two-point", "scenario_config": {"trace_constant": float("inf")}},
     "ConfigError: cfs-two-point: trace_constant must be a finite number"),
    ({"scenario": "cfs-two-point", "scenario_config": {"b": float("nan")}},
     "ConfigError: cfs-two-point: b must be a finite number"),
    ({"scenario": "cfs-two-point", "scenario_config": {"b": float("inf")}},
     "ConfigError: cfs-two-point: b must be a finite number"),
    ({"scenario": "cfs-two-point", "scenario_config": {"trace_constant": 1e308}},
     "ShapeError: signature (1, 0) differs from (1, 1)"),
    ({"scenario": "cfs-two-point", "scenario_config": {"trace_constant": 1e100}},
     "ShapeError: signature (1, 0) differs from (1, 1)"),
    ({"scenario": "cfs-two-point", "scenario_config": {"trace_constant": 1e20}},
     "ShapeError: signature (1, 0) differs from (1, 1)"),
    ({"scenario": "cfs-two-point", "scenario_config": {"b": 0.0}},
     "ShapeError: signature (1, 0) differs from (1, 1)"),
    ({"measure": {"points": [[_T], [-_T]], "weights": [1.0, 1.0]},
      "lagrangian": {"name": "quartic_pair"}, "nu": float("inf")},
     "ConfigError: setup: nu must be a finite number"),
    # JSON integer literals that no float holds
    ({"scenario": "cfs-two-point", "scenario_config": {"b": 10 ** 400}},
     "ConfigError: cfs-two-point: b must be finite"),
    ({"measure": {"points": [[10 ** 400], [-_T]], "weights": [1.0, 1.0]},
      "lagrangian": {"name": "quartic_pair"}}, "ConfigError: measure.points must be finite"),
    ({"measure": {"points": [[_T], [-_T]], "weights": [1.0, 1.0]},
      "lagrangian": {"name": "quartic_pair"},
      "expansion": {"order": 1, "lambda_grid": [10 ** 400, 0.1]}},
     "ConfigError: expansion: lambda_grid must be finite"),
], ids=["lambda-text", "lambda-bool", "b-text", "kappa-list", "trace-constant-null",
        "deviation-c-text", "deviation-F-ragged", "points-ragged", "restarts-text",
        "restarts-float", "trace-constant-inf", "b-nan", "b-inf", "trace-constant-1e308",
        "trace-constant-1e100", "trace-constant-1e20", "b-zero", "nu-inf", "b-huge-int",
        "point-huge-int", "lambda-grid-huge-int"])
def test_run_reports_non_numeric_config_values(tmp_path, config, error):
    report, code = run_config({"schema_version": 1, **config}, out=str(tmp_path))
    assert code == 1
    assert report["status"] == "error"
    assert report["stages"][-1]["error"].startswith(error)


@pytest.mark.parametrize("scenario_config", [{"trace_constant": 10.0}, {"trace_constant": 1e4},
                                             {"b": 1e-5}],
                         ids=["trace-constant-10", "trace-constant-1e4", "b-1e-5"])
def test_cfs_two_point_chart_inverts_far_from_its_centre(tmp_path, scenario_config):
    # a whole Gauss-Newton step from the chart's centre overshoots these points
    report, _code = run_config({"schema_version": 1, "scenario": "cfs-two-point",
                                "scenario_config": scenario_config}, out=str(tmp_path))
    assert report["status"] == "ok"
    assert report["stages"][-1]["status"] == "ok"


@pytest.mark.parametrize("config", [[], {}, {"schema_version": True}, {"schema_version": "1"},
                                    {"schema_version": 1, "seed": "abc"},
                                    {"schema_version": 1, "seed": 2.7},
                                    {"schema_version": 1, "seed": True},
                                    {"schema_version": 1, "seed": -1},
                                    {"schema_version": 1, "out": 5},
                                    {"schema_version": 1, "strict": "yes"}],
                         ids=["list", "no-version", "version-bool", "version-text", "seed-text",
                              "seed-float", "seed-bool", "seed-negative", "out-number",
                              "strict-text"])
def test_bad_top_level_exits_2_without_report(tmp_path, capsys, config):
    with pytest.raises(ConfigError):
        validate_config(config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out" / "report.json").exists()


_MEASURE = {"points": [[_T], [-_T]], "weights": [1.0, 1.0]}
_QUARTIC = {"name": "quartic_pair"}
_DEVIATION = {"c": [0.2, -0.1], "F": [[0.3], [-0.1]]}


def _setup(**keys):
    return {"measure": _MEASURE, "lagrangian": _QUARTIC, **keys}


@pytest.mark.parametrize("config, error", [
    ({"scenario": 5}, "ConfigError: unknown scenario 5"),
    ({"scenario": "mixing-L2", "scenario_config": [["restarts", 2]]},
     "ConfigError: scenario_config must be an object"),
    ({"scenario": "mixing-L2", "nu": "abc"},
     "ConfigError: a scenario config takes no inline keys, got ['nu']"),
    ({"scenario_config": {"restarts": 2}}, "ConfigError: scenario_config needs a scenario"),
    ({"nu": "abc", "test_space": "full"},
     "ConfigError: ['nu', 'test_space'] need an inline measure"),
    ({"measure": [[_T], [-_T]], "lagrangian": _QUARTIC}, "ConfigError: measure must be an object"),
    ({"measure": {**_MEASURE, "masses": [1.0, 1.0]}, "lagrangian": _QUARTIC},
     "ConfigError: measure: missing keys [], unknown keys ['masses']"),
    ({"measure": {"points": [[_T], [-_T]]}, "lagrangian": _QUARTIC},
     "ConfigError: measure: missing keys ['weights'], unknown keys []"),
    ({"measure": {"points": [_T, -_T], "weights": [1.0, 1.0]}, "lagrangian": _QUARTIC},
     "ConfigError: measure.points must be a regular array of numbers (2-D)"),
    ({"measure": {"points": [[_T], [-_T]], "weights": ["1", 1.0]}, "lagrangian": _QUARTIC},
     "ConfigError: measure.weights must be a regular array of numbers (1-D)"),
    ({"measure": _MEASURE, "lagrangian": "quartic_pair"},
     "ConfigError: lagrangian must be an object"),
    ({"measure": _MEASURE, "lagrangian": {"name": "quartic_pair", "dim": 1}},
     "ConfigError: lagrangian: missing keys [], unknown keys ['dim']"),
    ({"measure": _MEASURE, "lagrangian": {"params": {}}},
     "ConfigError: lagrangian: missing keys ['name'], unknown keys []"),
    ({"measure": _MEASURE, "lagrangian": {"name": ["quartic_pair"]}},
     "UnknownModel: unknown Lagrangian model ['quartic_pair']"),
    ({"measure": _MEASURE, "lagrangian": {"name": "quartic_pair", "params": [["dim", 1]]}},
     "ConfigError: lagrangian.params must be an object"),
    (_setup(nu="abc"), "ConfigError: setup: nu must be a number"),
    (_setup(nu=True), "ConfigError: setup: nu must be a number"),
    (_setup(test_space="kernel"), "ConfigError: test_space must be 'full'"),
    (_setup(expansion="order 1"), "ConfigError: expansion must be an object"),
    (_setup(expansion={"order": 1, "orders": [1]}),
     "ConfigError: expansion: missing keys [], unknown keys ['orders']"),
    (_setup(expansion={"order": -1}), "ConfigError: expansion: order must be an integer >= 0"),
    (_setup(expansion={"order": 1.5}), "ConfigError: expansion: order must be an integer >= 0"),
    (_setup(expansion={"order": True}), "ConfigError: expansion: order must be an integer >= 0"),
    (_setup(expansion={"order": 1, "convention": "Breve"}),
     "ConfigError: expansion: convention must be 'standard' or 'breve'"),
    (_setup(expansion={"order": 1, "lambda_grid": [0.05]}),
     "ConfigError: expansion: lambda_grid must be at least 2 finite numbers > 0"),
    (_setup(expansion={"order": 1, "lambda_grid": ["0.1", 0.2], "deviation": _DEVIATION}),
     "ConfigError: expansion: lambda_grid must be a regular array of numbers (1-D)"),
    (_setup(expansion={"order": 1, "deviation": [0.2, -0.1]}),
     "ConfigError: deviation must be an object"),
    (_setup(expansion={"order": 1, "deviation": {**_DEVIATION, "u": [[0.3], [-0.1]]}}),
     "ConfigError: deviation: missing keys [], unknown keys ['u']"),
    (_setup(expansion={"order": 1, "deviation": {"c": 0.2}}),
     "ConfigError: deviation.c must be a regular array of numbers, got 0.2"),
    (_setup(expansion={"order": 1, "deviation": {"F": 0.3}}),
     "ConfigError: deviation.F must be a regular array of numbers, got 0.3"),
    ({"mixing": 2}, "ConfigError: mixing must be an object"),
    ({"mixing": {"L": 2, "seed": 1}},
     "ConfigError: mixing: missing keys [], unknown keys ['seed']"),
    ({"mixing": {"L": 1}}, "ConfigError: mixing: L must be an integer >= 2"),
    ({"mixing": {"L": 2.0}}, "ConfigError: mixing: L must be an integer >= 2"),
    ({"mixing": {"L": "2"}}, "ConfigError: mixing: L must be an integer >= 2"),
    ({"mixing": {"L": 2, "restarts": 0}}, "ShapeError: restarts must be an integer >= 1"),
    ({"mixing": {"L": 2, "restarts": "5"}}, "ShapeError: restarts must be an integer >= 1"),
    ({"expectations": {"path": "status", "op": "true"}},
     "ConfigError: expectations must be a list"),
    ({"expectations": ["status"]}, "ConfigError: expectations.0 must be an object"),
    ({"expectations": [{"path": "status", "op": "true", "tolerance": 1}]},
     "ConfigError: expectations.0: missing keys [], unknown keys ['tolerance']"),
    ({"expectations": [{"path": "status"}]},
     "ConfigError: expectations.0: missing keys ['op'], unknown keys []"),
    ({"expectations": [{"path": ["status"], "op": "true"}]},
     "ConfigError: expectations.0: path must be a string and op one of"),
    ({"expectations": [{"path": "status", "op": "ne", "value": "error"}]},
     "ConfigError: expectations.0: path must be a string and op one of"),
    ({"expectations": [{"path": "status", "op": "approx", "value": 1, "tol": "1e-6"}]},
     "ConfigError: expectations.0: tol must be a number"),
], ids=lambda v: json.dumps(v)[:60] if isinstance(v, dict) else None)
def test_stage_value_the_old_schema_rejected_ends_in_error_report(tmp_path, config, error):
    # each config broke a rule of the removed JSON schema below the top level,
    # which made run_config raise; the stage that reads the value now reports it
    report, code = run_config({"schema_version": 1, **config}, out=str(tmp_path))
    assert code == 1
    assert report["status"] == "error" and report["passed"] is False
    assert report["stages"][-1]["error"].startswith(error)
    assert json.loads((tmp_path / "report.json").read_text())["status"] == "error"


@pytest.mark.parametrize("scenario, scenario_config", [
    ("mixing-L2", {"restart": 5}), ("example52-expansion", {"order": [3]}),
    ("cfs-two-point", {"kapa": 0.5}), ("example52-fragmentation", {"lam": 0.5}),
], ids=["mixing", "expansion", "cfs", "fragmentation"])
def test_scenario_rejects_an_unknown_config_key(tmp_path, scenario, scenario_config):
    # a typo must not run the defaults and pass
    report, code = run_config({"schema_version": 1, "scenario": scenario,
                               "scenario_config": scenario_config}, out=str(tmp_path))
    assert code == 1
    assert report["status"] == "error" and report["passed"] is False
    assert report["stages"][-1]["error"] == (
        f"ConfigError: {scenario}: missing keys [], unknown keys {list(scenario_config)}")


@pytest.mark.parametrize("seed", ["abc", 2.7, True, -1])
def test_run_reports_bad_mixing_seed(tmp_path, seed):
    config = {"schema_version": 1, "scenario": "mixing-L2",
              "scenario_config": {"seed": seed, "restarts": 2}}
    report, code = run_config(config, out=str(tmp_path))
    assert code == 1
    assert report["stages"][-1]["error"] == (
        f"ConfigError: mixing-L2: seed must be an integer >= 0, got {seed!r}")


def test_inline_breve_expansion_matches_the_library(tmp_path):
    from cvpert import DiscreteMeasure, Jet, build_lagrangian
    from cvpert.expansion import order_scaling_slopes

    grid = [0.02, 0.04, 0.08]
    tables = {}
    for convention in ("standard", "breve"):
        config = _inline_expansion(grid)
        config["expansion"].update(order=2, convention=convention)
        report, code = run_config(config, out=str(tmp_path / convention))
        assert code == 0
        nu = report["stages"][0]["data"]["nu"]
        with open(tmp_path / convention / "expansion_residuals.csv") as fh:
            tables[convention] = [(float(lam), float(res), int(p))
                                  for lam, res, p in list(csv.reader(fh))[1:]]
        slope, rows = order_scaling_slopes(
            DiscreteMeasure(np.array([[_T], [-_T]]), np.ones(2)), build_lagrangian("quartic_pair"),
            nu, Jet(np.array([0.2, -0.1]), np.array([[0.3], [-0.1]])), [2], np.array(grid),
            convention=convention)[2]
        assert report["stages"][1]["data"]["slope"] == slope
        assert tables[convention] == [(lam, res, 2) for lam, res in rows]
    assert tables["breve"] != tables["standard"]


def test_seed_argument_is_checked_like_the_config_seed(tmp_path):
    with pytest.raises(ConfigError, match="seed must be an integer >= 0, got -1"):
        run_config({"schema_version": 1}, seed=-1, out=str(tmp_path))
    assert not (tmp_path / "report.json").exists()


def test_cli_negative_seed_exits_2_without_report(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema_version": 1, "scenario": "mixing-L2"}))
    proc = subprocess.run([sys.executable, "-m", "cvpert.cli", "run", str(path), "--seed", "-1",
                           "--out", str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert not (tmp_path / "out" / "report.json").exists()


def test_inline_mixing_draws_from_the_run_seed(tmp_path, monkeypatch):
    # both stages hand minimize_mixing the run's seed, which draws the restarts' starts
    from cvpert import mixing

    seeds = []
    inner = mixing.minimize_mixing
    monkeypatch.setattr(mixing, "minimize_mixing",
                        lambda L, **kw: seeds.append((L, kw["seed"])) or inner(L, **kw))
    inline = {"mixing": {"L": 3, "restarts": 4}}
    builtin = {"scenario": "mixing-L3", "scenario_config": {"restarts": 4}}
    for k, (config, seed) in enumerate([(inline, 5), (builtin, 5), (inline, 0)]):
        _, code = run_config({"schema_version": 1, **config}, seed=seed,
                             out=str(tmp_path / str(k)))
        assert code == 0
    assert seeds == [(3, 5), (3, 5), (3, 0)]
    starts = {seed: mixing._starting_points(3, None, 4, seed) for seed in (0, 5)}
    assert not np.array_equal(starts[0][1:], starts[5][1:])


def test_mixing_stage_records_the_seed_it_drew_from(tmp_path):
    config = {"schema_version": 1, "scenario": "mixing-L2",
              "scenario_config": {"seed": 3, "restarts": 2}}
    report, code = run_config(config, seed=101, out=str(tmp_path))
    assert code == 0
    assert report["stages"][0]["data"]["seed"] == 3


def test_finished_stages_stay_in_the_report_when_a_later_one_fails(tmp_path):
    report, code = run_config(_inline_expansion([0.0, 0.05]), out=str(tmp_path))
    assert code == 1
    assert [s["name"] for s in report["stages"]] == ["setup", "run"]
    assert report["stages"][0]["data"]["nu"] == pytest.approx(6144.0, rel=1e-12)
    saved = json.loads((tmp_path / "report.json").read_text())
    assert [s["name"] for s in saved["stages"]] == ["setup", "run"]


@pytest.mark.parametrize("case", ["malformed-json", "config-is-a-directory",
                                  "out-is-a-file"])
def test_cli_unreadable_config_or_output_exits_2(tmp_path, capsys, case):
    path = tmp_path / "config.json"
    out = tmp_path / "out"
    if case == "malformed-json":
        path.write_text('{"schema_version": 1,')
    elif case == "config-is-a-directory":
        path.mkdir()
    else:
        path.write_text(json.dumps({"schema_version": 1}))
        out.write_text("a file, not a directory\n")
    assert main(["run", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("restarts", [10 ** 400, 10_001], ids=["10**400", "bound+1"])
def test_restarts_above_the_bound_end_in_error_report(tmp_path, monkeypatch, restarts):
    from cvpert import mixing

    def refuse(*args):
        raise AssertionError("starting points drawn for an out-of-range restart count")

    monkeypatch.setattr(mixing, "_starting_points", refuse)
    assert restarts > mixing.MAX_RESTARTS
    report, code = run_config({"schema_version": 1, "scenario": "mixing-L2",
                               "scenario_config": {"restarts": restarts}}, out=str(tmp_path))
    assert code == 1
    assert report["status"] == "error"
    assert report["stages"][-1]["error"] == (
        f"ShapeError: restarts must be at most {mixing.MAX_RESTARTS}")


@pytest.mark.parametrize("config, error", [
    ({"scenario": "mixing-L2", "scenario_config": {"restarts": -10 ** 5000}},
     "ShapeError: restarts must be an integer >= 1, got a negative integer of about 5001 digits"),
    ({"measure": {"points": [[1.0], [-1.0]], "weights": [1.0, 1.0]},
      "lagrangian": {"name": "pair_distance", "params": {"distance": 10 ** 5000}}},
     "ConfigError: distance must be a finite number, got an integer of about 5001 digits"),
    ({"scenario": "mixing-L2", "scenario_config": 10 ** 5000},
     "ConfigError: scenario_config must be an object, got an integer of about 5001 digits"),
    ({"scenario": "example52-expansion", "scenario_config": {"orders": 10 ** 5000}},
     "ConfigError: example52-expansion: orders must be a list of integers >= 0, "
     "got an integer of about 5001 digits"),
    ({"measure": {"points": [[1.0], [-1.0]], "weights": [True, 10 ** 5000]},
      "lagrangian": {"name": "pair_distance"}},
     "ConfigError: measure.weights must be a regular array of numbers (1-D), "
     "got a list holding an integer too long to print"),
    ({"expectations": 10 ** 5000},
     "ConfigError: expectations must be a list, got an integer of about 5001 digits"),
    ({"expectations": [{"path": 10 ** 5000, "op": "eq"}]},
     "ConfigError: expectations.0: path must be a string and op one of "
     "['approx', 'le', 'ge', 'eq', 'true'], got an integer of about 5001 digits and 'eq'"),
    ({"measure": {"points": [[1.0], [-1.0]], "weights": [1.0, 1.0]},
      "lagrangian": {"name": "pair_distance"}, "test_space": 10 ** 5000},
     "ConfigError: test_space must be 'full', got an integer of about 5001 digits"),
    ({"measure": {"points": [[1.0], [-1.0]], "weights": [1.0, 1.0]},
      "lagrangian": {"name": "pair_distance"}, "nu": 0.0,
      "expansion": {"convention": 10 ** 5000}},
     "ConfigError: expansion: convention must be 'standard' or 'breve', "
     "got an integer of about 5001 digits"),
    ({"measure": {"points": [[1.0], [-1.0]], "weights": [1.0, 1.0]},
      "lagrangian": {"name": 10 ** 5000}},
     "UnknownModel: unknown Lagrangian model an integer of about 5001 digits, have ['cfs', "
     "'example52', 'example52_regularized', 'pair_distance', 'quartic_pair']"),
    ({"scenario": 10 ** 5000},
     "ConfigError: unknown scenario an integer of about 5001 digits; have ['cfs-two-point', "
     "'example52-expansion', 'example52-fragmentation', 'mixing-L2', 'mixing-L3', "
     "'quartic-pair-expansion']"),
    ({"scenario": "mixing-L2", "scenario_config": {"seed": 10 ** 5000}},
     f"ArgError: seed must be at most {2 ** 64 - 1}"),
], ids=["restarts", "distance", "scenario-config", "orders", "weights", "expectations",
        "expectation-path", "test-space", "convention", "model", "scenario", "mixing-seed"])
def test_integers_too_long_to_print_end_in_error_report(tmp_path, monkeypatch, config, error):
    from cvpert import mixing

    def refuse(*args):
        raise AssertionError("starting points drawn for a rejected restart count")

    monkeypatch.setattr(mixing, "_starting_points", refuse)
    report, code = run_config({"schema_version": 1, **config}, out=str(tmp_path))
    assert code == 1
    assert report["status"] == "error"
    assert report["stages"][-1]["error"] == error


@pytest.mark.parametrize("config, message", [
    ({"schema_version": 10 ** 5000},
     "config: schema_version must be 1, got an integer of about 5001 digits"),
    ({"schema_version": 1, "out": -10 ** 5000},
     "config: out must be a string, got a negative integer of about 5001 digits"),
], ids=["schema-version", "out"])
def test_config_check_names_an_int_too_long_to_print_by_its_digit_count(config, message):
    with pytest.raises(ConfigError) as info:
        validate_config(config)
    assert str(info.value) == message


@pytest.mark.parametrize("seed", [2 ** 64, 10 ** 5000], ids=["above-bound", "too-long-to-print"])
def test_config_seed_has_an_upper_bound(seed):
    # the report echoes the seed, and json cannot write an int too long to print
    validate_config({"schema_version": 1, "seed": 2 ** 64 - 1})
    with pytest.raises(ConfigError) as info:
        validate_config({"schema_version": 1, "seed": seed})
    assert str(info.value) == f"config: seed must be at most {2 ** 64 - 1}"


def test_report_shows_a_rejected_scenario_name_as_text(tmp_path):
    report, code = run_config({"schema_version": 1, "scenario": 10 ** 5000}, out=str(tmp_path))
    assert code == 1
    written = json.loads((tmp_path / "report.json").read_text())
    assert written["scenario"] == report["scenario"] == "an integer of about 5001 digits"
