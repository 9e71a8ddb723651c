"""Scenario runner: JSON config in, JSON/CSV reports out.

Subcommands:
  run <config.json> [--seed N] [--out DIR] [--strict]
  list
  slope <csv> --x COL --y COL

Exit code 0 means every expectation in the config passed.  Reports are
deterministic for a fixed config and seed up to the wall-clock field.  The
run's seed reaches the one stage that draws at random, mixing, both in the
builtin mixing scenarios and in an inline ``mixing`` stage.

A config is checked where it is read.  ``validate_config`` checks only what
locating and labelling the report needs, before any stage runs: first on the
file's own keys, then with ``--seed``/``--out``/``--strict`` merged in, so
those are checked like the keys they override.  ``cvpert run`` exits with 2
on a violation, or on a config file it cannot read or parse, and writes no
report.  Every other key is checked by the stage that reads it, so a bad
value there ends in a report with ``status: "error"`` and exit code 1; the
stages that finished before it stay in the report.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import expansion, scenarios
from .el import calibrate_nu
from .errors import ConfigError, CvpError, ShapeError, integer, shown
from .fitting import lambda_grid, strict_loglog_slope
from .jets import Jet
from .lagrangian import build_lagrangian
from .linops import delta_zero_dual
from .measure import DiscreteMeasure
from .mixing import MAX_SEED

SCHEMA_VERSION = 1

INLINE_KEYS = ("measure", "lagrangian", "nu", "test_space", "expansion", "mixing")
CONFIG_KEYS = ("schema_version", "scenario", "scenario_config", "seed", "out", "strict",
               "expectations") + INLINE_KEYS


def validate_config(config: dict):
    """ConfigError unless ``config`` is an object of known keys with
    ``schema_version`` 1, an integer ``seed`` in 0..``MAX_SEED``, a string
    ``out`` and a boolean ``strict`` (each optional but the version)."""
    scenarios._object(config, "config", CONFIG_KEYS, required=("schema_version",))
    version = config["schema_version"]
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(f"config: schema_version must be {SCHEMA_VERSION}, got {shown(version)}")
    if integer(config.get("seed", 0), 0, "config: seed", ConfigError) > MAX_SEED:
        raise ConfigError(f"config: seed must be at most {MAX_SEED}")
    for key, kind, name in (("out", str, "a string"), ("strict", bool, "a boolean")):
        if key in config and not isinstance(config[key], kind):
            raise ConfigError(f"config: {key} must be {name}, got {shown(config[key])}")
    # a config with no stages at all is legal: it yields an empty report


def _lookup(report: dict, path: str):
    node = report
    for part in path.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        else:
            node = node[part]
    return node


OPS = {
    "approx": lambda actual, exp: (abs(float(actual) - float(exp["value"]))
                                   <= float(exp.get("tol", 1e-9))),
    "le": lambda actual, exp: float(actual) <= float(exp["value"]),
    "ge": lambda actual, exp: float(actual) >= float(exp["value"]),
    "eq": lambda actual, exp: actual == exp["value"],
    "true": lambda actual, exp: bool(actual),
}


def _expectations(config: dict) -> list:
    """config["expectations"]; ConfigError unless each is an object with a
    string ``path``, an ``op`` of ``OPS`` and a numeric ``tol`` if any."""
    expectations = config.get("expectations", [])
    if not isinstance(expectations, list):
        raise ConfigError(f"expectations must be a list, got {shown(expectations)}")
    for k, exp in enumerate(expectations):
        what = f"expectations.{k}"
        scenarios._object(exp, what, ("path", "op", "value", "tol"), required=("path", "op"))
        if not isinstance(exp["path"], str) or exp["op"] not in tuple(OPS):
            raise ConfigError(f"{what}: path must be a string and op one of {list(OPS)}, "
                              f"got {shown(exp['path'])} and {shown(exp['op'])}")
        scenarios._number(exp, "tol", 1e-9, what)
    return expectations


def evaluate_expectations(report: dict, expectations) -> list:
    results = []
    for exp in expectations or []:
        try:
            actual = _lookup(report, exp["path"])
            ok = OPS[exp["op"]](actual, exp)
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as err:
            results.append({"path": exp["path"], "ok": False, "error": str(err)})
            continue
        results.append({"path": exp["path"], "ok": bool(ok), "actual": actual})
    return results


def _run_inline(config: dict, seed: int, outdir: Path):
    """Yield the inline stages one at a time as (name, data, files)."""
    if "scenario_config" in config:
        raise ConfigError("scenario_config needs a scenario")
    orphans = [k for k in ("lagrangian", "nu", "test_space", "expansion") if k in config]
    if orphans and "measure" not in config:
        raise ConfigError(f"{orphans} need an inline measure")
    if "measure" in config:
        mconf = scenarios._object(config["measure"], "measure", ("points", "weights"),
                                  required=("points", "weights"))
        mu = DiscreteMeasure(scenarios._array(mconf["points"], "measure.points", 2),
                             scenarios._array(mconf["weights"], "measure.weights", 1))
        lconf = scenarios._object(config.get("lagrangian"), "lagrangian", ("name", "params"),
                                  required=("name",))
        lag = build_lagrangian(lconf["name"],
                               scenarios._object(lconf.get("params", {}), "lagrangian.params"))
        if mu.dimension != lag.dim:
            raise ShapeError(f"measure points have dimension {mu.dimension}, "
                             f"Lagrangian {lag.name!r} has dimension {lag.dim}")
        if config.get("test_space", "full") != "full":
            raise ConfigError(f"test_space must be 'full', got {shown(config['test_space'])}")
        nu = (calibrate_nu(mu, lag, tol=1e-6) if config.get("nu", "calibrate") == "calibrate"
              else scenarios._number(config, "nu", None, "setup"))
        yield "setup", {"nu": nu, "points": mu.size,
                        "residual": delta_zero_dual(mu, lag, nu).norm()}, []
    if "expansion" in config:
        econf = scenarios._object(config["expansion"], "expansion",
                                  ("order", "convention", "lambda_grid", "deviation"))
        order = integer(econf.get("order", 2), 0, "expansion: order", ConfigError)
        convention = econf.get("convention", "standard")
        if convention not in ("standard", "breve"):
            raise ConfigError(f"expansion: convention must be 'standard' or 'breve', "
                              f"got {shown(convention)}")
        grid = lambda_grid(scenarios._array(econf.get("lambda_grid", scenarios.LAMBDA_GRID),
                                            "expansion: lambda_grid", 1),
                           2, "expansion", ConfigError)
        if "deviation" in econf:
            parts = {k: scenarios._array(v, f"deviation.{k}") for k, v in
                     scenarios._object(econf["deviation"], "deviation", ("c", "F")).items()}
            dev = Jet(parts.get("c", np.zeros(mu.size)),
                      parts.get("F", np.zeros((mu.size, mu.dimension))))
            slope, table = expansion.order_scaling_slope(mu, lag, nu, dev, order, grid,
                                                      convention=convention)
            path = outdir / "expansion_residuals.csv"
            scenarios._write_csv(path, ["lambda", "residual", "order"],
                                 [(lam, res, order) for lam, res in table])
            data = {"order": order, "slope": slope}
        else:
            series = expansion.expand(mu, lag, nu, order, convention=convention,
                                   strict=config.get("strict", False))
            path = outdir / "series.json"
            scenarios._write_json(path, series.to_json())
            data = {"order": order, "jet_norms": [j.norm() for j in series.jets],
                    "range_defects": list(series.range_defects)}
        yield "expansion", data, [path]
    if "mixing" in config:
        mcfg = dict(scenarios._object(config["mixing"], "mixing", ("L", "restarts")), seed=seed)
        L = integer(mcfg.pop("L", 2), 2, "mixing: L", ConfigError)
        yield scenarios._run_mixing(L, mcfg, outdir)


def run_config(config: dict, seed: int | None = None, out: str | None = None,
               strict: bool | None = None) -> tuple:
    """Execute the configured stages; returns (report dict, exit code).

    ``seed``, ``out`` and ``strict``, unless None, override the config keys of
    the same name and are checked like them.  A stage that fails ends the run;
    the stages finished before it stay in the report."""
    validate_config(config)
    overrides = {"seed": seed, "out": out, "strict": strict}
    config = dict(config, **{k: v for k, v in overrides.items() if v is not None})
    validate_config(config)
    seed = config.get("seed", 0)
    outdir = Path(config.get("out", "cvpert-out"))
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    stages = []
    files = []
    expectations = []
    status = "ok"
    try:
        expectations = _expectations(config)
        if "scenario" in config:
            inline = [k for k in INLINE_KEYS if k in config]
            if inline:
                raise ConfigError(f"a scenario config takes no inline keys, got {inline}")
            sub = dict(scenarios._object(config.get("scenario_config", {}), "scenario_config"))
            sub.setdefault("seed", seed)
            runs = [scenarios.run_scenario(config["scenario"], sub, outdir)]
        else:
            runs = _run_inline(config, seed, outdir)
        for name, data, written in runs:
            stages.append({"name": name, "status": "ok", "data": data})
            files.extend(written)
    except CvpError as err:
        status = "error"
        stages.append({"name": "run", "status": "error",
                       "error": f"{type(err).__name__}: {err}"})
    scenario = config.get("scenario", "inline")  # a rejected name is shown as text
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario if isinstance(scenario, str) else shown(scenario),
        "seed": seed,
        "status": status,
        "stages": stages,
        "files": [str(f) for f in files],
        "expectations": [],
    }
    report["expectations"] = evaluate_expectations(report, expectations)
    ok = status == "ok" and all(e["ok"] for e in report["expectations"])
    report["passed"] = bool(ok)
    report["wall_clock_s"] = time.monotonic() - t0
    report_path = outdir / "report.json"
    with open(report_path, "w") as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True, default=float) + "\n")
    return report, (0 if ok else 1)


def cmd_run(args) -> int:
    with open(args.config) as fh:
        try:
            config = json.load(fh)
        except ValueError as err:  # malformed JSON or text
            raise ConfigError(f"{args.config}: {err}") from None
    report, code = run_config(config, seed=args.seed, out=args.out,
                              strict=args.strict or None)
    print(json.dumps({"passed": report["passed"],
                      "stages": [s["name"] for s in report["stages"]],
                      "out": str(Path(args.out if args.out is not None
                                      else config.get("out", "cvpert-out")))},
                     sort_keys=True))
    return code


def cmd_list(args) -> int:
    for name, desc in scenarios.list_scenarios():
        print(f"{name}: {desc}")
    return 0


def cmd_slope(args) -> int:
    with open(args.csv) as fh:
        reader = csv.DictReader(fh)
        for column in (args.x, args.y):
            if column not in (reader.fieldnames or []):
                raise ConfigError(f"{args.csv}: no column {column!r}, "
                                  f"have {reader.fieldnames or []}")
        try:
            rows = [(float(row[args.x]), float(row[args.y])) for row in reader]
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{args.csv}: {err}") from None
    slope, r2 = strict_loglog_slope([r[0] for r in rows], [r[1] for r in rows])
    print(json.dumps({"slope": slope, "r_squared": r2}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cvpert",
                                     description="scenario runner for the "
                                                 "perturbation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--strict", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_list = sub.add_parser("list", help="list builtin scenarios")
    p_list.set_defaults(func=cmd_list)

    p_slope = sub.add_parser("slope", help="log-log slope of a CSV table")
    p_slope.add_argument("csv")
    p_slope.add_argument("--x", required=True)
    p_slope.add_argument("--y", required=True)
    p_slope.set_defaults(func=cmd_slope)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CvpError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
