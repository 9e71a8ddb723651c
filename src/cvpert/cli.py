"""Scenario runner: JSON config in, JSON/CSV reports out.

Subcommands:
  run <config.json> [--seed N] [--out DIR] [--strict]
  list
  slope <csv> --x COL --y COL

Exit code 0 means every expectation in the config passed.  Reports are
deterministic for a fixed config and seed up to the wall-clock field.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from . import scenarios
from .errors import ConfigError, CvpError, ShapeError
from .fitting import strict_loglog_slope

SCHEMA_VERSION = 1

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "scenario": {"type": "string"},
        "seed": {"type": "integer"},
        "out": {"type": "string"},
        "strict": {"type": "boolean"},
        "scenario_config": {"type": "object"},
        "measure": {
            "type": "object",
            "additionalProperties": False,
            "required": ["points", "weights"],
            "properties": {
                "points": {"type": "array", "items": {"type": "array",
                                                      "items": {"type": "number"}}},
                "weights": {"type": "array", "items": {"type": "number"}},
            },
        },
        "lagrangian": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": {"name": {"type": "string"}, "params": {"type": "object"}},
        },
        "nu": {"anyOf": [{"type": "number"}, {"const": "calibrate"}]},
        "test_space": {"const": "full"},
        "expansion": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "order": {"type": "integer", "minimum": 0},
                "convention": {"enum": ["standard", "breve"]},
                "lambda_grid": {"type": "array", "minItems": 2,
                                "items": {"type": "number", "exclusiveMinimum": 0}},
                "deviation": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {"c": {"type": "array"}, "F": {"type": "array"}},
                },
            },
        },
        "mixing": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"L": {"type": "integer", "minimum": 2},
                           "restarts": {"type": "integer", "minimum": 1}},
        },
        "expectations": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["path", "op"],
                "properties": {
                    "path": {"type": "string"},
                    "op": {"enum": ["approx", "le", "ge", "eq", "true"]},
                    "value": {},
                    "tol": {"type": "number"},
                },
            },
        },
    },
}


def validate_config(config: dict):
    validator = Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(config), key=lambda e: list(e.path))
    if errors:
        msgs = "; ".join(f"{'/'.join(str(p) for p in e.path) or '<root>'}: {e.message}"
                         for e in errors)
        raise ConfigError(msgs)
    # a config with no stages at all is legal: it yields an empty report


def _lookup(report: dict, path: str):
    node = report
    for part in path.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        else:
            node = node[part]
    return node


def evaluate_expectations(report: dict, expectations) -> list:
    results = []
    for exp in expectations or []:
        try:
            actual = _lookup(report, exp["path"])
            op = exp["op"]
            if op == "approx":
                ok = abs(float(actual) - float(exp["value"])) <= float(exp.get("tol", 1e-9))
            elif op == "le":
                ok = float(actual) <= float(exp["value"])
            elif op == "ge":
                ok = float(actual) >= float(exp["value"])
            elif op == "eq":
                ok = actual == exp["value"]
            else:
                ok = bool(actual)
        except (KeyError, IndexError, TypeError, ValueError) as err:
            results.append({"path": exp["path"], "ok": False, "error": str(err)})
            continue
        results.append({"path": exp["path"], "ok": bool(ok), "actual": actual})
    return results


def _run_inline(config: dict, rng, outdir: Path):
    from . import expansion as expmod
    from .el import calibrate_nu
    from .jets import Jet
    from .lagrangian import build_lagrangian
    from .linops import delta_zero_dual
    from .measure import DiscreteMeasure

    stages = []
    files = []
    mu = None
    lag = None
    nu = None
    if "measure" in config:
        if "lagrangian" not in config:
            raise ConfigError("inline measure stage needs a lagrangian")
        mu = DiscreteMeasure(scenarios._array(config["measure"]["points"], "measure.points"),
                             scenarios._array(config["measure"]["weights"], "measure.weights"))
        lag = build_lagrangian(config["lagrangian"]["name"],
                               config["lagrangian"].get("params"))
        if mu.dimension != lag.dim:
            raise ShapeError(f"measure points have dimension {mu.dimension}, "
                             f"Lagrangian {lag.name!r} has dimension {lag.dim}")
        nu_cfg = config.get("nu", "calibrate")
        nu = calibrate_nu(mu, lag, tol=1e-6) if nu_cfg == "calibrate" else float(nu_cfg)
        stages.append({"name": "setup", "status": "ok",
                       "data": {"nu": nu, "points": mu.size,
                                "residual": delta_zero_dual(mu, lag, nu).norm()}})
    if "expansion" in config:
        if mu is None:
            raise ConfigError("expansion stage needs an inline measure")
        econf = config["expansion"]
        order = int(econf.get("order", 2))
        convention = econf.get("convention", "standard")
        if "deviation" in econf:
            parts = {k: scenarios._array(v, f"deviation.{k}")
                     for k, v in econf["deviation"].items()}
            dev = Jet(parts.get("c", np.zeros(mu.size)),
                      parts.get("F", np.zeros((mu.size, mu.dimension))))
            grid = scenarios._lambda_grid(econf, "expansion")
            slope, table = expmod.order_scaling_slope(mu, lag, nu, dev, order, grid)
            path = outdir / "expansion_residuals.csv"
            scenarios._write_csv(path, ["lambda", "residual", "order"],
                                 [(lam, res, order) for lam, res in table])
            files.append(path)
            stages.append({"name": "expansion", "status": "ok",
                           "data": {"order": order, "slope": slope}})
        else:
            series = expmod.expand(mu, lag, nu, order, convention=convention,
                                   strict=bool(config.get("strict", False)))
            path = outdir / "series.json"
            scenarios._write_json(path, series.to_json())
            files.append(path)
            stages.append({"name": "expansion", "status": "ok",
                           "data": {"order": order,
                                    "jet_norms": [j.norm() for j in series.jets],
                                    "range_defects": list(series.range_defects)}})
    if "mixing" in config:
        mcfg = config["mixing"]
        scen_stages, scen_files = scenarios._run_mixing(int(mcfg.get("L", 2)),
                                                        mcfg, rng, outdir)
        stages.extend(scen_stages)
        files.extend(scen_files)
    return stages, files


def run_config(config: dict, seed: int | None = None, out: str | None = None,
               strict: bool | None = None) -> tuple:
    """Execute the configured stages; returns (report dict, exit code)."""
    validate_config(config)
    seed = int(config.get("seed", 0)) if seed is None else seed
    outdir = Path(out or config.get("out", "cvpert-out"))
    outdir.mkdir(parents=True, exist_ok=True)
    if strict is not None:
        config = dict(config, strict=strict)
    rng = np.random.default_rng(seed)
    t0 = time.monotonic()
    stages = []
    files = []
    status = "ok"
    try:
        if "scenario" in config:
            sub = dict(config.get("scenario_config", {}))
            sub.setdefault("seed", seed)
            stages, files = scenarios.run_scenario(config["scenario"], sub, rng, outdir)
        else:
            stages, files = _run_inline(config, rng, outdir)
    except CvpError as err:
        status = "error"
        stages.append({"name": "run", "status": "error",
                       "error": f"{type(err).__name__}: {err}"})
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": config.get("scenario", "inline"),
        "seed": seed,
        "status": status,
        "stages": stages,
        "files": [str(f) for f in files],
        "expectations": [],
    }
    report["expectations"] = evaluate_expectations(report, config.get("expectations"))
    ok = status == "ok" and all(e["ok"] for e in report["expectations"])
    report["passed"] = bool(ok)
    report["wall_clock_s"] = time.monotonic() - t0
    report_path = outdir / "report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return report, (0 if ok else 1)


def cmd_run(args) -> int:
    with open(args.config) as fh:
        config = json.load(fh)
    report, code = run_config(config, seed=args.seed, out=args.out,
                              strict=args.strict or None)
    print(json.dumps({"passed": report["passed"],
                      "stages": [s["name"] for s in report["stages"]],
                      "out": str(Path(args.out or config.get("out", "cvpert-out")))},
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
    except (CvpError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
