"""Named scenario runners: the worked examples as reproducible pipelines.

Each runner takes its scenario config and the output directory and returns
one stage as (name, data, files written); ``cli.run_config`` turns it into
the stage record of the report.  An unknown config key is a ConfigError;
each runner takes the run's seed, ``config["seed"]``, which only the mixing
stages, the only random draw, read.  Plot output is data-only CSV for
external tooling.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import numbers
from pathlib import Path

import numpy as np

from . import expansion, fragmentation, mixing
from .cfs import (CfsChart, CfsParams, spin_map_from_point, swap_symmetric_pair,
                  system_to_json)
from .el import calibrate_nu, integrate_partial, residual_norm
from .errors import ConfigError, finite_real, integer, shown
from .fitting import lambda_grid
from .jets import Jet, TestBasis
from .lagrangian import build_lagrangian
from .measure import DiscreteMeasure

LAMBDA_GRID = np.geomspace(0.01, 0.1, 5)  # an order-scaling study's default lambda_grid


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, data):
    with open(path, "w") as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _object(value, what, keys=None, required=()) -> dict:
    """value itself; ConfigError unless it is an object that holds every
    ``required`` key and, if ``keys`` is given, no key outside it."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {shown(value)}")
    missing = [k for k in required if k not in value]
    unknown = [k for k in value if keys is not None and k not in keys]
    if missing or unknown:
        raise ConfigError(f"{what}: missing keys {missing}, unknown keys {unknown}")
    return value


def _array(value, what, ndim=None) -> np.ndarray:
    """value as a float array; ConfigError unless it is a regular array of
    numbers with ``ndim`` axes if given (0: a number), else at least one."""
    arr = np.array(value, dtype=object)  # a ragged nesting keeps lists as entries
    shaped = arr.ndim == ndim if ndim is not None else arr.ndim > 0
    if not shaped or not all(issubclass(t, numbers.Real) and not issubclass(t, bool)
                             for t in set(map(type, arr.flat))):
        kind = "a number" if ndim == 0 else "a regular array of numbers"
        raise ConfigError(f"{what} must be {kind}{f' ({ndim}-D)' if ndim else ''}, "
                          f"got {shown(value)}")
    try:
        return arr.astype(float)
    except OverflowError:  # an integer too large for a float
        raise ConfigError(f"{what} must be finite, got a number too large for a float") from None


def _number(config, key, default, what) -> float:
    """config[key] (``default`` if absent); ConfigError unless a finite number."""
    what = f"{what}: {key}"
    return finite_real(float(_array(config.get(key, default), what, 0)), what, ConfigError)


def regularized_two_point_base():
    """Exact symmetric critical pair of the regularized polynomial model.

    The stationarity conditions reduce to t (1 + 3 t^2 / 8) = 1/sqrt(3) with
    h^2 = 2 t^2 + 3 t^4 / 4.  The first is the depressed cubic
    t^3 + (8/3) t - 8/(3 sqrt 3) = 0, with one real root (Cardano's formula),
    polished by one Newton step.
    """
    q = 4.0 / (3.0 * math.sqrt(3.0))  # -1/2 times the constant term
    d = math.sqrt(q * q + (8.0 / 9.0) ** 3)  # sqrt(q^2 + (p/3)^3), p = 8/3
    t = float(np.cbrt(q + d) + np.cbrt(q - d))
    t -= (t * (1 + 0.375 * t * t) - 1.0 / math.sqrt(3.0)) / (1 + 1.125 * t * t)
    h = math.sqrt(2 * t * t + 0.75 * t ** 4)
    return DiscreteMeasure(np.array([[t, h], [-t, h]]), np.ones(2))


def quartic_two_point_base():
    """Exact critical pair of the quartic model at well scale 4: t = 2 sqrt 2."""
    t = 2.0 * math.sqrt(2.0)
    return DiscreteMeasure(np.array([[t], [-t]]), np.ones(2))


def run_example52_fragmentation(config, outdir: Path):
    _object(config, "example52-fragmentation", ("lambda", "seed"))
    lam = _number(config, "lambda", 0.1, "example52-fragmentation")
    scen = fragmentation.example52_scenario()
    frag = fragmentation.fragment_measure(scen.measure, scen.ansatz, lam)
    mu = frag.as_measure()

    # profile of ell along the x1 axis at height lambda (the plotted slice)
    xs = np.linspace(-3 * lam, 3 * lam, 121)
    ells = integrate_partial(scen.lagrangian, np.column_stack([xs, np.full_like(xs, lam)]),
                             mu.points, mu.weights, (0, 0)) - scen.nu / 2.0
    rows = [(float(x), float(v)) for x, v in zip(xs, ells)]
    profile = outdir / "ell_profile.csv"
    _write_csv(profile, ["x1", "ell"], rows)

    directions = [fragmentation.MultiJet([Jet(np.array([1.0]), np.zeros((1, 2))),
                                          Jet(np.array([-1.0]), np.zeros((1, 2)))]),
                  fragmentation.MultiJet([Jet(np.zeros(1), np.array([[1.0, 0.0]])),
                                          Jet(np.zeros(1), np.array([[-1.0, 0.0]]))])]
    M = fragmentation.perturbed_laplacian_linF(scen.measure, scen.lagrangian,
                                               scen.ansatz, lam,
                                               directions=directions)
    report = fragmentation.wellposedness_check(scen)
    wp_file = outdir / "wellposedness.json"
    _write_json(wp_file, report.to_json())
    support = outdir / "fragmented_support.csv"
    pos, wts = frag.positions(), frag.weights()
    _write_csv(support, ["subsystem", "x1", "x2", "weight", "lambda"],
               [(a + 1, float(pos[a, i, 0]), float(pos[a, i, 1]), float(wts[a, i]), lam)
                for a in range(frag.n_subsystems) for i in range(frag.base.size)])

    data = {
        "lambda": lam,
        "lin_f_form": [[float(v) for v in row] for row in M],
        "computed_diag": [float(M[0, 0]), float(M[1, 1])],
        "expected_diag_direct": [2 * lam ** 4, 16 * lam ** 2],
        "r_estimate": report.r_estimate,
        "verdict": report.verdict,
    }
    return "example52-fragmentation", data, [profile, wp_file, support]


def _run_expansion(name, make_base, model, deviation, config, outdir: Path):
    """Order-scaling study of ``model`` around the critical ``make_base()``
    along ``deviation``, written as stage ``name``."""
    _object(config, name, ("orders", "lambda_grid", "seed"))
    base = make_base()  # a measure per run: its pair tables must not outlive it
    lag = build_lagrangian(model)
    nu = calibrate_nu(base, lag)
    orders = config.get("orders", [1, 2])
    if not isinstance(orders, list):
        raise ConfigError(f"{name}: orders must be a list of integers >= 0, got {shown(orders)}")
    orders = [integer(order, 0, f"{name}: orders", ConfigError) for order in orders]
    grid = lambda_grid(_array(config.get("lambda_grid", LAMBDA_GRID), f"{name}: lambda_grid", 1),
                       2, name, ConfigError)
    fits = expansion.order_scaling_slopes(base, lag, nu, deviation, orders, grid)
    slopes = {str(order): fits[order][0] for order in orders}
    rows = [(lam, res, order) for order in orders for lam, res in fits[order][1]]
    res_file = outdir / f"{name}_residuals.csv"
    _write_csv(res_file, ["lambda", "residual", "order"], rows)
    min_expected = {str(o): o + 1 - expansion.SLOPE_BAND for o in orders}
    return name, {"slopes": slopes, "min_expected": min_expected}, [res_file]


def _run_mixing(L, config, outdir: Path):
    _object(config, f"mixing-L{L}", ("restarts", "seed"))
    restarts = config.get("restarts", 50)
    seed = integer(config.get("seed", 0), 0, f"mixing-L{L}: seed", ConfigError)
    val, U, trace = mixing.minimize_mixing(L, restarts=restarts, seed=seed)
    out_file = outdir / f"mixing_L{L}.json"
    _write_json(out_file, mixing.results_to_json(L, val, U, restarts, trace))
    data = {"L": L, "min_value": val, "gap_to_infimum": mixing.gap_to_infimum(U),
            "unitarity_defect": mixing.unitarity_defect(U), "restarts": restarts, "seed": seed}
    return f"mixing-L{L}", data, [out_file]


def run_cfs_two_point(config, outdir: Path):
    _object(config, "cfs-two-point", ("trace_constant", "kappa", "b", "seed"))
    params = CfsParams(2, 1, _number(config, "trace_constant", 1.0, "cfs-two-point"),
                       _number(config, "kappa", 0.1, "cfs-two-point"))
    x1, x2 = swap_symmetric_pair(params, b=_number(config, "b", 0.25, "cfs-two-point"))
    H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    chart = CfsChart(params, spin_map_from_point(H @ x1 @ H, 1))
    lag = build_lagrangian("cfs", {"hilbert_dim": 2, "spin_dim": 1,
                                   "trace_constant": params.trace_constant,
                                   "kappa": params.kappa, "chart": chart})
    z1 = chart.coords(x1)
    z2 = chart.coords(x2)
    mu = DiscreteMeasure(np.vstack([z1, z2]), np.ones(2))
    nu = calibrate_nu(mu, lag, tol=1e-8)
    scalar_res = residual_norm(mu, lag, nu,
                               TestBasis([Jet(np.ones(2), np.zeros((2, mu.dimension)))]))
    sys_file = outdir / "cfs_system.json"
    _write_json(sys_file, system_to_json(params, [x1, x2], [1.0, 1.0]))
    return "cfs-two-point", {"nu": nu, "chart_condition": chart.condition,
                             "scalar_residual": scalar_res}, [sys_file]


REGISTRY = {
    "cfs-two-point": ("two unitarily equivalent operators, charted and calibrated",
                      run_cfs_two_point),
    "example52-expansion": ("order-scaling study on the regularized polynomial model",
                            functools.partial(
                                _run_expansion, "example52-expansion",
                                regularized_two_point_base, "example52_regularized",
                                Jet(np.array([0.1, -0.2]),
                                    np.array([[0.2, -0.15], [0.05, 0.1]])))),
    "example52-fragmentation": ("fragmented two-point profile, neutral-space form, "
                                "well-posedness fit", run_example52_fragmentation),
    "mixing-L2": ("mixing functional minimization over U(2)",
                  functools.partial(_run_mixing, 2)),
    "mixing-L3": ("mixing functional minimization over U(3)",
                  functools.partial(_run_mixing, 3)),
    "quartic-pair-expansion": ("order-scaling study on the quartic pair model",
                               functools.partial(
                                   _run_expansion, "quartic-pair-expansion",
                                   quartic_two_point_base, "quartic_pair",
                                   Jet(np.array([0.21, -0.13]), np.array([[0.31], [-0.12]])))),
}


def list_scenarios() -> list:
    return [(name, REGISTRY[name][0]) for name in sorted(REGISTRY)]


def run_scenario(name: str, config, outdir: Path):
    """Run builtin scenario ``name``; returns (stage name, data, files)."""
    if not isinstance(name, str) or name not in REGISTRY:
        raise ConfigError(f"unknown scenario {shown(name)}; have {sorted(REGISTRY)}")
    return REGISTRY[name][1](config, outdir)
