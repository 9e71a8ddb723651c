"""Workloads of the cvpert benchmark.

Each workload makes its inputs from the seed, warms up in ``setup`` and then
offers a fixed job list; one pass runs every job once.  A job returns its
outputs, and ``check`` lists what is wrong with them (an empty list means
the job passed).  ``check`` also returns the slope margins
slope - (P + 1 - SLOPE_BAND) of every finite order-scaling slope, the
paper's accuracy criterion: an order-P scheme leaves an O(lambda^(P+1))
residual.

Why these four (shares of one pass at seed, from a traced run):

* ``scenarios`` -- the six builtin scenarios through ``cli.run_config``, the
  north-star user path.  Every call rebuilds and re-lambdifies its model.  No
  expansion layer dominates (mixing ~63%, lambdify ~14% of a 0.8 s pass), so
  it guards against a gain in one layer that costs another.
* ``deep-orders`` -- N = 2 at orders 3 to 5.  ``expansion.error_term`` is
  about 97% of the pass; assembly, SVD and measure work are negligible.
  Mechanism for Taylor-mode error terms, bypass for the pair kernel and for
  merging.
* ``wide-support`` -- N = 32, m = 5 at order 1: the per-pair scalar loops of
  ``assemble_delta`` (~50%) and the Gram rank check of ``TestBasis.full``
  (~28%) dominate.  Mechanism for the vectorised pair kernel, bypass for
  Taylor mode.
* ``measure-ladder`` -- measures of 250 and 500 points and a fragmented
  measure of 4 x 250: the only workload where the quadratic coincidence
  check (~58%) and merge loops (~42%) dominate.  Mechanism for O(N log N)
  merging.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# layers are reached through their modules so that a tracer's wrappers apply
from cvpert import cli, fragmentation, jets, lagrangian, measure

SLOPE_BAND = 0.2
SCENARIOS = ("cfs-two-point", "example52-expansion", "example52-fragmentation",
             "mixing-L2", "mixing-L3", "quartic-pair-expansion")


@dataclass
class Job:
    name: str
    run: Callable[[Path], object]
    check: Callable[[object], tuple]


class Workload:
    """Inputs made from one seed, a warm-up and the job list of one pass."""

    name = ""
    jobs: list[Job]

    def setup(self, workdir: Path):
        """Warm-up that belongs to set-up time, not to any pass."""


# -- checks on run_config reports --------------------------------------------

def _report_problems(report) -> list:
    problems = []
    if report.get("status") != "ok" or not report.get("passed"):
        problems.append(f"report: status={report.get('status')} "
                        f"passed={report.get('passed')}")
    return problems


def _stage(report, name):
    for stage in report["stages"]:
        if stage["name"] == name:
            return stage["data"]
    raise KeyError(f"no stage {name!r} in the report")


def _slope_problems(stage_name, slopes: dict, floors: dict | None = None) -> tuple:
    """slopes: {order P: fitted slope}; each must reach its floor, by default
    P + 1 - SLOPE_BAND.  Returns (problems, margins slope - floor)."""
    problems, margins = [], []
    for order, slope in slopes.items():
        floor = int(order) + 1 - SLOPE_BAND if floors is None else floors[order]
        if not slope >= floor:
            problems.append(f"{stage_name}: P={order} slope {slope:.4f} < {floor:.2f}")
        if math.isfinite(slope):
            margins.append(slope - floor)
    return problems, margins


def check_scenario(name: str, report) -> tuple:
    problems = _report_problems(report)
    margins: list = []
    data = _stage(report, name)
    if name == "cfs-two-point":
        if not data["scalar_residual"] <= 1e-8:
            problems.append(f"scalar_residual {data['scalar_residual']:.3e} > 1e-8")
    elif name.endswith("-expansion"):
        p, margins = _slope_problems(name, data["slopes"], data["min_expected"])
        problems += p
    elif name == "example52-fragmentation":
        for got, want in zip(data["computed_diag"], data["expected_diag_direct"]):
            if not abs(got - want) <= 1e-8 * abs(want):
                problems.append(f"computed_diag {got!r} != expected {want!r}")
        if data["verdict"] != "well-posed":
            problems.append(f"verdict {data['verdict']!r}")
    elif name.startswith("mixing-"):
        if not abs(data["gap_to_infimum"]) <= 1e-6:
            problems.append(f"gap_to_infimum {data['gap_to_infimum']:.3e}")
    return problems, margins


def _run_config_job(name, config, seed, check) -> Job:
    def run(outdir: Path):
        report, _code = cli.run_config(config, seed=seed, out=str(outdir))
        return report

    return Job(name, run, check)


# -- the four workloads ------------------------------------------------------

class ScenariosWorkload(Workload):
    name = "scenarios"

    def __init__(self, seed):
        self.jobs = [_run_config_job(s, {"schema_version": 1, "scenario": s}, seed,
                                     lambda report, s=s: check_scenario(s, report))
                     for s in SCENARIOS]

    def setup(self, workdir):
        # one untimed pass: first calls of lambdify, least_squares, expm and
        # the SVD sizes cost several times their steady state
        for k, job in enumerate(self.jobs):
            job.run(workdir / f"warm{k}")


def _warm_partials(lag, max_total: int):
    """Lambdify every partial of total order <= max_total once."""
    m = lag.dim
    x, y = np.full(m, 0.3), np.full(m, -0.2)
    for idx in itertools.product(range(max_total + 1), repeat=2 * m):
        if sum(idx) <= max_total:
            lag.partial(x, y, idx[:m], idx[m:])


def _warm_svd(*sizes):
    rng = np.random.default_rng(0)
    for n in sizes:
        np.linalg.svd(rng.standard_normal((n, n)), full_matrices=False)


class DeepOrdersWorkload(Workload):
    name = "deep-orders"
    ORDERS = {"quartic-pair-expansion": [4, 5], "example52-expansion": [3, 4]}
    MODELS = {"quartic-pair-expansion": "quartic_pair",
              "example52-expansion": "example52_regularized"}

    def __init__(self, seed):
        # one job per order: run.py scales each job's time by host-speed
        # probes taken around it, which track a short job more closely
        self.jobs = []
        self.configs = [{"schema_version": 1, "scenario": name,
                         "scenario_config": {"orders": [order]}}
                        for name, orders in self.ORDERS.items() for order in orders]
        for config in self.configs:
            name = config["scenario"]
            order = config["scenario_config"]["orders"][0]
            self.jobs.append(_run_config_job(f"{name}-P{order}", config, seed,
                                             lambda report, name=name:
                                             self.check(name, report)))

    @staticmethod
    def check(name, report) -> tuple:
        problems = _report_problems(report)
        p, margins = _slope_problems(name, _stage(report, name)["slopes"])
        return problems + p, margins

    def setup(self, workdir):
        # error terms up to order P use partials up to total order P + 1
        for name, orders in self.ORDERS.items():
            _warm_partials(lagrangian.build_lagrangian(self.MODELS[name]), max(orders) + 1)
        _warm_svd(4, 6)
        for config in self.configs:
            cli.validate_config(config)


def wide_support_config(seed: int) -> dict:
    """Order-1 expansion at the 32 vertices {+-2 sqrt 2}^5, equal weights.

    The quartic pair model separates per coordinate and each coordinate
    reproduces the critical 1-D pair, so the measure is exactly critical and
    the first-order correction w^(1) = -S Delta_0 vanishes.  The seed draws
    the order of the points and the common weight in U(0.5, 2).

    This base is degenerate: ell depends only on the five marginals, so
    Delta has a 26-dimensional kernel.  An order-scaling job on it (a
    deviation pushed along a lambda grid) lifts that kernel to singular
    values near the rank cut of the Green's operator, and the fitted order-1
    slope misses its band on some seeds (0.71 and 1.47 on seeds 1 and 7
    with deviations drawn per point, 0.85 on seed 203 with product-form
    log-weights only), so the benchmark does not run one here.
    """
    rng = np.random.default_rng(seed)
    m = 5
    side = np.array(list(itertools.product([-1.0, 1.0], repeat=m)))
    points = 2.0 * math.sqrt(2.0) * side[rng.permutation(len(side))]
    weight = float(rng.uniform(0.5, 2.0))
    return {
        "schema_version": 1,
        "measure": {"points": points.tolist(), "weights": [weight] * len(points)},
        "lagrangian": {"name": "quartic_pair", "params": {"dim": m}},
        "nu": "calibrate",
        "expansion": {"order": 1},
    }


def check_wide_support(report) -> tuple:
    problems = _report_problems(report)
    residual = _stage(report, "setup")["residual"]
    if not residual <= 1e-9:
        problems.append(f"set-up residual {residual:.3e} > 1e-9")
    w1 = _stage(report, "expansion")["jet_norms"][0]
    if not w1 <= 1e-6:
        problems.append(f"first-order jet {w1:.3e} at a critical base, want <= 1e-6")
    return problems, []


class WideSupportWorkload(Workload):
    name = "wide-support"

    def __init__(self, seed):
        self.config = wide_support_config(seed)
        self.jobs = [_run_config_job("quartic-5d", self.config, seed, check_wide_support)]

    def setup(self, workdir):
        cli.validate_config(self.config)
        _warm_partials(lagrangian.build_lagrangian("quartic_pair", {"dim": 5}), 2)
        measure.DiscreteMeasure(np.array(self.config["measure"]["points"]),
                                np.array(self.config["measure"]["weights"]))
        jets.TestBasis.full(2, 5)
        _warm_svd(192)


def _volume_problem(what, got, want) -> list:
    if not abs(got - want) <= 1e-12 * abs(want):
        return [f"{what}: volume {got!r} != {want!r}"]
    return []


class MeasureLadderWorkload(Workload):
    """Construction and merging at N in {250, 500}; fragmentation at L = 4.

    The planted collisions are pairs, never chains: point 4k is shifted onto
    point 4k + 1, which stays where it is, so first-come and union-find
    merging give the same answer.  The rungs N = 2000 and 4000 are left out:
    one construction takes 12.5 s and about 50 s there.
    """

    name = "measure-ladder"
    RUNGS = (250, 500)
    FRAG_N, FRAG_L = 250, 4

    def __init__(self, seed):
        # construction and push-forward are separate jobs, short enough for
        # the probes around each to track the host's speed (see run.py); a
        # push starts from a base measure built in set-up
        self.jobs = []
        self.bases = {}
        self.rungs = []
        rng = np.random.default_rng(seed)
        for n in self.RUNGS:
            points = rng.uniform(-1.0, 1.0, (n, 2))
            weights = rng.uniform(0.5, 1.5, n)
            logw = rng.uniform(-0.1, 0.1, n)
            planted = np.arange(0, n - 1, 4)
            shift = np.zeros((n, 2))
            shift[planted] = points[planted + 1] - points[planted]
            self.rungs.append((points, weights))
            self.jobs.append(self._build_job(points, weights))
            self.jobs.append(self._push_job(n, logw, shift, len(planted),
                                            float(np.sum(weights * np.exp(logw)))))
        n, L = self.FRAG_N, self.FRAG_L
        self.frag_points = rng.uniform(-1.0, 1.0, (n, 2))
        f0 = np.array([0.0] + [L / (L - 1)] * (L - 1))  # subsystem 0 is massless
        with np.errstate(divide="ignore"):
            logw = np.log(f0)[:, None] + rng.uniform(-0.1, 0.1, (L, n))
        shifts = rng.uniform(-0.05, 0.05, (L, n, 2))
        planted = np.arange(0, n, 4)
        shifts[2, planted] = shifts[1, planted]  # subsystem 2 lands on 1 there
        self.frag_fields = (logw, shifts, len(planted))
        self.jobs.append(Job(f"fragment-L{L}-N{n}", self._run_fragment,
                             self._check_fragment))

    @staticmethod
    def _build_job(points, weights) -> Job:
        n = len(points)

        def check(mu) -> tuple:
            problems = [] if mu.size == n else [f"constructed {mu.size} points, want {n}"]
            return problems + _volume_problem("construction", mu.total_volume,
                                              float(np.sum(weights))), []

        return Job(f"build-N{n}", lambda _outdir: measure.DiscreteMeasure(points, weights),
                   check)

    def _push_job(self, n, logw, shift, n_planted, want_volume) -> Job:
        def run(_outdir):
            return measure.push_forward(self.bases[n], logw, shift)

        def check(pushed) -> tuple:
            problems = []
            if pushed.size != n - n_planted:
                problems.append(f"push-forward kept {pushed.size} points, "
                                f"want {n - n_planted}")
            problems += _volume_problem("push-forward", pushed.total_volume, want_volume)
            return problems, []

        return Job(f"push-N{n}", run, check)

    def setup(self, workdir):
        for points, weights in self.rungs:
            self.bases[len(points)] = measure.DiscreteMeasure(points, weights)
        self.frag_base = measure.DiscreteMeasure(self.frag_points,
                                                 np.ones(len(self.frag_points)))
        tiny = measure.DiscreteMeasure(self.frag_points[:8], np.ones(8))
        measure.push_forward(tiny, np.zeros(8), np.zeros((8, 2)))
        fragmentation.FragmentedMeasure(tiny, np.zeros((2, 8)),
                                        np.zeros((2, 8, 2))).as_measure()

    def _run_fragment(self, _outdir):
        logw, shifts, _ = self.frag_fields
        frag = fragmentation.FragmentedMeasure(self.frag_base, logw, shifts)
        return frag, frag.as_measure()

    def _check_fragment(self, out) -> tuple:
        frag, merged = out
        _, _, n_planted = self.frag_fields
        L, n = frag.log_weights.shape
        want = (L - 1) * n - n_planted
        problems = []
        if merged.size != want:
            problems.append(f"as_measure kept {merged.size} points, want {want}")
        massive = frag.weights()[1:]
        problems += _volume_problem("as_measure", merged.total_volume,
                                    float(np.sum(massive)))
        massless = frag.positions()[0]
        gaps = np.max(np.abs(merged.points[:, None, :] - massless[None, :, :]), axis=2)
        if np.any(gaps <= measure.TOL_POINT_MERGE):
            problems.append("a point of the massless subsystem was kept")
        return problems, []


WORKLOADS = {cls.name: cls for cls in (ScenariosWorkload, DeepOrdersWorkload,
                                       WideSupportWorkload, MeasureLadderWorkload)}
