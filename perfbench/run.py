"""Benchmark of cvpert jobs, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

One run makes the workload's inputs from the seed, sets up, then runs
passes over the workload's fixed job list (closed loop, one process,
single-threaded Python) until ``--seconds`` have gone by, and checks every
job's outputs.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``wall_s`` -- median time of one pass, set-up excluded, scaled to the
  host's speed (see below);
* ``setup_s`` -- median over three processes of the time from the start of
  this script, after a few speed probes, until the first job can run
  (``import cvpert``, input generation, model builds, lambdify and SVD
  warm-up, base measures), each scaled by the probes just before and after;
* ``peak_rss_mb`` -- peak resident memory of this process.

Scaling: a shared host runs the same pass up to 1.8 times slower in some
minutes than in others.  hostspeed.probe() times two fixed loops before
every job and after the last of a pass; each job's time is multiplied by
hostspeed.scale() of the probes just before and after it, and set-up time
by that of the probes around it, which gives seconds on a host where the
probe takes hostspeed.REF_S.  On a shared 2-core Xeon VM this cut the spread of
wall_s over ten seeds per workload from 0.07-0.15 of the median to 0.02-0.09.
The raw times are in the detail line, and the probes in ``.bench_results/``.

The line before the last (and ``.bench_results/``) holds that detail: the
pass count, raw pass times and per-job median times, ``failed_frac``,
``slope_margin_min`` (see workloads.py) and ``wall_s_tail``: the highest
percentile of scaled pass time that has at least ten samples beyond it, or
the slowest pass when a run has fewer than 11 passes.  These three are not
end-to-end metrics of BENCHMARK.json: failed_frac is 0 when the program is
correct, measure-ladder fits no slope, and the deep, wide and ladder runs
have 4 to 20 passes, too few for a tail percentile.

With ``--trace 1`` the first half of the time runs untraced passes and the
second half traced ones; the metrics are the per-layer ones of spans.py,
per pass (median over the traced passes, not scaled), plus
``trace.overhead_s``, the scaled traced minus the scaled untraced median
pass time.  The spans are written to ``.bench_results/``.

``--all`` runs every workload in its own process and prints a table.

All timing uses time.perf_counter in this process; nothing traces the
machine.  BLAS runs on BLAS_THREADS threads, fixed before numpy loads.
"""

import time

import hostspeed

SETUP_PROBES = 10  # host-speed probes just before and right after set-up
_PRE_PROBES = [hostspeed.probe() for _ in range(SETUP_PROBES)]
_T0 = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("scenarios", "deep-orders", "wide-support", "measure-ladder")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def load_program():
    """Put the checkout's ``src`` first on the path and import the workloads.

    Exits with code 1 when the checkout holds no cvpert sources: the
    benchmark never falls back to an installed copy.
    """
    if not (SRC / "cvpert" / "__init__.py").is_file():
        sys.exit(f"error: no cvpert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import cvpert

    if Path(cvpert.__file__).resolve().parent != (SRC / "cvpert").resolve():
        sys.exit(f"error: imported cvpert from {cvpert.__file__}, not from {SRC}")
    import workloads

    return workloads


def environment() -> dict:
    import numpy
    import scipy
    import sympy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "timer": "time.perf_counter in this process only; no machine-wide tracing",
    }


def set_up(name: str, seed: int, workdir: Path):
    """Everything before the first job.

    Returns (workload, seconds since start, scale from the probes taken
    just before the start and right after set-up).
    """
    workloads = load_program()
    workload = workloads.WORKLOADS[name](seed)
    workload.setup(workdir)
    setup_s = time.perf_counter() - _T0
    post = [hostspeed.probe() for _ in range(SETUP_PROBES)]
    return workload, setup_s, hostspeed.scale(_PRE_PROBES + post)


def run_pass(workload, workdir: Path, tag: str, tracer=None) -> tuple:
    """One pass over the job list.

    Returns (seconds spent in each job, host-speed probes before each job
    and after the last, per-job outcomes).
    """
    job_s, probe_s = [], []
    outcomes = []
    for k, job in enumerate(workload.jobs):
        outdir = workdir / f"{tag}-{k}"
        probe_s.append(hostspeed.probe())
        if tracer is not None:
            tracer.job = f"{tag}/{job.name}"
        t0 = time.perf_counter()
        try:
            out = job.run(outdir)
            error = None
        except Exception as exc:  # a raising job is a failed job
            out, error = None, f"{type(exc).__name__}: {exc}"
        job_s.append(time.perf_counter() - t0)
        if error is None:
            try:
                problems, margins = job.check(out)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problems, margins = [f"unreadable output: {exc!r}"], []
        else:
            problems, margins = [error], []
        outcomes.append({"job": job.name, "problems": problems, "margins": margins})
        shutil.rmtree(outdir, ignore_errors=True)
    probe_s.append(hostspeed.probe())
    if tracer is not None:
        tracer.job = None
    return job_s, probe_s, outcomes


def run_passes(workload, workdir, until: float, tag: str, tracer=None) -> tuple:
    """Passes until ``until`` (perf_counter time); at least one.

    Returns per-pass job times, per-pass probes, outcomes and tracer marks.
    """
    times, probes, outcomes = [], [], []
    marks = [tracer.snapshot()] if tracer is not None else []
    while not times or time.perf_counter() < until:
        t, p, out = run_pass(workload, workdir, f"{tag}{len(times)}", tracer)
        times.append(t)
        probes.append(p)
        outcomes.extend(out)
        if tracer is not None:
            marks.append(tracer.snapshot())
    return times, probes, outcomes, marks


def scaled_passes(times, probes) -> list:
    """Pass times, each job's time scaled by the probes just before and after it."""
    return [sum(t * hostspeed.scale(ps[k:k + 2]) for k, t in enumerate(ts))
            for ts, ps in zip(times, probes)]


def tail(samples: list) -> tuple:
    """(value, percentile): highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = n - 11  # ten samples lie above ordered[k]
    return ordered[k], 100.0 * (k + 1) / n


def remove_workdir(workdir: Path):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # another run still uses it, or it was never made
        pass


def setup_probe_main(name, seed):
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        _workload, setup_s, factor = set_up(name, seed, workdir)
    finally:
        remove_workdir(workdir)
    print(json.dumps({"setup_s": setup_s, "scale": factor}))


def setup_probe(name, seed) -> tuple:
    """(set-up time, scale) measured in a fresh process."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--setup-probe", "--workload", name, "--seed", str(seed)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: set-up probe exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(result["setup_s"]), float(result["scale"])


def summarize(outcomes) -> dict:
    failed = sum(1 for o in outcomes if o["problems"])
    margins = [m for o in outcomes for m in o["margins"]]
    return {"attempted": len(outcomes), "failed": failed,
            "failed_frac": failed / len(outcomes),
            "slope_margin_min": min(margins) if margins else None,
            "problems": sorted({f"{o['job']}: {p}" for o in outcomes
                                for p in o["problems"]})[:20]}


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def bench_main(name, seed, seconds, trace) -> int:
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        workload, own_setup_s, own_scale = set_up(name, seed, workdir)
        start = time.perf_counter()
        if trace:
            from spans import Tracer, unit

            base_times, base_probes, outcomes, _ = run_passes(
                workload, workdir, start + seconds / 2.0, "u")
            with Tracer() as tracer:
                times, probes, traced, marks = run_passes(
                    workload, workdir, start + seconds, "t", tracer)
            outcomes += traced
        else:
            times, probes, outcomes, _ = run_passes(workload, workdir, start + seconds, "p")
    finally:
        remove_workdir(workdir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = summarize(outcomes)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        profiles = [tracer.profile(a, b) for a, b in zip(marks, marks[1:])]
        metrics = {key: metric(statistics.median(p[key] for p in profiles), unit(key))
                   for key in profiles[0]}
        traced_s = statistics.median(scaled_passes(times, probes))
        untraced_s = statistics.median(scaled_passes(base_times, base_probes))
        metrics["trace.overhead_s"] = metric(traced_s - untraced_s, "s")
        tracer.write(RESULTS / f"{stem}-spans.json")
        detail = {"traced_passes": len(times), "untraced_passes": len(base_times),
                  "traced_wall_s": traced_s, "untraced_wall_s": untraced_s}
    else:
        setup_samples = [(own_setup_s, own_scale)] + [setup_probe(name, seed)
                                                      for _ in range(SETUP_SAMPLES - 1)]
        passes = scaled_passes(times, probes)
        tail_s, tail_pct = tail(passes)
        metrics = {"wall_s": metric(statistics.median(passes), "s"),
                   "setup_s": metric(statistics.median(t * f for t, f in setup_samples), "s"),
                   "peak_rss_mb": metric(peak_rss_mb, "MB")}
        flat = [p for ps in probes for p in ps]
        detail = {"passes": len(times), "wall_s_raw": statistics.median(sum(t) for t in times),
                  "pass_s_raw": [sum(t) for t in times],
                  "job_s_raw": {job.name: statistics.median(col)
                                for job, col in zip(workload.jobs, zip(*times))},
                  "probe_s": {"median": statistics.median(flat), "min": min(flat),
                              "max": max(flat), "count": len(flat),
                              "ref_s": hostspeed.REF_S},
                  "wall_s_tail": tail_s, "wall_s_tail_percentile": tail_pct,
                  "setup_s_raw": [t for t, _ in setup_samples],
                  "setup_scale": [f for _, f in setup_samples]}
    detail.update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  failed_frac=summary["failed_frac"],
                  slope_margin_min=summary["slope_margin_min"],
                  problems=summary["problems"], environment=environment())
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({"detail": detail, "metrics": metrics,
                   "pass_job_s_raw": times, "pass_probe_s": probes}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": summary["failed"] == 0,
                      "attempted": summary["attempted"], "failed": summary["failed"],
                      "metrics": metrics}))
    return 0


def all_main(seed, seconds) -> int:
    """Every workload in a fresh process; one table of the end-to-end metrics."""
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S + 10 * seconds)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        rows.append((name, detail, result))
    print(f"{'workload':16}{'wall_s':>10}{'wall_s_tail':>13}{'setup_s':>10}"
          f"{'peak_rss_mb':>13}{'failed_frac':>13}{'slope_margin_min':>18}{'passes':>8}")
    for name, detail, result in rows:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        margin = detail["slope_margin_min"]
        print(f"{name:16}{m['wall_s']:>10.4f}{detail['wall_s_tail']:>13.4f}{m['setup_s']:>10.4f}"
              f"{m['peak_rss_mb']:>13.1f}{detail['failed_frac']:>13.3f}"
              f"{'-' if margin is None else format(margin, '.4f'):>18}{detail['passes']:>8}")
    print("units: wall_s, wall_s_tail, setup_s in s; peak_rss_mb in MB; "
          "failed_frac = failed jobs / attempted jobs; slope_margin_min = "
          "min(slope - (P + 1 - 0.2)), '-' where the workload fits no slope")
    return 0 if all(r["correct"] for _, _, r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return all_main(args.seed, args.seconds)
    if args.workload is None:
        parser.error("need --workload or --all")
    if args.setup_probe:
        setup_probe_main(args.workload, args.seed)
        return 0
    return bench_main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
