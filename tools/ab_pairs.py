"""Alternating pairs of one benchmark workload in two source checkouts.

Usage: python tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W
                                [--pairs 10] [--seconds 5] [--seed 101]

Each pair runs ``perfbench/run.py --workload W --seed SEED --seconds S
--trace 0`` once from the root of PARENT_DIR, then once from the root of
CHANGE_DIR, each in its own process; the order alternates, so host drift
falls on both sides alike.  Only the last line of each run's standard
output, the JSON result, is read.  Prints each pair's ``wall_s``,
``setup_s`` and ``peak_rss_mb`` on both sides, then per metric the median
of each side, the change's relative move, in how many pairs the change was
lower, and the parent's spread, the distance between the quartiles of its
runs, with whether the gap between the medians exceeds it: a gain or a
regression is told from noise only when it does.  The exit status is 1 when
a run fails or reports failed jobs.  Nothing in either checkout is written
but what perfbench itself writes.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metric values of one benchmark run in the checkout ``root``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failed"]:
        raise SystemExit(f"{root}: {result['failed']} of {result['attempted']} jobs failed")
    return {name: result["metrics"][name]["value"] for name in METRICS}


def summary(pairs) -> dict:
    """{metric: (parent median, change median, pairs the change won)} of
    pairs (parent, change) of metric dicts; a win is a lower value."""
    return {name: (statistics.median(a[name] for a, _ in pairs),
                   statistics.median(b[name] for _, b in pairs),
                   sum(b[name] < a[name] for a, b in pairs))
            for name in METRICS}


def spread(pairs) -> dict:
    """{metric: the distance between the quartiles of the parent's values}
    of pairs (parent, change) of metric dicts, at least two pairs."""
    quartiles = {name: statistics.quantiles([a[name] for a, _ in pairs], n=4,
                                            method="inclusive")
                 for name in METRICS}
    return {name: q3 - q1 for name, (q1, _, q3) in quartiles.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=101)
    args = parser.parse_args(argv)
    pairs = []
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s per run; parent -> change")
    for k in range(args.pairs):
        sides = (args.parent, args.change) if k % 2 == 0 else (args.change, args.parent)
        first, second = [run(root, args.workload, args.seed, args.seconds) for root in sides]
        a, b = (first, second) if k % 2 == 0 else (second, first)
        pairs.append((a, b))
        print(f"pair {k + 1}: " + "  ".join(f"{name} {a[name]:.6g} -> {b[name]:.6g}"
                                            for name in METRICS))
    spreads = spread(pairs)
    for name, (a, b, won) in summary(pairs).items():
        exceeds = "exceeds" if abs(b - a) > spreads[name] else "within"
        print(f"median {name}: {a:.6g} -> {b:.6g} ({(b - a) / a:+.1%}), "
              f"change lower in {won} of {len(pairs)} pairs, "
              f"gap {exceeds} the parent's spread {spreads[name]:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
