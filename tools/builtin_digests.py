"""SHA-256 digests of every file the six builtin scenarios write.

Usage: python tools/builtin_digests.py SEED OUT [--check FILE [--against DIR]]

Runs each builtin scenario of ``cvpert.scenarios.REGISTRY`` through
``cli.run_config`` at ``SEED`` into ``OUT/<scenario>`` and prints one line
``<sha256>  <scenario>/<file>`` per written file, ``report.json`` last.
The report is hashed without ``wall_clock_s`` and with ``files`` reduced to
basenames, so two checkouts run into different directories print the same
lines exactly when their outputs agree.

With ``--check FILE``, a list printed by an earlier run, the fresh digests
are compared with it instead of printed: each file whose digest differs, or
that only one side lists, is printed, and the exit status is 1 on any
difference, 0 when every file matches.  With ``--against DIR``, the OUT
directory of the run that printed FILE, each differing CSV or JSON file is
also compared number by number with its copy in DIR.  The largest relative
difference |a - b| / max(|a|, |b|, FLOOR) among its numbers is printed with
its place: the row and column of a CSV cell, the key path of a JSON value.
Below FLOOR in magnitude a number's move counts absolutely, so a move to or
from exactly 0 reads as its size, not as 1.  A move to or from a non-finite
number, or two files with different counts of numbers, read inf.
"""

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cvpert import cli, scenarios  # noqa: E402

FLOOR = 1e-12  # magnitude below which a number's move counts absolutely


def report_bytes(path: Path) -> bytes:
    report = json.loads(path.read_text())
    del report["wall_clock_s"]
    report["files"] = [Path(f).name for f in report["files"]]
    return json.dumps(report, indent=2, sort_keys=True).encode()


def numbers(path: Path) -> list:
    """(place, number) for every number of a CSV or JSON output in file
    order (a report as ``report_bytes`` reads it): "row R column C" of a
    CSV cell, counted from 0 with the header, or the dotted key path of a
    JSON value; non-numeric cells and values are skipped."""
    if path.suffix == ".csv":
        found = []
        for r, row in enumerate(csv.reader(path.read_text().splitlines())):
            for c, cell in enumerate(row):
                try:
                    found.append((f"row {r} column {c}", float(cell)))
                except ValueError:
                    pass
        return found

    def walk(value, place):
        if isinstance(value, (dict, list)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            return [x for k, v in items for x in walk(v, f"{place}.{k}" if place else str(k))]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return []
        return [(place, value)]

    return walk(json.loads(report_bytes(path) if path.name == "report.json"
                           else path.read_text()), "")


def largest_move(a: list, b: list) -> tuple:
    """(largest relative difference, its place) between two ``numbers``
    lists: |x - y| / max(|x|, |y|, FLOOR), inf for a move to or from a
    non-finite number; (inf, "number count") when the counts differ and
    (0.0, "") when nothing moved."""
    if len(a) != len(b):
        return math.inf, "number count"
    worst = (0.0, "")
    for (place, x), (_, y) in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if math.isfinite(x) and math.isfinite(y):
            move = abs(x - y) / max(abs(x), abs(y), FLOOR)
        else:
            move = math.inf
        worst = max(worst, (move, place), key=lambda w: w[0])
    return worst


def digests(seed: int, out: Path) -> dict:
    """{"<scenario>/<file>": sha256} in the order the lines are printed."""
    found = {}
    for name in sorted(scenarios.REGISTRY):
        outdir = out / name
        report, _ = cli.run_config({"schema_version": 1, "scenario": name},
                                   seed=seed, out=str(outdir))
        for path in [Path(f) for f in report["files"]] + [outdir / "report.json"]:
            data = report_bytes(path) if path.name == "report.json" else path.read_bytes()
            found[f"{name}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return found


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("seed", type=int)
    parser.add_argument("out", type=Path)
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="compare with a saved list; exit 1 on any difference")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="with --check: the OUT directory of the saved list's run; "
                             "print how far each differing CSV or JSON file moved")
    args = parser.parse_args(argv)
    fresh = digests(args.seed, args.out)
    if args.check is None:
        for name, digest in fresh.items():
            print(f"{digest}  {name}")
        return 0
    saved = {name: digest for digest, name in
             (line.split() for line in args.check.read_text().splitlines() if line.strip())}
    differ = 0
    for name in sorted(set(saved) | set(fresh)):
        if name not in fresh:
            print(f"missing: {name}")
        elif name not in saved:
            print(f"new: {name}")
        elif saved[name] != fresh[name]:
            moved = ""
            if args.against is not None and Path(name).suffix in (".csv", ".json"):
                worst, place = largest_move(numbers(args.out / name),
                                            numbers(args.against / name))
                moved = f"  largest relative difference {worst:.3g} at {place}"
            print(f"differs: {name}{moved}")
        else:
            continue
        differ += 1
    if differ:
        print(f"{differ} of {len(set(saved) | set(fresh))} files differ from {args.check}")
        return 1
    print(f"all {len(fresh)} files match {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
