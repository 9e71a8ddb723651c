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
also compared number by number with its copy in DIR, and the largest
relative difference |a - b| / max(|a|, |b|) among its numbers is printed
(inf when the two files hold different counts of numbers).
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


def report_bytes(path: Path) -> bytes:
    report = json.loads(path.read_text())
    del report["wall_clock_s"]
    report["files"] = [Path(f).name for f in report["files"]]
    return json.dumps(report, indent=2, sort_keys=True).encode()


def numbers(path: Path) -> list:
    """Every number of a CSV or JSON output in file order (a report as
    ``report_bytes`` reads it); non-numeric cells and values are skipped."""
    if path.suffix == ".csv":
        found = []
        for row in csv.reader(path.read_text().splitlines()):
            for cell in row:
                try:
                    found.append(float(cell))
                except ValueError:
                    pass
        return found

    def walk(value):
        if isinstance(value, dict):
            return [x for v in value.values() for x in walk(v)]
        if isinstance(value, list):
            return [x for v in value for x in walk(v)]
        return [] if isinstance(value, bool) or not isinstance(value, (int, float)) else [value]

    return walk(json.loads(report_bytes(path) if path.name == "report.json"
                           else path.read_text()))


def largest_relative_difference(a: list, b: list) -> float:
    if len(a) != len(b):
        return math.inf
    worst = 0.0
    for x, y in zip(a, b):
        if x != y and not (math.isnan(x) and math.isnan(y)):
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
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
                worst = largest_relative_difference(numbers(args.out / name),
                                                    numbers(args.against / name))
                moved = f"  largest relative difference {worst:.3g}"
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
