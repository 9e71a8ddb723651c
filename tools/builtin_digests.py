"""SHA-256 digests of every file the six builtin scenarios write.

Usage: python tools/builtin_digests.py SEED OUT [--check FILE]

Runs each builtin scenario of ``cvpert.scenarios.REGISTRY`` through
``cli.run_config`` at ``SEED`` into ``OUT/<scenario>`` and prints one line
``<sha256>  <scenario>/<file>`` per written file, ``report.json`` last.
The report is hashed without ``wall_clock_s`` and with ``files`` reduced to
basenames, so two checkouts run into different directories print the same
lines exactly when their outputs agree.

With ``--check FILE``, a list printed by an earlier run, the fresh digests
are compared with it instead of printed: each file whose digest differs, or
that only one side lists, is printed, and the exit status is 1 on any
difference, 0 when every file matches.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cvpert import cli, scenarios  # noqa: E402


def report_bytes(path: Path) -> bytes:
    report = json.loads(path.read_text())
    del report["wall_clock_s"]
    report["files"] = [Path(f).name for f in report["files"]]
    return json.dumps(report, indent=2, sort_keys=True).encode()


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
            print(f"differs: {name}")
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
