"""SHA-256 digests of every file the six builtin scenarios write.

Usage: python tools/builtin_digests.py SEED OUT

Runs each builtin scenario of ``cvpert.scenarios.REGISTRY`` through
``cli.run_config`` at ``SEED`` into ``OUT/<scenario>`` and prints one line
``<sha256>  <scenario>/<file>`` per written file, ``report.json`` last.
The report is hashed without ``wall_clock_s`` and with ``files`` reduced to
basenames, so two checkouts run into different directories print the same
lines exactly when their outputs agree.  Diff the output of two checkouts
to compare them.
"""

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


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    seed, out = int(argv[0]), Path(argv[1])
    for name in sorted(scenarios.REGISTRY):
        outdir = out / name
        report, _ = cli.run_config({"schema_version": 1, "scenario": name},
                                   seed=seed, out=str(outdir))
        for path in [Path(f) for f in report["files"]] + [outdir / "report.json"]:
            data = report_bytes(path) if path.name == "report.json" else path.read_bytes()
            print(f"{hashlib.sha256(data).hexdigest()}  {name}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
