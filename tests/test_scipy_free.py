"""scipy is a test dependency only and jsonschema no dependency: the builtin
scenarios import neither, and the closed-form base root agrees with scipy's
brentq."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvpert
from cvpert.scenarios import regularized_two_point_base

ROOT = Path(__file__).resolve().parents[1]


def cubic_residual(t):
    return t * (1 + 0.375 * t * t) - 1.0 / math.sqrt(3.0)


def test_regularized_base_root_matches_brentq():
    from scipy.optimize import brentq

    want = brentq(cubic_residual, 0.1, 1.0, xtol=1e-15, rtol=8.9e-16)
    base = regularized_two_point_base()
    t = float(base.points[0, 0])
    assert abs(t - want) <= 2 * np.spacing(want)
    assert abs(cubic_residual(t)) <= abs(cubic_residual(want))
    assert base.points[1, 0] == -t
    assert base.points[0, 1] == base.points[1, 1] == math.sqrt(2 * t * t + 0.75 * t ** 4)


def test_builtin_scenarios_load_no_scipy(tmp_path):
    code = ("import sys; from cvpert.cli import run_config; from cvpert import scenarios\n"
            "for name, _ in scenarios.list_scenarios():\n"
            "    report, code = run_config({'schema_version': 1, 'scenario': name}, seed=101,\n"
            f"                              out={str(tmp_path)!r} + '/' + name)\n"
            "    assert code == 0, report\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('scipy', 'jsonschema')))")
    src = str(Path(cvpert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_runtime_dependencies_exclude_scipy_and_sympy():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {req.split(">")[0].split("=")[0].split("<")[0].strip().lower()
                for req in requirements}

    runtime = names(project["dependencies"])
    assert not runtime & {"scipy", "sympy", "jsonschema"}
    assert {"scipy", "sympy"} <= names(project["optional-dependencies"]["test"])
