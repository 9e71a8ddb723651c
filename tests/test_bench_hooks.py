"""The benchmark tracer (perfbench/spans.py) patches cvpert names by path;
running it here makes a renamed or deleted traced name fail the suite."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from cvpert import DiscreteMeasure, build_lagrangian, lagrangian
from cvpert.expansion import expand

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_attributes(spans):
    """(owner, attribute) of every name the tracer wraps."""
    targets = list(spans.SPANS.values())
    targets += [t for group in spans.CALL_COUNTERS.values() for t in group]
    for module_name, path in targets:
        owner = importlib.import_module(f"cvpert.{module_name}")
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        yield owner, attr


def test_tracer_records_error_terms_and_restores_originals():
    spans = load_spans()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in traced_attributes(spans)]
    sympy_module = lagrangian.sp
    lag = build_lagrangian("example52_regularized")
    mu = DiscreteMeasure(np.array([[0.5, 0.8], [-0.55, 0.75]]), np.array([1.0, 1.2]))
    with spans.Tracer() as tracer:
        series = expand(mu, lag, 0.3, order=2, keep_ledger=False)
    assert len(series.jets) == 2
    names = [span[0] for span in tracer.spans]
    assert names.count("expansion.error_term") == 2
    assert names.count("expansion.expand_inhomogeneous") == 1
    for owner, attr, raw in originals:
        assert vars(owner)[attr] is raw, f"{attr} not restored"
    assert lagrangian.sp is sympy_module
