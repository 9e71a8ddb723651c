"""A lambda grid without two distinct values fixes no log-log slope: every
grid reader raises the fit's DegenerateFit before it assembles anything.
``residual_slope`` raises it for a lambda <= 0 too, before any
reconstruction, and ``fragment_expand_study`` raises ArgError for a lambda
<= 0 or a grid that is not 1-D before any sweep."""

import numpy as np
import pytest

from cvpert import expansion, fragmentation
from cvpert.errors import ArgError, DegenerateFit
from cvpert.expansion import PerturbationSeries, order_scaling_slopes, residual_slope
from cvpert.fragmentation import (FragmentationAnsatz, Scenario, example52_scenario,
                                  fragment_expand_study, wellposedness_check)
from cvpert.jets import Jet
from cvpert.lagrangian import build_lagrangian
from cvpert.measure import DiscreteMeasure

PAIR_1D = DiscreteMeasure(np.array([[0.0], [1.0]]), np.ones(2))
LINE = build_lagrangian("quartic_pair")
MESSAGE = "log-log fit needs two distinct x values"
GRIDS = pytest.mark.parametrize("grid", [[0.05, 0.05], [0.1] * 4], ids=["two", "four"])


def refuse(*args, **kwargs):
    raise AssertionError("assembled before the grid was checked")


@GRIDS
def test_order_scaling_slopes_rejects_repeated_lambda_first(monkeypatch, grid):
    for name in ("SupportStack", "expand", "push_forward"):
        monkeypatch.setattr(expansion, name, refuse)
    monkeypatch.setattr(expansion.linops, "delta_zero_dual", refuse)
    with pytest.raises(DegenerateFit, match=MESSAGE):
        order_scaling_slopes(PAIR_1D, LINE, 0.0, Jet.zero(2, 1), [1, 2], grid)
    with pytest.raises(DegenerateFit, match=MESSAGE):
        order_scaling_slopes(PAIR_1D, LINE, 0.0, Jet.zero(2, 1), [], grid)


@GRIDS
def test_residual_slope_rejects_repeated_lambda_first(monkeypatch, grid):
    series = PerturbationSeries(PAIR_1D, 0.0, [Jet.zero(2, 1)])
    monkeypatch.setattr(expansion, "reconstruct", refuse)
    monkeypatch.setattr(expansion.linops, "delta_zero_dual", refuse)
    with pytest.raises(DegenerateFit, match=MESSAGE):
        residual_slope(series, LINE, 0.0, grid)


@pytest.mark.parametrize("grid", [[0.0, 0.1, 0.2], [0.1, -0.1]], ids=["zero", "negative"])
def test_residual_slope_rejects_non_positive_lambda_first(monkeypatch, grid):
    series = PerturbationSeries(PAIR_1D, 0.0, [Jet.zero(2, 1)])
    monkeypatch.setattr(expansion, "reconstruct", refuse)
    monkeypatch.setattr(expansion.linops, "delta_zero_dual", refuse)
    with pytest.raises(DegenerateFit, match="finite numbers > 0"):
        residual_slope(series, LINE, 0.0, grid)


@pytest.mark.parametrize("grid", [[0.1] * 4, [0.05] * 6], ids=["four", "six"])
def test_wellposedness_rejects_repeated_lambda_first(monkeypatch, grid):
    scen = example52_scenario(lam_grid=grid)
    for name in ("lin_fluct_columns", "fragment_measure", "_weak_el"):
        monkeypatch.setattr(fragmentation, name, refuse)
    monkeypatch.setattr(fragmentation.linops, "_pointwise_blocks", refuse)
    with pytest.raises(DegenerateFit, match=MESSAGE):
        wellposedness_check(scen)


@pytest.mark.parametrize("grid, error, message", [
    ([0.0, 0.05, 0.1], ArgError, "finite numbers > 0"),
    ([0.1, -0.1, 0.2], ArgError, "finite numbers > 0"),
    ([[0.1, 0.2]], ArgError, "finite numbers > 0"),
    ([0.05] * 3, DegenerateFit, MESSAGE),
], ids=["zero", "negative", "2-D", "repeated"])
def test_fragment_expand_study_rejects_a_bad_grid_first(monkeypatch, quartic_pair, quartic_base,
                                                        grid, error, message):
    # one subsystem: no well-posedness check reads the grid first
    mean = Jet(np.array([0.1, -0.1]), np.array([[0.2], [0.1]]))
    scen = Scenario("one", quartic_base, quartic_pair, 0.0,
                    FragmentationAnsatz(np.array([1.0]), 1.0, 1.0, mean), grid)
    monkeypatch.setattr(fragmentation, "fragment_expand", refuse)
    with pytest.raises(error, match=message):
        fragment_expand_study(scen, 1)


def test_two_distinct_lambdas_still_fit():
    # repeats beside a second value fix a slope: no early rejection
    table = order_scaling_slopes(PAIR_1D, LINE, 0.0, Jet.zero(2, 1), [1],
                                 [0.05, 0.05, 0.1])[1][1]
    assert [lam for lam, _ in table] == [0.05, 0.05, 0.1]
