"""Bad input raises a typed CvpError, never a bare numpy error, an
AttributeError or a silent value.

One row per bad input: the entry point, the input and the error class it
must raise.  Every row runs with warnings turned into errors, so a call
that computes on the bad input first (numpy's RuntimeWarning on a NaN)
fails its row too.  No row draws random numbers.
"""

import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from cvpert import errors
from cvpert.cfs import (CfsChart, CfsParams, causal_action, causal_lagrangian,
                        local_correlation, reference_point, spectral_weights,
                        spin_map_from_point, swap_symmetric_pair, validate_cfs_point)
from cvpert.el import calibrate_nu, ell, ell_field, ell_on_support, grad_ell, integrate_partial
from cvpert.errors import (ArgError, CvpError, DegenerateFit, InconclusiveFit, NotCritical,
                           NumericalFailure, OrderUnsupported, ShapeError, UnknownModel)
from cvpert.expansion import (LedgerTerm, PerturbationSeries, compositions, error_term, expand,
                              expand_inhomogeneous, family_from_linearized,
                              order_scaling_slopes, reconstruct)
from cvpert.fitting import loglog_slope, strict_loglog_slope
from cvpert.fragmentation import (FluctuationForm, FragmentationAnsatz, FragmentedMeasure,
                                  Scenario, example52_scenario, fragment_measure,
                                  perturbed_laplacian_linF, wellposedness_check)
from cvpert.jets import DualJet, Jet, MultiJet, TestBasis, pairing
from cvpert.lagrangian import NumericLagrangian, build_lagrangian, pair_series, pair_table
from cvpert.linops import (DeltaMatrix, GreensOperator, assemble_delta, delta_ell,
                           delta_ell_dual, delta_zero_dual, kernel_basis, taylor_error_dual)
from cvpert.measure import DiscreteMeasure, SupportStack, push_forward
from cvpert.mixing import (MixingSystem, SubgroupSample, minimize_mixing, mixed_kernel,
                           orbit_sample_from_generators)

PLANE = build_lagrangian("example52_regularized")  # a 2-D model
LINE = build_lagrangian("quartic_pair")  # a 1-D model
PAIR = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.5]]), np.ones(2))
PAIR_1D = DiscreteMeasure(np.array([[0.0], [1.0]]), np.ones(2))
PAIR_3D = DiscreteMeasure(np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.2]]), np.ones(2))
THREE = np.array([[0.0, 0.0], [1.0, 0.5], [0.3, -0.4]])
CFS = CfsParams(2, 1, 1.0)
FLAT = Jet(np.zeros(1), np.array([[0.0, 1.0]]))  # the example52 mean jet
NUMERIC = NumericLagrangian("first-order", 2, lambda x, y: float(x @ y), max_order=1)


def pair_distance_delta():
    """Delta of the 2-point ``pair_distance`` measure, on 1-D jets."""
    lag = build_lagrangian("pair_distance")
    return assemble_delta(PAIR_1D, lag, 2.0)


def study(orders, grid, deviation=Jet.zero(2, 1)):
    """An order-scaling study of the 2-point 1-D measure."""
    return order_scaling_slopes(PAIR_1D, LINE, 0.0, deviation, orders, grid)


def delta_stack():
    """A stack of two 1-D Deltas on two points."""
    return DeltaMatrix(np.stack([np.eye(4), 2 * np.eye(4)]), 0.0, np.ones((2, 2)))


def series_document(order):
    """An order-2 series written to JSON, with its "order" set to ``order``."""
    doc = PerturbationSeries(PAIR, 0.0, [Jet.zero(2, 2), Jet.zero(2, 2)]).to_json()
    return {**doc, "order": order}


def ansatz(f0=(1.0, 1.0), p=1.0, q=1.0, **fluct):
    """An example52 ansatz on the one-point support with the given data."""
    return FragmentationAnsatz(np.array(f0), p, q, FLAT, **fluct)


def subsystem_direction(n_subsystems):
    """An ``n_subsystems``-subsystem direction on the one-point example52 support."""
    return MultiJet([Jet(np.zeros(1), np.array([[1.0, 0.0]]))] * n_subsystems)


ROWS = [
    # jets and dual jets: one implementation with one set of checks
    ("DualJet/nan", lambda: DualJet([np.nan, 0.0], [[0.0], [0.0]]), ShapeError),
    ("DualJet/inf", lambda: DualJet([0.0, 0.0], [[np.inf], [0.0]]), ShapeError),
    ("DualJet*inf", lambda: DualJet(np.ones(2), np.ones((2, 1))) * np.inf, ShapeError),
    ("GreensOperator.apply/strict-inf",
     lambda: GreensOperator(pair_distance_delta(), strict=True).apply(
         DualJet([np.inf, 0.0], [[0.0], [0.0]])), ShapeError),
    ("Jet+Jet/size", lambda: Jet.zero(1, 2) + Jet(np.ones(2), np.ones((2, 2))), ShapeError),
    ("Jet-Jet/dimension", lambda: Jet.zero(2, 1) - Jet.zero(2, 2), ShapeError),
    ("DualJet+DualJet/size", lambda: DualJet.zero(1, 1) + DualJet.zero(2, 1), ShapeError),
    ("Jet+DualJet", lambda: Jet.zero(2, 1) + DualJet.zero(2, 1), ShapeError),
    ("DualJet+Jet", lambda: DualJet.zero(2, 1) + Jet.zero(2, 1), ShapeError),
    ("MultiJet+MultiJet/subsystems", lambda: subsystem_direction(2) + subsystem_direction(3),
     ShapeError),
    # counts the data fix
    ("PerturbationSeries.from_json/order", lambda: PerturbationSeries.from_json(
        series_document(5)), ShapeError),
    ("PerturbationSeries.from_json/order-text", lambda: PerturbationSeries.from_json(
        series_document("3")), ShapeError),
    ("family_from_linearized/order-0", lambda: family_from_linearized(
        Jet.zero(2, 1), PAIR_1D, build_lagrangian("pair_distance"),
        calibrate_nu(PAIR_1D, build_lagrangian("pair_distance")), 0), ArgError),
    ("DeltaMatrix/side", lambda: DeltaMatrix(np.eye(5), 0.0, np.ones(2)), ShapeError),
    ("DeltaMatrix/one-slot", lambda: DeltaMatrix(np.eye(2), 0.0, np.ones(2)), ShapeError),
    ("DeltaMatrix/not-square", lambda: DeltaMatrix(np.ones((4, 6)), 0.0, np.ones(2)),
     ShapeError),
    # points of another dimension than the model's
    ("pair_table/dimension", lambda: pair_table(PLANE, [[0.5]], [[0.1, 0.2]], (1, 0), (0, 0)),
     ShapeError),
    ("pair_table/multi-index", lambda: pair_table(PLANE, THREE, THREE, (1,), (0, 0)),
     ShapeError),
    ("pair_series/dimension", lambda: pair_series(PLANE, np.zeros((2, 1, 3)),
                                                  np.zeros((2, 1, 3)), (0, 0), (0, 0)),
     ShapeError),
    ("grad_ell/short-point", lambda: grad_ell(PAIR, PLANE, [0.1]), ShapeError),
    ("ell/long-point", lambda: ell(PAIR, PLANE, 0.0, [0.1, 0.2, 0.3]), ShapeError),
    ("delta_zero_dual/1-D-measure", lambda: delta_zero_dual(PAIR_1D, PLANE, 0.0),
     ShapeError),
    ("assemble_delta/1-D-measure", lambda: assemble_delta(PAIR_1D, PLANE, 0.0), ShapeError),
    ("ell_on_support/1-D-measure", lambda: ell_on_support(PAIR_1D, PLANE, 0.0), ShapeError),
    ("expand/3-D-measure", lambda: expand(PAIR_3D, LINE, 0.0, 2), ShapeError),
    ("taylor_error_dual/3-D-measure",
     lambda: taylor_error_dual(2, [Jet.zero(2, 3)], PAIR_3D, LINE, 0.0), ShapeError),
    ("delta_ell_dual/3-D-measure",
     lambda: delta_ell_dual(1, [Jet(np.ones(2), np.ones((2, 3)))], PAIR_3D, LINE, 0.0),
     ShapeError),
    # weights of another length than the support
    ("integrate_partial/weights",
     lambda: integrate_partial(PLANE, THREE[:1], THREE, np.ones(2), (0, 0)), ShapeError),
    ("ell_field/weights", lambda: ell_field(
        PLANE, 0.0, np.ones(4), lambda a, b: pair_table(PLANE, THREE, THREE, a, b)),
     ShapeError),
    # fragmented directions
    ("perturbed_laplacian_linF/subsystems", lambda: perturbed_laplacian_linF(
        example52_scenario().measure, example52_scenario().lagrangian,
        example52_scenario().ansatz, 0.05, directions=[subsystem_direction(3)]), ShapeError),
    ("perturbed_laplacian_linF/points", lambda: perturbed_laplacian_linF(
        example52_scenario().measure, example52_scenario().lagrangian,
        example52_scenario().ansatz, 0.05,
        directions=[MultiJet([Jet.zero(2, 2)] * 2)]), ShapeError),
    # fragmentation data: finite, non-negative couplings, an ansatz that fits
    ("FragmentationAnsatz/nan-f0", lambda: ansatz(f0=(np.nan, 1.0)), ShapeError),
    ("FragmentationAnsatz/inf-q", lambda: ansatz(q=np.inf), ShapeError),
    ("FragmentationAnsatz/inf-p", lambda: ansatz(p=np.inf), ShapeError),
    ("fragment_measure/negative-lambda", lambda: fragment_measure(
        example52_scenario().measure, ansatz(q=1.5), -0.05), ArgError),
    ("fragment_measure/nan-lambda", lambda: fragment_measure(
        example52_scenario().measure, ansatz(), np.nan), ArgError),
    ("Scenario/ansatz-not-an-ansatz", lambda: Scenario(
        "s", PAIR, PLANE, 0.0, 2, example52_scenario().ansatz), ArgError),
    ("Scenario/ansatz-off-support", lambda: Scenario(
        "s", PAIR, PLANE, 0.0, example52_scenario().ansatz), ShapeError),
    # readers of one Delta or one measure, given a stack of starts
    ("GreensOperator.health/stack", lambda: GreensOperator(delta_stack()).health(), ShapeError),
    ("DeltaMatrix.singular_value_report/stack",
     lambda: delta_stack().singular_value_report(), ShapeError),
    ("DeltaMatrix.singular_values_csv/stack",
     lambda: delta_stack().singular_values_csv(os.devnull), ShapeError),
    ("DeltaMatrix.to_json/stack", lambda: delta_stack().to_json(), ShapeError),
    ("kernel_basis/stack", lambda: kernel_basis(delta_stack()), ShapeError),
    ("family_from_linearized/stack", lambda: family_from_linearized(
        Jet.zero(2, 1), SupportStack(np.stack([PAIR_1D.points] * 2), np.ones((2, 2))),
        build_lagrangian("pair_distance"),
        calibrate_nu(PAIR_1D, build_lagrangian("pair_distance")), 2), ShapeError),
    # overflow in the causal fermion system's chart and pair evaluation
    ("local_correlation/overflow",
     lambda: local_correlation(np.diag([1e200, 1e200]), CFS), NumericalFailure),
    ("CfsChart/overflow", lambda: CfsChart(CfsParams(2, 1, 1e308), spin_map_from_point(
        reference_point(CfsParams(2, 1, 1e308)), 1)), NumericalFailure),
    ("spectral_weights/overflow", lambda: spectral_weights(  # |xy|^2 = 1e400
        np.diag([1e200, -1.0]), np.diag([-1.0, 1e200]), 1), NumericalFailure),
    ("causal_lagrangian/overflow", lambda: causal_lagrangian(  # |xy| fits, (2 |xy|)^2 does not
        np.diag([8e153, -1.0]), np.diag([-1.0, 8e153]), CfsParams(2, 1, 1.0, 1.0)),
     NumericalFailure),
    ("causal_action/overflow", lambda: causal_action(
        [np.diag([8e153, -1.0]), np.diag([-1.0, 8e153])], [1.0, 1.0], CFS), NumericalFailure),
    ("swap_symmetric_pair/zero-b", lambda: swap_symmetric_pair(CFS, b=0.0), ShapeError),
    # one row per remaining typed raise
    ("validate_cfs_point/shape", lambda: validate_cfs_point(np.eye(3), CFS), ShapeError),
    ("validate_cfs_point/not-self-adjoint",
     lambda: validate_cfs_point(np.array([[1.0, 1.0], [0.0, -1.0]]), CFS), ShapeError),
    ("validate_cfs_point/trace", lambda: validate_cfs_point(np.diag([3.0, -1.0]), CFS),
     ShapeError),
    ("local_correlation/shape", lambda: local_correlation(np.ones((3, 2)), CFS), ShapeError),
    ("swap_symmetric_pair/f", lambda: swap_symmetric_pair(CfsParams(4, 1, 1.0)), ShapeError),
    ("error_term/order-0", lambda: error_term(0, [], PAIR, PLANE, 0.0), ArgError),
    ("error_term/too-few-jets", lambda: error_term(3, [Jet.zero(2, 2)], PAIR, PLANE, 0.0),
     ArgError),
    ("family_from_linearized/not-critical",
     lambda: family_from_linearized(Jet.zero(2, 2), PAIR, PLANE, 0.0, 2), NotCritical),
    ("order_scaling_slopes/one-lambda", lambda: study([1], [0.01]), ArgError),
    ("order_scaling_slopes/zero-lambda", lambda: study([1], [0.0, 0.01]), ArgError),
    ("order_scaling_slopes/nan-lambda", lambda: study([1], [np.nan, 0.01, 0.02]), ArgError),
    ("order_scaling_slopes/2-D-grid", lambda: study([1], [[0.01, 0.02]]), ArgError),
    ("order_scaling_slopes/fractional-order", lambda: study([2.5], [0.01, 0.02]), ArgError),
    ("order_scaling_slopes/bool-order", lambda: study([True], [0.01, 0.02]), ArgError),
    ("order_scaling_slopes/deviation-shape",
     lambda: study([1], [0.01, 0.02], Jet.zero(3, 1)), ShapeError),
    ("reconstruct/nan-lambda",
     lambda: reconstruct(PerturbationSeries(PAIR, 0.0, [Jet.zero(2, 2)]), np.nan), ArgError),
    ("reconstruct/text-lambda",
     lambda: reconstruct(PerturbationSeries(PAIR, 0.0, [Jet.zero(2, 2)]), "0.1"), ArgError),
    # orders: integers, never a float or a bool, and none below the least
    ("expand/negative-order", lambda: expand(PAIR, PLANE, 0.0, -1), ArgError),
    ("expand/bool-order", lambda: expand(PAIR, PLANE, 0.0, True), ArgError),
    ("expand/float-order", lambda: expand(PAIR, PLANE, 0.0, 2.0), ArgError),
    ("expand_inhomogeneous/fractional-order",
     lambda: expand_inhomogeneous(PAIR, PLANE, 0.0, 2.5), ArgError),
    ("family_from_linearized/fractional-order", lambda: family_from_linearized(
        Jet.zero(2, 1), PAIR_1D, build_lagrangian("pair_distance"),
        calibrate_nu(PAIR_1D, build_lagrangian("pair_distance")), 2.5), ArgError),
    ("PerturbationSeries.truncated/fractional-order",
     lambda: PerturbationSeries(PAIR, 0.0, [Jet.zero(2, 2)] * 2).truncated(1.5), ArgError),
    ("compositions/float-p", lambda: compositions(3.0, 2), ArgError),
    ("delta_ell/jet-count", lambda: delta_ell(2, [Jet.zero(2, 2)], PAIR, PLANE, 0.0),
     ShapeError),
    ("delta_ell/order-0", lambda: delta_ell(0, [], PAIR, PLANE, 0.0), ShapeError),
    ("assemble_delta/first-order-model", lambda: assemble_delta(PAIR, NUMERIC, 0.0),
     OrderUnsupported),
    ("DiscreteMeasure/no-coordinates", lambda: DiscreteMeasure(np.zeros((2, 0)), np.ones(2)),
     ShapeError),
    ("push_forward/shapes", lambda: push_forward(PAIR, np.zeros(3), np.zeros((2, 2))),
     ShapeError),
    ("Jet/unequal-parts", lambda: Jet(np.zeros(2), np.zeros((3, 1))), ShapeError),
    ("pairing/shapes", lambda: pairing(DualJet.zero(2, 1), Jet.zero(2, 2)), ShapeError),
    ("TestBasis/empty", lambda: TestBasis([]), ShapeError),
    ("TestBasis/dependent", lambda: TestBasis([Jet(np.ones(2), np.zeros((2, 1)))] * 2),
     ShapeError),
    ("TestBasis/full-zero-scalar", lambda: TestBasis(
        [Jet(np.array([1.0, 0.0]), np.zeros((2, 1)))], full_space=True), ShapeError),
    ("MultiJet/empty", lambda: MultiJet([]), ShapeError),
    ("FragmentationAnsatz/negative-f0", lambda: ansatz(f0=(-1.0, 3.0)), ShapeError),
    ("FragmentationAnsatz/fluct-shape",
     lambda: ansatz(compl_fluct=MultiJet([Jet.zero(2, 2)] * 2)), ShapeError),
    ("FragmentationAnsatz/fluct-mean",
     lambda: ansatz(linf_fluct=subsystem_direction(2)), ShapeError),
    ("FragmentedMeasure/shapes",
     lambda: FragmentedMeasure(PAIR, np.zeros((2, 2)), np.zeros((2, 3, 2))), ShapeError),
    ("FluctuationForm.form/subsystems", lambda: FluctuationForm(np.zeros((1, 2, 2))).form(
        subsystem_direction(2), subsystem_direction(3)), ShapeError),
    ("wellposedness_check/short-grid",
     lambda: wellposedness_check(example52_scenario(lam_grid=[0.05, 0.1])), ShapeError),
    ("wellposedness_check/repeated-lambda",
     lambda: wellposedness_check(example52_scenario(lam_grid=[0.1] * 4)), DegenerateFit),
    ("loglog_slope/repeated-x", lambda: loglog_slope([0.05] * 3, [1.0, 2.0, 3.0]),
     DegenerateFit),
    ("loglog_slope/repeated-kept-x",
     lambda: loglog_slope([0.05, 0.05, 0.1], [1.0, 2.0, 0.0]), DegenerateFit),
    ("strict_loglog_slope/repeated-x",
     lambda: strict_loglog_slope([0.1] * 4, [1.0, 2.0, 3.0, 4.0]), DegenerateFit),
    ("CfsChart/empty-basis", lambda: CfsChart(
        CFS, spin_map_from_point(reference_point(CFS), 1), basis=[]), ShapeError),
    ("wellposedness_check/inconclusive-fit", lambda: wellposedness_check(example52_scenario(
        regularized=True, lam_grid=np.geomspace(0.05, 2.0, 6))), InconclusiveFit),
    ("build_lagrangian/unknown-name", lambda: build_lagrangian("nosuch"), UnknownModel),
    ("pair_series/numeric-model", lambda: pair_series(NUMERIC, np.zeros((2, 2, 2)),
                                                      np.zeros((2, 2, 2)), (0, 0), (0, 0)),
     ArgError),
    ("SubgroupSample/shapes", lambda: SubgroupSample([np.zeros((2, 2)), np.zeros((3, 3))]),
     ShapeError),
    ("mixed_kernel/no-wave-evaluation",
     lambda: mixed_kernel(MixingSystem([np.eye(2)]), 0, 0, 0, 0), ShapeError),
    ("minimize_mixing/no-generators", lambda: minimize_mixing(2, SubgroupSample([])),
     ShapeError),
    ("SubgroupSample.sample/negative-count",
     lambda: SubgroupSample([np.diag([1j, -1j])]).sample(np.random.default_rng(0), -1), ArgError),
    ("SubgroupSample.sample/fractional-count",
     lambda: SubgroupSample([np.diag([1j, -1j])]).sample(np.random.default_rng(0), 2.5), ArgError),
    ("orbit_sample_from_generators/negative-count",
     lambda: orbit_sample_from_generators([np.diag([1j, -1j])], np.random.default_rng(0), -3),
     ArgError),
]


@pytest.mark.parametrize("call,error", [pytest.param(call, error, id=name)
                                        for name, call, error in ROWS])
def test_bad_input_raises_typed_error(call, error):
    assert issubclass(error, CvpError)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()


def test_every_typed_raise_is_tested():
    # each CvpError class that src/ raises has a row above or a
    # pytest.raises somewhere under tests/
    src = "".join(path.read_text() for path in Path(errors.__file__).parent.glob("*.py"))
    raised = {name for name in re.findall(r"raise (\w+)\(", src)
              if isinstance(getattr(errors, name, None), type)
              and issubclass(getattr(errors, name), CvpError)}
    tests = "".join(path.read_text() for path in Path(__file__).parent.rglob("*.py"))
    in_rows = {error.__name__ for _, _, error in ROWS}
    untested = {name for name in raised - in_rows
                if not re.search(rf"pytest\.raises\((\w+\.)?{name}\b", tests)}
    assert raised and not untested, sorted(untested)


def test_shape_error_is_a_value_error():
    assert issubclass(ShapeError, ValueError)


def test_counts_are_read_from_the_data():
    # each count is derived, so it is no constructor argument and cannot
    # disagree with the jets, ansatz, matrix or composition it counts
    series = PerturbationSeries(PAIR, 0.0, [Jet.zero(2, 2)] * 3)
    assert series.order == 3 and series.truncated(1).order == 1
    assert series.to_json()["order"] == 3
    scenario = example52_scenario()
    assert scenario.n_subsystems == scenario.ansatz.n_subsystems == 2
    delta = pair_distance_delta()
    assert delta.dim == 1 and DeltaMatrix(np.eye(6), 0.0, np.ones(2)).dim == 2
    assert LedgerTerm(3, (1, 2), DualJet.zero(2, 1)).ell == 2
    with pytest.raises(TypeError):
        PerturbationSeries(PAIR, 0.0, [Jet.zero(2, 2)], order=1)
    with pytest.raises(TypeError):
        Scenario("s", scenario.measure, scenario.lagrangian, 0.0, scenario.ansatz,
                 n_subsystems=2)
    with pytest.raises(TypeError):
        DeltaMatrix(np.eye(4), 0.0, np.ones(2), dim=1)
    with pytest.raises(TypeError):
        LedgerTerm(3, (1, 2), DualJet.zero(2, 1), ell=2)
