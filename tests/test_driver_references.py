"""The expansion drivers against the loops they replaced, bit for bit.

``family_from_linearized`` runs the order recursion of
``expand_inhomogeneous`` from the jets [w1], and ``fragment_expand`` takes
its step-acceptance test inline in the sweep.  Each reference below is the
former loop, kept as written, and the drivers must match it exactly.
"""

import numpy as np
import pytest

from cvpert import linops
from cvpert.el import calibrate_nu
from cvpert.expansion import error_term, family_from_linearized
from cvpert.fragmentation import (MultiJet, _q_scaling, _sector_projectors, apply_increment,
                                  example52_scenario, fragment_expand, fragment_measure,
                                  fragmented_jacobian, fragmented_residual, wellposedness_check)
from cvpert.jets import Jet
from cvpert.lagrangian import build_lagrangian
from cvpert.measure import DiscreteMeasure


def reference_family(w1, measure, lagrangian, nu, order):
    """The family's own loop: w^(p) = S E^(p) from w^(2) on."""
    greens = linops.GreensOperator(linops.assemble_delta(measure, lagrangian, nu))
    jets, defects = [w1], [0.0]
    for p in range(2, order + 1):
        E = error_term(p, jets, measure, lagrangian, nu)
        w, defect = greens.apply(E)
        jets.append(w)
        defects.append(defect)
    return jets, defects


def family_cases():
    """(w1, measure, lagrangian, nu): a kernel jet of a critical pair, whose
    higher jets are rounding noise, and a Dirac whose E^(3), E^(4) leave
    range(Delta)."""
    pair = DiscreteMeasure(np.array([[0.0], [1.0]]), np.ones(2))
    lag = build_lagrangian("pair_distance")
    nu = calibrate_nu(pair, lag)
    (kernel,) = linops.kernel_basis(linops.assemble_delta(pair, lag, nu)).jets
    dirac = DiscreteMeasure(np.zeros((1, 2)), np.ones(1))
    w1 = Jet(np.array([1.0]), np.array([[0.3, 0.7]]))
    return [(kernel, pair, lag, nu), (w1, dirac, build_lagrangian("example52_regularized"), 0.0)]


@pytest.mark.parametrize("case", [0, 1], ids=["pair-kernel", "dirac-out-of-range"])
def test_family_matches_its_former_loop(case):
    w1, measure, lagrangian, nu = family_cases()[case]
    family = family_from_linearized(w1, measure, lagrangian, nu, 4)
    jets, defects = reference_family(w1, measure, lagrangian, nu, 4)
    assert family.order == len(jets) == 4
    for got, want in zip(family.jets, jets):
        assert np.array_equal(got.flatten(), want.flatten())
    assert np.array_equal(family.range_defects, defects)
    assert any(j.norm() > 0.0 for j in jets[1:]) or any(d > 0.0 for d in defects)


def reference_sweep(scenario, order, lam):
    """The sweep with its former ``damped`` closure: (increments, history)."""
    L = scenario.n_subsystems
    measure, lagrangian, nu = scenario.measure, scenario.lagrangian, scenario.nu
    assert wellposedness_check(scenario).verdict == "well-posed"
    m = measure.dimension
    mean_P, compl_P, linf_P = _sector_projectors(measure, lagrangian, L)
    linf_q = linf_P * _q_scaling(measure, L, lam, scenario.ansatz.q)[:, None]
    frag = fragment_measure(measure, scenario.ansatz, lam)

    def sector_norms(res_vec):
        sup = lambda P: float(np.max(np.abs(P.T @ res_vec))) if P.size else 0.0
        return {"mean": sup(mean_P), "complement": sup(compl_P), "lin_f": sup(linf_q)}

    def damped(frag_in, res_in, step_vec, sector):
        own = lambda r: np.linalg.norm(sector.T @ r) if sector.size else 0.0
        mj = MultiJet.unflatten(step_vec, L, m)
        cand = apply_increment(frag_in, mj)
        res = fragmented_residual(cand, lagrangian, nu)
        if own(res) < 0.5 * own(res_in) and np.linalg.norm(res) <= 2.0 * np.linalg.norm(res_in):
            return cand, res, mj
        return frag_in, res_in, None

    increments = []
    residual = fragmented_residual(frag, lagrangian, nu)
    history = [sector_norms(residual)]
    for _ in range(2, order + 1):
        A = linf_P.T @ fragmented_jacobian(frag, lagrangian) @ linf_P
        step = -linf_P @ np.linalg.lstsq(A, linf_P.T @ residual, rcond=1e-12)[0]
        frag, residual, taken = damped(frag, residual, step, linf_P)
        if taken is not None:
            increments.append(taken)
        history.append(sector_norms(residual))
    return increments, history


@pytest.mark.parametrize("lam", [None, 0.02, 0.1], ids=["default", "0.02", "0.1"])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_sweep_matches_its_former_damped_loop(order, lam):
    scen = example52_scenario(regularized=True)
    out = fragment_expand(scen, order, lam)
    increments, history = reference_sweep(scen, order, out.lam)
    assert len(out.increments) == len(increments)
    for got, want in zip(out.increments, increments):
        assert np.array_equal(got.flatten(), want.flatten())
    assert out.sector_residuals == history


@pytest.mark.parametrize("lam, taken", [(None, 3), (0.02, 2)], ids=["default", "0.02"])
def test_sweep_takes_and_refuses_steps(lam, taken):
    # the grid above runs both branches of the acceptance test
    out = fragment_expand(example52_scenario(regularized=True), 5, lam)
    assert len(out.increments) == taken
