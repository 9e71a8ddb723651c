import math
from itertools import product

import numpy as np
import pytest

from cvpert import DiscreteMeasure, Jet, TestBasis, calibrate_nu, cli, expansion, linops
from cvpert.el import residual_norm
from cvpert.errors import ArgError, LedgerMissing, NotLinearized, ShapeError
from cvpert.expansion import (Inhomogeneity, PerturbationSeries, compositions, error_term,
                              expand, expand_inhomogeneous, export_diagrams,
                              family_from_linearized, order_scaling_slope,
                              order_scaling_slopes, reconstruct, residual_slope)
from cvpert.jets import DualJet
from cvpert.lagrangian import build_lagrangian
from cvpert.linops import GreensOperator, assemble_delta, delta_zero_dual, kernel_basis
from cvpert.measure import push_forward


def brute_force_compositions(p, ell):
    return sorted(tup for tup in product(range(1, p + 1), repeat=ell) if sum(tup) == p)


def test_compositions_examples():
    assert compositions(4, 2) == [(1, 3), (2, 2), (3, 1)]
    assert compositions(5, 1) == [(5,)]
    assert len(compositions(8, 4)) == 35
    assert compositions(8, 4) == brute_force_compositions(8, 4)


def test_compositions_counts_vs_binomial():
    for p in range(1, 9):
        for ell in range(1, p + 1):
            comps = compositions(p, ell)
            assert comps == brute_force_compositions(p, ell)
            assert len(comps) == math.comb(p - 1, ell - 1)


def test_compositions_bad_args():
    with pytest.raises(ArgError):
        compositions(3, 4)
    with pytest.raises(ArgError):
        compositions(3, 0)


def test_error_term_first_order_critical(quartic_pair, quartic_base):
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    E1 = error_term(1, [], quartic_base, quartic_pair, nu)
    assert E1.norm() <= 1e-9 * abs(nu)


def test_error_term_ledger_families(example52_reg, rng):
    from cvpert.expansion import DiagramLedger

    mu = DiscreteMeasure(rng.normal(size=(2, 2)) * 0.3, np.ones(2))
    jets = [Jet(rng.normal(size=2), rng.normal(size=(2, 2))) for _ in range(3)]
    ledger = DiagramLedger()
    E2 = error_term(2, jets[:1], mu, example52_reg, 0.1, ledger=ledger)
    assert [(t.ell, t.composition) for t in ledger.terms[2]] == [(2, (1, 1))]
    E4 = error_term(4, jets + [jets[0]], mu, example52_reg, 0.1, ledger=ledger)
    fams = [(t.ell, t.composition) for t in ledger.terms[4]]
    assert fams == [(2, (1, 3)), (2, (2, 2)), (2, (3, 1)),
                    (3, (1, 1, 2)), (3, (1, 2, 1)), (3, (2, 1, 1)),
                    (4, (1, 1, 1, 1))]
    # ledger completeness: the recorded terms sum to E^(p)
    total = ledger.order_sum(4, 2, 2)
    assert np.allclose(total.flatten(), E4.flatten(), atol=1e-12)


def test_expand_critical_start_zero_series(quartic_pair, quartic_base):
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    series = expand(quartic_base, quartic_pair, nu, order=3)
    for jet in series.jets:
        assert jet.norm() <= 1e-9


def test_expand_near_critical_moves_toward_root(quartic_pair, quartic_base):
    # shifted two-point start: w^(1) moves the support back toward the
    # critical configuration, confirmed by a direct nonlinear EL solve
    from scipy.optimize import least_squares

    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    lam = 0.05
    start = push_forward(quartic_base, np.zeros(2),
                         lam * np.array([[0.31], [-0.12]]))
    series = expand(start, quartic_pair, nu, order=1)
    moved = reconstruct(series, 1.0)

    def el_system(z):
        pts = np.array([[z[0]], [z[1]]])
        wts = np.exp(z[2:4])
        mu = DiscreteMeasure(pts, wts)
        from cvpert.el import ell_on_support, grad_ell

        vals = ell_on_support(mu, quartic_pair, nu)
        grads = [grad_ell(mu, quartic_pair, p)[0] for p in mu.points]
        return [vals[0], vals[1], grads[0], grads[1]]

    z0 = [start.points[0, 0], start.points[1, 0], 0.0, 0.0]
    sol = least_squares(el_system, z0, xtol=3e-16, ftol=3e-16, gtol=3e-16)
    root_pts = sol.x[:2]
    for i in range(2):
        gap_before = abs(start.points[i, 0] - root_pts[i])
        gap_after = abs(moved.points[i, 0] - root_pts[i])
        assert gap_after < 0.2 * gap_before
    series3 = expand(start, quartic_pair, nu, order=3)
    final = reconstruct(series3, 1.0)
    assert np.allclose(final.points[:, 0], root_pts, atol=5 * lam ** 4)


def test_order_p_identity(example52_reg, rng):
    # Delta w^(p) = -E^(p) for every order of a generic expansion
    base = DiscreteMeasure(np.array([[0.52353851, 0.7775154], [-0.52353851, 0.7775154]]),
                           np.ones(2))
    nu = 2.0 * np.mean([sum(w * example52_reg(p, q) for q, w in
                            zip(base.points, base.weights)) for p in base.points])
    start = push_forward(base, np.array([0.02, -0.01]), 0.05 * rng.normal(size=(2, 2)))
    series = expand(start, example52_reg, nu, order=3)
    delta = assemble_delta(start, example52_reg, nu)
    for p in range(1, 4):
        E = error_term(p, series.jets[:p - 1], start, example52_reg, nu)
        lhs = delta.apply(series.jets[p - 1]).flatten() + E.flatten()
        assert np.max(np.abs(lhs)) <= 1e-8 * (1.0 + E.norm())


def test_expand_inhomogeneous_zero_reduces_bitwise(quartic_pair, quartic_base):
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    start = push_forward(quartic_base, np.zeros(2), np.array([[0.05], [-0.02]]))
    plain = expand(start, quartic_pair, nu, order=2)
    inhom = expand_inhomogeneous(start, quartic_pair, nu, order=2,
                                 inhom=Inhomogeneity.zero(2, 2, 1))
    for a, b in zip(plain.jets, inhom.jets):
        assert np.array_equal(a.flatten(), b.flatten())


def test_expand_makes_no_delta_product(quartic_pair, quartic_base, monkeypatch):
    # without an inhomogeneity each order is solved from E^(p) alone
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    start = push_forward(quartic_base, np.zeros(2), np.array([[0.05], [-0.02]]))
    want = expand(start, quartic_pair, nu, order=3)
    monkeypatch.setattr(linops.DeltaMatrix, "apply", None)  # a call would fail
    got = expand(start, quartic_pair, nu, order=3)
    for a, b in zip(got.jets, want.jets):
        assert np.array_equal(a.flatten(), b.flatten())


def test_expand_inhomogeneous_kernel_jet_passes_through():
    # translation is an exact symmetry of the pair-distance model, hence a
    # kernel jet; with a critical start it must reappear unchanged as w^(1)
    lag = build_lagrangian("pair_distance")
    base = DiscreteMeasure(np.array([[0.0], [1.0]]), np.ones(2))
    nu = calibrate_nu(base, lag)
    delta = assemble_delta(base, lag, nu)
    translation = Jet(np.zeros(2), np.ones((2, 1)))
    assert delta.apply(translation).norm() <= 1e-12
    series = expand_inhomogeneous(base, lag, nu, order=2,
                                  inhom=Inhomogeneity([translation, Jet.zero(2, 1)]))
    assert np.allclose(series.jets[0].flatten(), translation.flatten(), atol=1e-10)
    assert series.jets[1].norm() <= 1e-10


def test_expand_inhomogeneous_keeps_only_the_kernel_part_of_v():
    # a stretched pair is not critical (E^(1) != 0); v^(1) = translation (in
    # ker Delta) plus a jet off the kernel: only the kernel part is the gauge,
    # and w^(1) still solves Delta w^(1) = -E^(1)
    lag = build_lagrangian("pair_distance")
    base = DiscreteMeasure(np.array([[0.0], [1.2]]), np.ones(2))
    nu = 1.3
    delta = assemble_delta(base, lag, nu)
    kernel = kernel_basis(delta).jets

    def kernel_part(jet):
        return sum((float(jet.flatten() @ k.flatten()) * k for k in kernel), Jet.zero(2, 1))

    raw = Jet(np.array([0.3, -0.8]), np.array([[0.5], [0.2]]))
    off_kernel = raw - kernel_part(raw)
    v = 0.7 * Jet(np.zeros(2), np.ones((2, 1))) + off_kernel
    E = error_term(1, [], base, lag, nu)
    assert E.norm() > 1.0 and off_kernel.norm() > 0.1
    w = expand_inhomogeneous(base, lag, nu, 1, inhom=Inhomogeneity([v])).jets[0]
    gauge = expand_inhomogeneous(base, lag, nu, 1, inhom=Inhomogeneity([kernel_part(v)]))
    assert (w - gauge.jets[0]).norm() <= 1e-12
    assert (delta.apply(w) + E).norm() <= 1e-12 * (1.0 + E.norm())


def _triple():
    return DiscreteMeasure(np.array([[0.0], [0.9], [2.1]]), np.ones(3))


def _pair():
    return DiscreteMeasure(np.array([[0.0], [1.0]]), np.ones(2))


def _scalar_basis(n, m):
    return TestBasis([Jet(np.eye(n)[k], np.zeros((n, m))) for k in range(n)])


@pytest.mark.parametrize("call", [
    pytest.param(lambda lag: residual_norm(_triple(), lag, 0.0, _scalar_basis(2, 1)),
                 id="residual-norm-size"),
    pytest.param(lambda lag: residual_norm(_triple(), lag, 0.0, _scalar_basis(3, 2)),
                 id="residual-norm-dimension-zero-vectors"),
    pytest.param(lambda lag: assemble_delta(_triple(), lag, 0.0, testbasis=TestBasis(
        [Jet(np.ones(2), np.ones((2, 1)))])), id="assemble-delta-size"),
    pytest.param(lambda lag: expand_inhomogeneous(_pair(), lag, 1.0, 1, inhom=Inhomogeneity(
        [Jet.zero(3, 1)])), id="inhomogeneity-size"),
    pytest.param(lambda lag: expand_inhomogeneous(_pair(), lag, 1.0, 2, inhom=Inhomogeneity(
        [Jet.zero(2, 1), Jet.zero(2, 2)])), id="inhomogeneity-dimension"),
    pytest.param(lambda lag: family_from_linearized(Jet.zero(3, 1), _pair(), lag,
                                                    calibrate_nu(_pair(), lag), 2),
                 id="family-w1-size"),
    pytest.param(lambda lag: family_from_linearized(Jet.zero(2, 2), _pair(), lag,
                                                    calibrate_nu(_pair(), lag), 2),
                 id="family-w1-dimension"),
])
def test_jets_off_the_support_raise_shape_error(call):
    with pytest.raises(ShapeError):
        call(build_lagrangian("pair_distance"))


# (points, dimension) of a jet off the 2-point 1-D support; a 1-point 3-D
# jet flattens to 4 entries, as a jet on that support does
@pytest.mark.parametrize("n,m", [(3, 1), (2, 2), (1, 3)],
                         ids=["size", "dimension", "same-flat-length"])
@pytest.mark.parametrize("call", [
    pytest.param(lambda delta, n, m: delta.apply(Jet(np.ones(n), np.ones((n, m)))),
                 id="delta-apply"),
    pytest.param(lambda delta, n, m: GreensOperator(delta).apply(
        DualJet(np.ones(n), np.ones((n, m)))), id="greens-apply"),
    pytest.param(lambda delta, n, m: reconstruct(PerturbationSeries(
        _pair(), delta.nu, [Jet(np.ones(n), np.ones((n, m)))]), 0.1), id="reconstruct"),
])
def test_misfit_jets_on_a_delta_or_series_raise_shape_error(call, n, m):
    lag = build_lagrangian("pair_distance")
    delta = assemble_delta(_pair(), lag, calibrate_nu(_pair(), lag))
    with pytest.raises(ShapeError):
        call(delta, n, m)


def test_gauge_covariance_of_reconstructed_residual():
    # adding a kernel jet to w^(1) changes the series but not the residual
    # scaling of the reconstructed measures (both stay exactly critical here)
    lag = build_lagrangian("pair_distance")
    base = DiscreteMeasure(np.array([[0.0], [1.0]]), np.ones(2))
    nu = calibrate_nu(base, lag)
    translation = Jet(np.zeros(2), np.ones((2, 1)))
    grid = np.geomspace(1e-3, 1e-1, 5)
    plain = expand(base, lag, nu, order=2)
    gauged = expand_inhomogeneous(base, lag, nu, order=2, inhom=Inhomogeneity([translation]))
    assert (gauged.jets[0] - plain.jets[0]).norm() == pytest.approx(1.0)
    s_plain, _ = residual_slope(plain, lag, nu, grid)
    s_gauged, _ = residual_slope(gauged, lag, nu, grid)
    assert s_plain == s_gauged == math.inf


def test_family_from_linearized_zero_jet(quartic_pair, quartic_base):
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    series = family_from_linearized(Jet.zero(2, 1), quartic_base, quartic_pair, nu, order=3)
    for jet in series.jets:
        assert jet.norm() <= 1e-12


def test_family_from_linearized_rejects_non_kernel(quartic_pair, quartic_base):
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    w1 = Jet(np.zeros(2), np.array([[1.0], [0.0]]))
    with pytest.raises(NotLinearized):
        family_from_linearized(w1, quartic_base, quartic_pair, nu, order=2)


def test_family_from_linearized_example52_kernel_direction(example52, dirac_origin_2d):
    # kernel pattern (a, u1, 0) of the origin Dirac: the tau-family keeps the
    # weak EL residual at second order in the tested directions
    delta = assemble_delta(dirac_origin_2d, example52, 0.0)
    kb = kernel_basis(delta)
    w1 = Jet(np.array([0.4]), np.array([[0.8, 0.0]]))
    series = family_from_linearized(w1, dirac_origin_2d, example52, 0.0, order=2)
    taus = np.geomspace(1e-3, 1e-2, 4)
    tested = TestBasis([Jet(np.array([1.0]), np.zeros((1, 2))),
                        Jet(np.zeros(1), np.array([[1.0, 0.0]]))])
    vals = []
    for tau in taus:
        rho = reconstruct(series, tau)
        tb = TestBasis([Jet(j.scalar, j.vector) for j in tested.jets])
        vals.append(residual_norm(rho, example52, 0.0, tb))
    if max(vals) > 1e-14:
        slopes = np.diff(np.log(vals)) / np.diff(np.log(taus))
        assert np.all(slopes >= 2.0 - 1e-6)


def test_reconstruct_identity_at_zero(quartic_pair, quartic_base):
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    series = expand(quartic_base, quartic_pair, nu, order=2)
    out = reconstruct(series, 0.0)
    assert out is series.base


def test_reconstruct_pure_shift_matches_push_forward(quartic_base):
    shift = Jet(np.zeros(2), np.array([[0.3], [-0.2]]))
    series_like = expand.__wrapped__ if hasattr(expand, "__wrapped__") else None
    from cvpert.expansion import PerturbationSeries

    series = PerturbationSeries(quartic_base, 0.0, [shift])
    out = reconstruct(series, 1.0)
    ref = push_forward(quartic_base, np.zeros(2), shift.vector)
    assert np.allclose(out.points, ref.points)
    assert np.allclose(out.weights, ref.weights)


def test_reconstruct_example52_single_copy():
    from cvpert.expansion import PerturbationSeries

    base = DiscreteMeasure(np.zeros((1, 2)), np.ones(1))
    w = 1.0 / np.sqrt(2.0)
    series = PerturbationSeries(base, 0.0, [Jet(np.zeros(1), np.array([[w, 1.0]]))])
    out = reconstruct(series, 0.1)
    assert np.allclose(out.points, [[0.0707107, 0.1]], atol=1e-6)


def test_residual_slope_sentinel_on_critical(example52, dirac_origin_2d):
    # exactly critical base with identically zero series: all residuals sit
    # below the degeneracy floor, the fit returns the +inf sentinel
    series = expand(dirac_origin_2d, example52, 0.0, order=2)
    assert all(j.norm() == 0.0 for j in series.jets)
    slope, _ = residual_slope(series, example52, 0.0, np.geomspace(1e-3, 1e-1, 5))
    assert slope == math.inf


def test_synthetic_cubic_slope():
    from cvpert.fitting import loglog_slope

    lam = np.geomspace(1e-3, 1e-1, 6)
    slope, _ = loglog_slope(lam, lam ** 3)
    assert slope == pytest.approx(3.0, abs=0.01)


@pytest.mark.parametrize("order", [1, 2])
def test_order_scaling_quartic(order, quartic_pair, quartic_base):
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    deviation = Jet(np.array([0.21, -0.13]), np.array([[0.31], [-0.12]]))
    slope, rows = order_scaling_slope(quartic_base, quartic_pair, nu, deviation,
                                      order, np.geomspace(1e-2, 1e-1, 4))
    assert slope >= order + 1 - 0.2


def test_export_diagrams_structure(example52_reg, rng):
    mu = DiscreteMeasure(rng.normal(size=(2, 2)) * 0.3, np.ones(2))
    series = expand(mu, example52_reg, 0.0, order=3)
    doc = export_diagrams(series)
    assert doc["tree_diagrams_only"] is True
    orders = {node["p"]: node for node in doc["orders"]}
    assert orders[1]["source"] == "Delta_0"
    assert len(orders[2]["children"]) == 1
    assert len(orders[3]["children"]) == 3

    empty = expand(mu, example52_reg, 0.0, order=0)
    assert export_diagrams(empty)["orders"] == []


def test_export_diagrams_requires_ledger(example52_reg, rng):
    mu = DiscreteMeasure(rng.normal(size=(2, 2)) * 0.3, np.ones(2))
    series = expand(mu, example52_reg, 0.0, order=2, keep_ledger=False)
    with pytest.raises(LedgerMissing):
        export_diagrams(series)


def test_series_json_round_trip(quartic_pair, quartic_base):
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    start = push_forward(quartic_base, np.zeros(2), np.array([[0.04], [-0.03]]))
    series = expand(start, quartic_pair, nu, order=2)
    from cvpert.expansion import PerturbationSeries

    back = PerturbationSeries.from_json(series.to_json())
    assert back.order == series.order
    for a, b in zip(back.jets, series.jets):
        assert np.allclose(a.flatten(), b.flatten())


def test_residual_slope_finite_case(quartic_pair, quartic_base):
    # a bare first-order shift that is not a linearized solution leaves a
    # residual growing linearly in lambda
    from cvpert.expansion import PerturbationSeries

    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    series = PerturbationSeries(quartic_base, nu,
                                [Jet(np.zeros(2), np.array([[0.4], [0.1]]))])
    slope, _ = residual_slope(series, quartic_pair, nu, np.geomspace(1e-3, 1e-2, 5))
    assert slope == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("convention", ["standard", "breve"])
def test_convention_equivalence_order_scaling(convention, quartic_pair, quartic_base):
    # both conventions produce series whose corrected measures satisfy the
    # order property; jet-level equality is not asserted
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    deviation = Jet(np.array([0.21, -0.13]), np.array([[0.31], [-0.12]]))
    slope, _ = order_scaling_slope(quartic_base, quartic_pair, nu, deviation,
                                   2, np.geomspace(1e-2, 1e-1, 4),
                                   convention=convention)
    assert slope >= 3.0 - 0.2


def test_permissive_mode_logs_range_defects(example52, dirac_origin_2d):
    # example52's weak-EL dual jet vanishes identically on a one-point
    # measure (L and d_x L are zero on the diagonal), so every right-hand
    # side is zero and the one logged defect is 0.0
    v1 = Jet(np.zeros(1), np.array([[0.0, 1.0]]))
    series = expand_inhomogeneous(dirac_origin_2d, example52, 0.0, 1,
                                  inhom=Inhomogeneity([v1]))
    assert len(series.range_defects) == 1


def test_permissive_mode_projects_out_of_range_part(example52_reg, dirac_origin_2d):
    # the regularized model's x^6 terms make E^(5) = (0, (0, 6)) u_1^5 along
    # the inhomogeneity, all of it outside range(Delta) = {0}: permissive
    # mode records the whole defect at order 5 and projects it away
    v1 = Jet(np.zeros(1), np.array([[0.0, 1.0]]))
    series = expand_inhomogeneous(dirac_origin_2d, example52_reg, 0.0, 5,
                                  inhom=Inhomogeneity([v1]))
    assert series.range_defects == pytest.approx([0.0, 0.0, 0.0, 0.0, 1.0], abs=1e-12)
    assert series.jets[4].norm() == 0.0


def test_strict_mode_names_failing_order(example52_reg, dirac_origin_2d):
    # Delta vanishes at the origin Dirac; along the inhomogeneity the x^6
    # terms of the regularized model give the first nonzero error term,
    # gradient (0, 6) u_1^5, at order 5, all of it outside range(Delta)
    from cvpert.errors import OutOfRange

    v1 = Jet(np.zeros(1), np.array([[0.0, 1.0]]))
    with pytest.raises(OutOfRange) as info:
        expand_inhomogeneous(dirac_origin_2d, example52_reg, 0.0, 5,
                             inhom=Inhomogeneity([v1]), strict=True)
    assert info.value.order == 5
    assert info.value.residual == pytest.approx(1.0)
    assert "order 5" in str(info.value)
    with pytest.raises(OutOfRange) as info:
        family_from_linearized(v1, dirac_origin_2d, example52_reg, 0.0, 5, strict=True)
    assert info.value.order == 5


def test_family_records_range_defects(example52_reg, dirac_origin_2d):
    # the same case as the permissive inhomogeneous expansion above: E^(5) lies
    # wholly outside range(Delta) = {0}, and the family must say so
    u = Jet(np.zeros(1), np.array([[0.0, 1.0]]))
    family = family_from_linearized(u, dirac_origin_2d, example52_reg, 0.0, 5)
    assert family.range_defects == pytest.approx([0.0, 0.0, 0.0, 0.0, 1.0], abs=1e-12)
    assert family.range_defects[0] == 0.0  # the prescribed first order
    assert family.jets[4].norm() == 0.0


def scenario_slopes_call(name, out, monkeypatch):
    """Arguments of the one order_scaling_slopes call of a builtin scenario."""
    calls = []
    inner = expansion.order_scaling_slopes
    monkeypatch.setattr(expansion, "order_scaling_slopes",
                        lambda *args: calls.append(args) or inner(*args))
    cli.run_config({"schema_version": 1, "scenario": name}, seed=101, out=str(out))
    monkeypatch.undo()
    (call,) = calls
    return call


@pytest.mark.parametrize("name", ["example52-expansion", "quartic-pair-expansion"])
def test_slopes_of_all_orders_equal_one_order_calls(name, tmp_path, monkeypatch):
    base, lag, nu, deviation, orders, grid = scenario_slopes_call(name, tmp_path, monkeypatch)
    assert list(orders) == [1, 2]
    fits = order_scaling_slopes(base, lag, nu, deviation, [1, 2], grid)
    assert sorted(fits) == [1, 2]
    for p in (1, 2):
        slope, rows = order_scaling_slope(base, lag, nu, deviation, p, grid)
        # oracle: an order-p expansion from scratch at every start
        ref = []
        for lam in grid:
            start = push_forward(base, lam * deviation.scalar, lam * deviation.vector)
            corrected = reconstruct(expand(start, lag, nu, p, keep_ledger=False), 1.0)
            ref.append((float(lam), delta_zero_dual(corrected, lag, nu).norm()))
        assert np.array_equal(fits[p][1], rows)
        assert np.array_equal(rows, ref)
        assert np.array_equal(fits[p][0], slope)
    assert order_scaling_slopes(base, lag, nu, deviation, [], grid) == {}


def per_start_rows(base, lag, nu, deviation, p, grid, convention="standard"):
    """The order-p residual rows of a study, one expansion from scratch per start."""
    rows = []
    for lam in grid:
        start = push_forward(base, lam * deviation.scalar, lam * deviation.vector)
        series = expand(start, lag, nu, p, convention=convention, keep_ledger=False)
        rows.append((float(lam), delta_zero_dual(reconstruct(series, 1.0), lag, nu).norm()))
    return rows


def record_stacks(monkeypatch):
    """(the (G, N) weight shape of every expanded stack, the name of every
    factorization call), as the calls come."""
    shapes, calls = [], []
    inner = expansion.expand_inhomogeneous
    monkeypatch.setattr(expansion, "expand_inhomogeneous",
                        lambda mu, *a, **k: shapes.append(mu.weights.shape) or inner(mu, *a, **k))
    for name in ("eigh", "svd"):
        routine = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _n=name, _f=routine, **k: calls.append(_n) or _f(*a, **k))
    return shapes, calls


def test_a_merged_start_is_expanded_in_its_own_stack(quartic_pair, monkeypatch):
    # at lambda = 0.04 point 0 lands exactly on point 1 and merges with it, so
    # the 3-point starts and the 2-point one form two stacks, each decomposed
    # in one call
    base = DiscreteMeasure(np.array([[0.0], [0.04], [-1.0]]), np.array([1.0, 0.5, 2.0]))
    deviation = Jet(np.array([0.3, -0.2, 0.1]), np.array([[1.0], [0.0], [0.0]]))
    grid = [0.01, 0.02, 0.04]
    shapes, calls = record_stacks(monkeypatch)
    fits = order_scaling_slopes(base, quartic_pair, 0.3, deviation, [1, 2], grid)
    monkeypatch.undo()
    assert shapes == [(2, 3), (1, 2)]
    assert calls == ["eigh", "eigh"]
    assert push_forward(base, 0.04 * deviation.scalar, 0.04 * deviation.vector).size == 2
    for p in (1, 2):
        assert np.array_equal(fits[p][1],
                              per_start_rows(base, quartic_pair, 0.3, deviation, p, grid))


def test_breve_study_matches_per_start_expansions(quartic_pair, quartic_base, monkeypatch):
    # breve Delta is not symmetric: the whole stack takes one SVD
    nu = calibrate_nu(quartic_base, quartic_pair)
    deviation = Jet(np.array([0.2, -0.1]), np.array([[0.3], [-0.1]]))
    grid = [0.02, 0.04, 0.08]
    shapes, calls = record_stacks(monkeypatch)
    fits = order_scaling_slopes(quartic_base, quartic_pair, nu, deviation, [1, 2, 3], grid,
                                convention="breve")
    monkeypatch.undo()
    assert shapes == [(3, 2)]
    assert calls == ["svd"]
    for p in (1, 2, 3):
        assert np.array_equal(fits[p][1], per_start_rows(quartic_base, quartic_pair, nu,
                                                         deviation, p, grid, "breve"))


def test_black_box_study_matches_per_start_expansions(example52_reg):
    # a duck-typed model takes the Taylor lift of its partial tables, read
    # start by start
    base = DiscreteMeasure(np.array([[0.52353851, 0.7775154], [-0.52353851, 0.7775154]]),
                           np.ones(2))
    deviation = Jet(np.array([0.1, -0.2]), np.array([[0.3, 0.1], [-0.2, 0.2]]))
    box = CountingPartials(example52_reg)
    grid = [0.02, 0.04, 0.08]
    fits = order_scaling_slopes(base, box, 0.3, deviation, [1, 2], grid)
    assert box.calls > 0
    for p in (1, 2):
        assert np.array_equal(fits[p][1], per_start_rows(base, box, 0.3, deviation, p, grid))


def test_truncated_series_is_the_lower_order_expansion(example52_reg, rng):
    start = DiscreteMeasure(rng.normal(size=(3, 2)) * 0.4, rng.uniform(0.5, 1.5, 3))
    full = expand(start, example52_reg, 0.3, order=3)
    for p in range(4):
        cut, low = full.truncated(p), expand(start, example52_reg, 0.3, order=p)
        assert cut.order == p and len(cut.jets) == p
        assert cut.range_defects == low.range_defects
        for a, b in zip(cut.jets, low.jets):
            assert np.array_equal(a.flatten(), b.flatten())
        assert cut.ledger.to_json() == low.ledger.to_json()
    with pytest.raises(ArgError):
        full.truncated(4)
    with pytest.raises(ArgError):
        order_scaling_slopes(start, example52_reg, 0.3, Jet.zero(3, 2), [-1], [0.1])


class CountingPartials:
    """Duck-typed black box of a model that counts its partial calls."""

    def __init__(self, lag):
        self._lag = lag
        self.name, self.dim, self.max_order = lag.name, lag.dim, lag.max_order
        self.calls = 0
        self.reads = set()

    def __call__(self, x, y):
        return self._lag(x, y)

    def partial(self, x, y, alpha, beta):
        self.calls += 1
        self.reads.add((tuple(x), tuple(y), tuple(alpha), tuple(beta)))
        return self._lag.partial(x, y, alpha, beta)


def test_black_box_series_reads_each_partial_once(example52_reg):
    # the support's partial tables serve Delta, Delta_0, every E^(p) of the
    # expansion and its ledger: at most the 812 distinct reads at N = 2,
    # order 5, and none for the ledger (1728 and 1684 calls with one reader
    # per order)
    rng = np.random.default_rng(11)
    base = DiscreteMeasure(np.array([[0.52353851, 0.7775154], [-0.52353851, 0.7775154]]),
                           np.ones(2))
    start = push_forward(base, 0.05 * rng.normal(size=2), 0.05 * rng.normal(size=(2, 2)))
    box = CountingPartials(example52_reg)
    series = expand(start, box, 0.3, order=5)
    assert 0 < box.calls == len(box.reads) <= 812
    box.calls, box.reads = 0, set()
    ledger = series.ledger
    assert box.calls == 0
    assert sorted(ledger.terms) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("lam", [1.0, 0.3, -0.07])
def test_partial_sums_are_the_running_sums_of_the_weighted_jets(rng, lam):
    # reference: sum_{p <= P} lam^p w^(p), accumulated one order at a time
    base = DiscreteMeasure(rng.normal(size=(3, 2)), rng.uniform(0.5, 1.5, 3))
    jets = [Jet(rng.normal(size=3), rng.normal(size=(3, 2))) for _ in range(4)]
    series = PerturbationSeries(base, 0.0, jets)
    log_w, shift = series.partial_sums(lam)
    assert log_w.shape == (5, 3) and shift.shape == (5, 3, 2)
    want_w, want_x = np.zeros(3), np.zeros((3, 2))
    assert np.array_equal(log_w[0], want_w) and np.array_equal(shift[0], want_x)
    for p, jet in enumerate(jets, start=1):
        want_w = want_w + lam ** p * jet.scalar
        want_x = want_x + lam ** p * jet.vector
        assert np.array_equal(log_w[p], want_w) and np.array_equal(shift[p], want_x)
    got = reconstruct(series, lam)
    want = push_forward(base, want_w, want_x)
    assert np.array_equal(got.points, want.points) and np.array_equal(got.weights, want.weights)
