import math
from dataclasses import replace

import numpy as np
import pytest

from cvpert import DiscreteMeasure, Jet, MultiJet, calibrate_nu
from cvpert.errors import NotWellPosed, NumericalFailure, ShapeError
from cvpert.fragmentation import (FragmentationAnsatz, FragmentedMeasure, Scenario,
                                  assemble_delta_F,
                                  example52_scenario, fragment_expand,
                                  fragment_expand_study, fragment_measure,
                                  fragmented_jacobian, lin_fluct_basis,
                                  perturbed_laplacian_linF, split_mean_fluct,
                                  wellposedness_check, _sector_projectors)
from cvpert.linops import assemble_delta


W0 = 1.0 / math.sqrt(2.0)


def example_directions():
    """The (a, u1) parameterization of the worked example's neutral space:
    subsystem pattern u_1 = -u_2."""
    scal = MultiJet([Jet(np.array([1.0]), np.zeros((1, 2))),
                     Jet(np.array([-1.0]), np.zeros((1, 2)))])
    vec = MultiJet([Jet(np.zeros(1), np.array([[1.0, 0.0]])),
                    Jet(np.zeros(1), np.array([[-1.0, 0.0]]))])
    return [scal, vec]


def test_split_mean_fluct_antisymmetric(rng):
    u = Jet(rng.normal(size=2), rng.normal(size=(2, 1)))
    mj = MultiJet([u, u * -1.0])
    mean, fluct = split_mean_fluct(mj)
    assert mean.norm() <= 1e-15
    for a, b in zip(fluct.jets, mj.jets):
        assert np.allclose(a.flatten(), b.flatten())


def test_split_mean_fluct_equal_subsystems(rng):
    u = Jet(rng.normal(size=3), rng.normal(size=(3, 2)))
    mj = MultiJet([u, u, u])
    mean, fluct = split_mean_fluct(mj)
    assert np.allclose(mean.flatten(), u.flatten())
    assert fluct.norm() <= 1e-15


def test_split_mean_fluct_reassembly(rng):
    mj = MultiJet([Jet(rng.normal(size=2), rng.normal(size=(2, 2))) for _ in range(3)])
    mean, fluct = split_mean_fluct(mj)
    for a in range(3):
        recon = mean + fluct.jets[a]
        assert np.max(np.abs(recon.flatten() - mj.jets[a].flatten())) <= 1e-14
    col = sum(j.flatten() for j in fluct.jets)
    assert np.max(np.abs(col)) <= 1e-14


def test_ansatz_validation():
    mean = Jet.zero(1, 2)
    with pytest.raises(ShapeError):
        FragmentationAnsatz(np.array([0.5, 0.5]), 1.0, 1.0, mean)  # mean(f0) != 1
    with pytest.raises(ShapeError):
        FragmentationAnsatz(np.array([1.0, 1.0]), 2.0, 3.0, mean)  # min(p, q) != 1
    bad = MultiJet([Jet(np.array([0.1]), np.zeros((1, 2))),
                    Jet(np.array([-0.1]), np.zeros((1, 2)))])
    with pytest.raises(ShapeError):
        FragmentationAnsatz(np.array([1.0, 1.0]), 1.0, 1.0, mean, linf_fluct=bad)


def test_delta_F_example52_hessian(example52, dirac_origin_2d):
    dF = assemble_delta_F(dirac_origin_2d, example52)
    assert np.allclose(dF.hessians[0], [[0.0, 0.0], [0.0, 2.0]], atol=1e-14)


def test_delta_F_quadratic_one_over_L():
    import sympy as sp

    from cvpert.lagrangian import PolynomialLagrangian

    x0, y0 = sp.symbols("x0 y0", real=True)
    lag = PolynomialLagrangian("sq", 1, (x0 - y0) ** 2, (x0,), (y0,))
    mu = DiscreteMeasure(np.zeros((1, 1)), np.ones(1))
    dF = assemble_delta_F(mu, lag)
    assert dF.hessians[0][0, 0] == pytest.approx(2.0)
    # aggregated form carries the 1/L factor
    for L in (1, 2, 4):
        u = MultiJet([Jet(np.zeros(1), np.ones((1, 1))) for _ in range(L)])
        assert dF.form(u, u) == pytest.approx(2.0 * L / L)


def test_delta_F_zero_lagrangian():
    import sympy as sp

    from cvpert.lagrangian import PolynomialLagrangian

    x0, y0 = sp.symbols("x0 y0", real=True)
    lag = PolynomialLagrangian("null", 1, 0 * x0, (x0,), (y0,))
    mu = DiscreteMeasure(np.zeros((1, 1)), np.ones(1))
    assert np.max(np.abs(assemble_delta_F(mu, lag).hessians)) == 0.0


def test_lin_fluct_basis_example52(example52, dirac_origin_2d):
    basis = lin_fluct_basis(dirac_origin_2d, example52, 2)
    # one scalar fluctuation plus the u1 null direction of the Hessian
    assert len(basis) == 2
    for mj in basis:
        mean, _ = split_mean_fluct(mj)
        assert mean.norm() <= 1e-14
    vec_parts = [mj for mj in basis if max(j.vector.max() for j in mj.jets) > 0]
    assert len(vec_parts) == 1
    v = vec_parts[0].jets[0].vector[0]
    assert abs(v[0]) > 0.5 and abs(v[1]) <= 1e-12  # x1 direction only


def test_lin_fluct_basis_positive_definite_hessian(quartic_pair, quartic_base):
    basis = lin_fluct_basis(quartic_base, quartic_pair, 2)
    # no neutral vector directions, only the scalar fluctuations per point
    assert len(basis) == 2
    for mj in basis:
        assert max(np.max(np.abs(j.vector)) for j in mj.jets) == 0.0


def test_lin_fluct_basis_zero_hessian_full_space():
    import sympy as sp

    from cvpert.lagrangian import PolynomialLagrangian

    x0, y0 = sp.symbols("x0 y0", real=True)
    lag = PolynomialLagrangian("null", 1, 0 * x0, (x0,), (y0,))
    mu = DiscreteMeasure(np.zeros((1, 1)), np.ones(1))
    basis = lin_fluct_basis(mu, lag, 2)
    assert len(basis) == 2  # scalar + the single vector direction


def test_fragment_measure_example52_points():
    scen = example52_scenario()
    frag = fragment_measure(scen.measure, scen.ansatz, 0.1)
    pos = frag.positions()
    assert np.allclose(pos[0, 0], [0.1 * W0, 0.1])
    assert np.allclose(pos[1, 0], [-0.1 * W0, 0.1])
    assert np.allclose(frag.weights(), 0.5)


def test_fragment_measure_lambda_zero_volume():
    scen = example52_scenario(f1=0.8)
    frag = fragment_measure(scen.measure, scen.ansatz, 0.0)
    assert frag.total_volume == pytest.approx(scen.measure.total_volume, abs=1e-12)
    merged = frag.as_measure()
    assert merged.size == 1  # both subsystems still at the origin
    assert merged.total_volume == pytest.approx(1.0, abs=1e-12)


def test_fragment_measure_volume_conserved_under_f0_only():
    scen = example52_scenario(f1=1.3)
    frag = fragment_measure(scen.measure, scen.ansatz, 0.05)
    assert frag.total_volume == pytest.approx(1.0, abs=1e-12)


def test_hessian_nonnegative_at_minimizer(example52, dirac_origin_2d):
    # probe grid confirms the origin is a local minimizer; the fluctuation
    # form must then be positive semi-definite
    from cvpert.el import ell

    rng = np.random.default_rng(3)
    vals = [ell(dirac_origin_2d, example52, 0.0, 0.3 * rng.normal(size=2))
            for _ in range(200)]
    assert min(vals) >= 0.0
    dF = assemble_delta_F(dirac_origin_2d, example52)
    assert np.min(dF.eigenvalues()) >= -1e-12


def test_block_structure_at_base(example52_reg):
    # conjugating the full fragmented operator at an (unweighted) base into
    # mean/complement/lin-F coordinates must annihilate the lin-F blocks
    base = DiscreteMeasure(np.array([[0.52353851230588, 0.7775154030769246],
                                     [-0.52353851230588, 0.7775154030769246]]),
                           np.ones(2))
    nu = calibrate_nu(base, example52_reg, tol=1e-8)
    L = 2
    from cvpert.fragmentation import FragmentedMeasure

    frag = FragmentedMeasure(base, np.zeros((L, 2)), np.zeros((L, 2, 2)))
    J = fragmented_jacobian(frag, example52_reg)
    mean_P, compl_P, linf_P = _sector_projectors(base, example52_reg, L)
    norm = np.linalg.norm(J, 2)
    if linf_P.size:
        assert np.max(np.abs(linf_P.T @ J)) <= 1e-8 * norm
        assert np.max(np.abs(J @ linf_P)) <= 1e-8 * norm


def test_block_structure_mean_sector_matches_delta_bar(example52, dirac_origin_2d):
    # the mean block of the fragmented operator reproduces the unfragmented
    # (breve) operator; at this critical base standard and breve agree
    from cvpert.fragmentation import FragmentedMeasure

    L = 2
    frag = FragmentedMeasure(dirac_origin_2d, np.zeros((L, 1)), np.zeros((L, 1, 2)))
    J = fragmented_jacobian(frag, example52)
    mean_P, _, _ = _sector_projectors(dirac_origin_2d, example52, L)
    mean_block = mean_P.T @ J @ mean_P
    bar = assemble_delta(dirac_origin_2d, example52, 0.0)
    assert np.allclose(mean_block, bar.matrix, atol=1e-12)


# --- closed forms of the worked example ------------------------------------


def ell_closed_form(lam, f1, w):
    # direct evaluation of the fragmented ell at the two support points;
    # the printed display has the opposite overall sign (DECISIONS.md, D1):
    # +8 lam^4 (2 - f1) w^2 (w^2 - 1) here versus -8 in the display
    return (8 * lam ** 4 * (2 - f1) * w ** 2 * (w ** 2 - 1),
            8 * lam ** 4 * f1 * w ** 2 * (w ** 2 - 1))


def grad_ell_closed_form(lam, f1, w):
    d1 = -8 * lam ** 3 * (2 - f1) * np.array([-w * (2 * w ** 2 - 1), w ** 2])
    d2 = -8 * lam ** 3 * f1 * np.array([w * (2 * w ** 2 - 1), w ** 2])
    return d1, d2


@pytest.mark.parametrize("lam", [0.2, 0.1, 0.05])
@pytest.mark.parametrize("f1", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("w", [0.5, W0, 1.0])
def test_example52_closed_forms(example52, lam, f1, w):
    from cvpert.el import ell, grad_ell

    scen = example52_scenario(f1=f1, w=w)
    frag = fragment_measure(scen.measure, scen.ansatz, lam)
    mu = frag.as_measure()
    p1 = np.array([lam * w, lam])
    p2 = np.array([-lam * w, lam])
    e1, e2 = ell_closed_form(lam, f1, w)
    g1, g2 = grad_ell_closed_form(lam, f1, w)
    # relative 1e-10; identically-zero components are held to 1e-10 of the
    # natural lambda-power scale of the row
    tol_val = 1e-10 * lam ** 4
    tol_grad = 1e-10 * lam ** 3
    assert ell(mu, example52, 0.0, p1) == pytest.approx(e1, rel=1e-10, abs=tol_val)
    assert ell(mu, example52, 0.0, p2) == pytest.approx(e2, rel=1e-10, abs=tol_val)
    assert np.allclose(grad_ell(mu, example52, p1), g1, rtol=1e-10, atol=tol_grad)
    assert np.allclose(grad_ell(mu, example52, p2), g2, rtol=1e-10, atol=tol_grad)


@pytest.mark.parametrize("lam", [0.1, 0.05])
def test_perturbed_laplacian_special_point(example52, lam):
    # honest flow derivative of the EL data: diag(2 lam^4, 16 lam^2) in the
    # (a, u1) parameterization; the reference display shows 24 lam^2 in the
    # lower entry, inconsistent with the example's L (DECISIONS.md, D2)
    scen = example52_scenario()
    M = perturbed_laplacian_linF(scen.measure, scen.lagrangian, scen.ansatz, lam,
                                 directions=example_directions())
    assert M[0, 0] == pytest.approx(2 * lam ** 4, rel=1e-8)
    assert M[1, 1] == pytest.approx(16 * lam ** 2, rel=1e-8)
    assert abs(M[0, 1]) <= 1e-10 * lam ** 2
    assert abs(M[1, 0]) <= 1e-10 * lam ** 2


@pytest.mark.parametrize("f1,w", [(1.4, 0.6), (0.7, 0.9)])
def test_perturbed_laplacian_generic_closed_form(example52, f1, w):
    # frozen sympy derivation of the flow-derivative matrix (DECISIONS.md,
    # D3, for the relation to the printed display)
    lam = 0.08
    scen = example52_scenario(f1=f1, w=w)
    M = perturbed_laplacian_linF(scen.measure, scen.lagrangian, scen.ansatz, lam,
                                 directions=example_directions())
    expected = np.array([
        [8 * lam ** 4 * w ** 2 * (1 - w ** 2),
         -16 * lam ** 3 * w * (f1 - 1) * (2 * w ** 2 - 1)],
        [8 * lam ** 3 * w * (f1 - 1) * (2 * w ** 2 - 1),
         8 * lam ** 2 * (6 * w ** 2 - 1)],
    ])
    assert np.allclose(M, expected, rtol=1e-8, atol=1e-14)


def test_perturbed_laplacian_vanishes_at_zero(example52):
    scen = example52_scenario()
    M = perturbed_laplacian_linF(scen.measure, scen.lagrangian, scen.ansatz, 0.0,
                                 directions=example_directions())
    assert np.max(np.abs(M)) <= 1e-14


def test_wellposedness_reference_choice(example52):
    scen = example52_scenario()
    report = wellposedness_check(scen)
    assert report.verdict == "well-posed"
    assert report.r_estimate == pytest.approx(4.0, abs=0.2)


def test_wellposedness_generic_f1_ill_posed():
    scen = example52_scenario(f1=1.5)
    report = wellposedness_check(scen)
    assert report.verdict == "ill-posed"
    # EL error in the scalar fluctuation row scales like lambda^4 = lambda^r,
    # one power short of the required r + 1
    assert report.error_exponent == pytest.approx(4.0, abs=0.3)


def test_wellposedness_zero_ansatz_inconclusive():
    scen = example52_scenario()
    zero_ansatz = FragmentationAnsatz(np.array([1.0, 1.0]), 1.0, 1.0,
                                      scen.ansatz.mean_jet)
    degenerate = Scenario("zero", scen.measure, scen.lagrangian, 0.0,
                          zero_ansatz, scen.lam_grid)
    report = wellposedness_check(degenerate)
    assert report.verdict == "inconclusive"


def test_fragment_expand_requires_wellposed():
    scen = example52_scenario(f1=1.5)
    with pytest.raises(NotWellPosed):
        fragment_expand(scen, order=2, lam=0.05)


def test_fragment_expand_zero_ansatz_on_critical(quartic_pair, quartic_base):
    # zero ansatz on a critical measure: nothing to correct, zero increments
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    ansatz = FragmentationAnsatz(np.array([1.0]), 1.0, 1.0, Jet.zero(2, 1))
    scen = Scenario("null", quartic_base, quartic_pair, nu, ansatz)
    out = fragment_expand(scen, order=2, lam=0.05)
    assert out.series is not None
    for jet in out.series.jets:
        assert jet.norm() <= 1e-9


def test_fragment_expand_single_subsystem_reduces(quartic_pair, quartic_base):
    # L = 1 delegates to the plain expansion
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    mean = Jet(np.zeros(2), np.array([[0.31], [-0.12]]))
    ansatz = FragmentationAnsatz(np.array([1.0]), 1.0, 1.0, mean)
    scen = Scenario("reduce", quartic_base, quartic_pair, nu, ansatz)
    out = fragment_expand(scen, order=2, lam=0.05)
    from cvpert.expansion import expand
    from cvpert.measure import push_forward

    start = push_forward(quartic_base, np.zeros(2), 0.05 * mean.vector)
    ref = expand(start, quartic_pair, nu, 2)
    for a, b in zip(out.series.jets, ref.jets):
        assert np.array_equal(a.flatten(), b.flatten())


def test_fragment_expand_study_regularized():
    scen = example52_scenario(regularized=True,
                              lam_grid=np.geomspace(0.03, 0.1, 4))
    study = fragment_expand_study(scen, order=2)
    assert study["report"].verdict == "well-posed"
    r = study["report"].r_estimate
    assert study["slopes"]["mean"] >= 3.0 - 0.2
    assert study["slopes"]["complement"] >= 3.0 - 0.2
    assert study["slopes"]["lin_f"] >= r + 1.0 - 0.2


def test_fragment_expand_builds_one_jacobian_per_configuration(monkeypatch):
    # each of the order - 1 sweeps assembles one Jacobian, at the configuration
    # it starts from; here every damped step is taken, so no configuration is
    # assembled twice
    from cvpert import fragmentation

    scen = example52_scenario(regularized=True, lam_grid=np.geomspace(0.03, 0.1, 4))
    report = wellposedness_check(scen)
    seen = []
    jacobian = fragmentation.fragmented_jacobian
    monkeypatch.setattr(fragmentation, "fragmented_jacobian",
                        lambda frag, *args: seen.append(frag) or jacobian(frag, *args))
    for order in (2, 3, 4):
        seen.clear()
        fragment_expand(scen, order, 0.05, report=report)
        assert order - 1 <= len(seen) == len({id(frag) for frag in seen})


def test_fragment_expand_evaluates_only_neutral_direction_steps(monkeypatch):
    # the start residual, then at most two damped tries of the one lin-F step
    # per sweep: no mean-and-complement step is tried
    from cvpert import fragmentation

    scen = example52_scenario(regularized=True, lam_grid=np.geomspace(0.03, 0.1, 4))
    report = wellposedness_check(scen)
    calls = []
    residual = fragmentation.fragmented_residual
    monkeypatch.setattr(fragmentation, "fragmented_residual",
                        lambda *args: calls.append(1) or residual(*args))
    for order in (2, 3, 4):
        calls.clear()
        fragment_expand(scen, order, 0.05, report=report)
        assert len(calls) <= 1 + 2 * (order - 1)


def test_fragment_expand_tries_each_sweep_step_once(monkeypatch):
    # the start residual, then one residual per sweep: a step is taken whole
    # or not at all (on plain example52 both sweeps of order 3 are declined)
    from cvpert import fragmentation

    scen = example52_scenario()
    report = wellposedness_check(scen)
    calls = []
    residual = fragmentation.fragmented_residual
    monkeypatch.setattr(fragmentation, "fragmented_residual",
                        lambda *args: calls.append(1) or residual(*args))
    fragment_expand(scen, 3, 0.05, report=report)
    assert len(calls) == 1 + (3 - 1)


def test_as_measure_rejects_non_finite_positions_before_merging():
    # an infinite shift used to reach the merge sweep, which warned on inf - inf
    mu = DiscreteMeasure(np.array([[0.0], [1.0], [2.0]]), np.ones(3))
    shift = np.zeros((2, 3, 1))
    shift[0, 1, 0] = shift[1, 2, 0] = np.inf
    with pytest.raises(NumericalFailure):
        FragmentedMeasure(mu, np.zeros((2, 3)), shift).as_measure()


def test_assemble_delta_F_reads_the_measures_tables(monkeypatch):
    # the Hessians are the second x-partial tables that assemble_delta already
    # read through the measure, summed in the same order: no new table, same bits
    from cvpert import build_lagrangian, el
    from cvpert import measure as measure_module

    rng = np.random.default_rng(7)
    mu = DiscreteMeasure(rng.normal(size=(5, 2)), rng.uniform(0.5, 1.5, 5))
    lag = build_lagrangian("example52_regularized")
    units = np.eye(2, dtype=int)
    pairs = [(0, 0), (0, 1), (1, 1)]
    want = [el.integrate_partial(lag, mu.points, mu.points, mu.weights, units[a] + units[b])
            for a, b in pairs]
    assemble_delta(mu, lag, 0.0)
    calls = []
    for module in (measure_module, el):
        monkeypatch.setattr(module, "pair_table", lambda *args, table=module.pair_table:
                            calls.append(args) or table(*args))
    hess = assemble_delta_F(mu, lag).hessians
    assert calls == []
    for (a, b), w in zip(pairs, want):
        assert np.array_equal(hess[:, a, b], w) and np.array_equal(hess[:, b, a], w)


def one_subsystem_scenario(quartic_pair, quartic_base):
    nu = calibrate_nu(quartic_base, quartic_pair, tol=1e-8)
    mean = Jet(np.array([0.1, -0.1]), np.array([[0.2], [0.1]]))
    ansatz = FragmentationAnsatz(np.array([1.0]), 1.0, 1.0, mean)
    return Scenario("one", quartic_base, quartic_pair, nu, ansatz, np.geomspace(0.005, 0.04, 4))


def test_single_subsystem_has_no_lin_fluct_space(quartic_pair, quartic_base):
    report = wellposedness_check(one_subsystem_scenario(quartic_pair, quartic_base))
    assert report.verdict == "inconclusive"
    assert report.details == {"reason": "empty linearized-fluctuation space"}


@pytest.mark.parametrize("order", [1, 2])
def test_fragment_expand_study_delegates_single_subsystem(quartic_pair, quartic_base, order):
    # the rows read the plain expansion's weak EL residual as the mean sector
    scen = one_subsystem_scenario(quartic_pair, quartic_base)
    study = fragment_expand_study(scen, order)
    assert study["report"] is None
    assert [row["lambda"] for row in study["rows"]] == list(scen.lam_grid)
    assert all(row["complement"] == row["lin_f"] == 0.0 for row in study["rows"])
    assert study["slopes"]["mean"] == pytest.approx(order + 1, abs=0.1)


def test_fragment_expand_defaults_to_the_grids_geometric_mean():
    scen = example52_scenario(regularized=True, lam_grid=np.geomspace(0.03, 0.1, 4))
    report = wellposedness_check(scen)
    lam = math.sqrt(0.03 * 0.1)
    default, given = fragment_expand(scen, 3, report=report), fragment_expand(scen, 3, lam, report)
    assert default.lam == pytest.approx(lam, rel=1e-15)
    assert np.array_equal(default.measure.positions(), given.measure.positions())
    assert default.sector_residuals == given.sector_residuals


def test_perturbed_laplacian_defaults_to_the_lin_fluct_basis():
    scen = example52_scenario(regularized=True)
    basis = lin_fluct_basis(scen.measure, scen.lagrangian, scen.n_subsystems)
    default = perturbed_laplacian_linF(scen.measure, scen.lagrangian, scen.ansatz, 0.05)
    given = perturbed_laplacian_linF(scen.measure, scen.lagrangian, scen.ansatz, 0.05,
                                     directions=basis)
    assert default.shape == (len(basis), len(basis))
    np.testing.assert_allclose(default, given, rtol=1e-14, atol=1e-16 * np.max(np.abs(given)))


def test_fragment_measure_pushes_each_subsystem_by_its_order_one_jet(rng):
    # reference: subsystem a's jet lam^p (mean + compl_a) + lam^q linf_a, one at a time
    n, L, lam, p, q = 3, 3, 0.07, 1.0, 1.5
    base = DiscreteMeasure(rng.normal(size=(n, 2)), np.ones(n))
    mean = Jet(rng.normal(size=n), rng.normal(size=(n, 2)))

    def fluctuation():
        vectors = rng.normal(size=(L, n, 2))
        return MultiJet([Jet(np.zeros(n), v) for v in vectors - vectors.mean(axis=0)])

    compl, linf = fluctuation(), fluctuation()
    f0 = np.array([0.5, 1.0, 1.5])
    frag = fragment_measure(base, FragmentationAnsatz(f0, p, q, mean, compl, linf), lam)
    for a in range(L):
        scal = lam ** p * (mean.scalar + compl.jets[a].scalar)
        vec = lam ** p * (mean.vector + compl.jets[a].vector) + lam ** q * linf.jets[a].vector
        assert np.array_equal(frag.log_weights[a], np.log(f0[a]) + scal)
        assert np.array_equal(frag.shifts[a], vec)


def test_overflowing_fragmented_weights_raise_numerical_failure():
    # exp(2000 lam) overflows a float at every lambda of the grid; the SVD of
    # the stacked form would end in numpy's LinAlgError
    scen = example52_scenario(lam_grid=np.geomspace(0.5, 1.0, 5))
    mean = Jet(np.array([2000.0]), scen.ansatz.mean_jet.vector)
    scen = replace(scen, ansatz=replace(scen.ansatz, mean_jet=mean))
    with pytest.raises(NumericalFailure, match="^overflow in the fragmented weights$"):
        wellposedness_check(scen)
