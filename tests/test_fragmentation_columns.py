"""Flat lin-F columns against the multi-jet loops they replaced.

The oracles below build the same objects one direction at a time: the
lin-F basis and the complement as multi-jets, the mean columns by index
arithmetic, and the lambda^q rescaling per subsystem jet.
"""

import math

import numpy as np
import pytest
import sympy as sp

from cvpert import DiscreteMeasure, Jet, MultiJet, build_lagrangian
from cvpert import fragmentation
from cvpert.fitting import loglog_slope
from cvpert.fragmentation import (RESIDUAL_FLOOR, FluctuationForm, _sector_projectors,
                                  _zero_mean_patterns, assemble_delta_F, example52_scenario,
                                  fragment_measure, fragmented_residual, lin_fluct_basis,
                                  lin_fluct_columns, perturbed_laplacian_linF,
                                  wellposedness_check)
from cvpert.lagrangian import PolynomialLagrangian
from cvpert.errors import ArgError, ShapeError
from cvpert.linops import TOL_RANK


def oracle_lin_fluct_basis(measure, lagrangian, L):
    n, m = measure.size, measure.dimension
    dF = assemble_delta_F(measure, lagrangian)
    basis = []
    scale = max(float(np.max(np.abs(dF.hessians))), 1.0)
    for chi in _zero_mean_patterns(L):
        for i in range(n):
            jets = [Jet.zero(n, m) for _ in range(L)]
            for a in range(L):
                jets[a].scalar[i] = chi[a]
            basis.append(MultiJet(jets))
        for i in range(n):
            evals, evecs = np.linalg.eigh(dF.hessians[i])
            for k in range(m):
                if abs(evals[k]) <= TOL_RANK * scale:
                    jets = [Jet.zero(n, m) for _ in range(L)]
                    for a in range(L):
                        jets[a].vector[i] = chi[a] * evecs[:, k]
                    basis.append(MultiJet(jets))
    return basis


def oracle_complement_columns(measure, lagrangian, L):
    """Each zero-mean pattern with each eigendirection of each point's
    ell-Hessian that is not null, one multi-jet at a time."""
    n, m = measure.size, measure.dimension
    dF = assemble_delta_F(measure, lagrangian)
    scale = max(float(np.max(np.abs(dF.hessians))), 1.0)
    cols = []
    for chi in _zero_mean_patterns(L):
        for i in range(n):
            evals, evecs = np.linalg.eigh(dF.hessians[i])
            for k in range(m):
                if abs(evals[k]) > TOL_RANK * scale:
                    jets = [Jet.zero(n, m) for _ in range(L)]
                    for a in range(L):
                        jets[a].vector[i] = chi[a] * evecs[:, k]
                    cols.append(MultiJet(jets).flatten())
    return np.array(cols).T.reshape(L * n * (1 + m), len(cols))


def oracle_mean_columns(measure, L):
    n, width = measure.size, 1 + measure.dimension
    cols = []
    for i in range(n):
        for s in range(width):
            v = np.zeros(L * n * width)
            for a in range(L):
                v[(a * n + i) * width + s] = 1.0 / math.sqrt(L)
            cols.append(v)
    return np.array(cols).T


def oracle_q_scaled(directions, q, lam):
    return [MultiJet([Jet(j.scalar.copy(), lam ** q * j.vector) for j in d.jets])
            for d in directions]


def oracle_report(scenario):
    """sigma_min, sigma_max and EL errors per lambda, one multi-jet at a time,
    with the order estimate and verdict read from them."""
    basis = oracle_lin_fluct_basis(scenario.measure, scenario.lagrangian,
                                   scenario.n_subsystems)
    smin, smax, errs = [], [], []
    for lam in scenario.lam_grid:
        scaled = oracle_q_scaled(basis, scenario.ansatz.q, lam)
        M = perturbed_laplacian_linF(scenario.measure, scenario.lagrangian, scenario.ansatz,
                                     lam, directions=scaled)
        s = np.linalg.svd(M, compute_uv=False)
        smin.append(s[-1])
        smax.append(s[0])
        frag = fragment_measure(scenario.measure, scenario.ansatz, lam)
        res = fragmented_residual(frag, scenario.lagrangian, scenario.nu)
        errs.append(max(abs(float(d.flatten() @ res)) for d in scaled))
    r, _ = loglog_slope(scenario.lam_grid, np.array(smin), floor=RESIDUAL_FLOOR)
    r_max, _ = loglog_slope(scenario.lam_grid, np.array(smax), floor=RESIDUAL_FLOOR)
    err_exp, _ = loglog_slope(scenario.lam_grid, np.array(errs), floor=RESIDUAL_FLOOR)
    ok = abs(r - r_max) <= 0.5 and r > scenario.ansatz.q and err_exp >= r + 1.0 - 0.2
    return smin, smax, errs, r, "well-posed" if ok else "ill-posed"


def null_model():
    x0, y0 = sp.symbols("x0 y0", real=True)
    return PolynomialLagrangian("null", 1, 0 * x0, (x0,), (y0,))


def bases():
    t = 2.0 * np.sqrt(2.0)
    return {
        "origin-example52": (DiscreteMeasure(np.zeros((1, 2)), np.ones(1)),
                             build_lagrangian("example52")),
        "regularized-two-point": (
            DiscreteMeasure(np.array([[0.52353851230588, 0.7775154030769246],
                                      [-0.52353851230588, 0.7775154030769246]]), np.ones(2)),
            build_lagrangian("example52_regularized")),
        "quartic-two-point": (DiscreteMeasure(np.array([[t], [-t]]), np.ones(2)),
                              build_lagrangian("quartic_pair")),
        "zero-model": (DiscreteMeasure(np.zeros((1, 1)), np.ones(1)), null_model()),
    }


CASES = [(name, L) for name in ("origin-example52", "regularized-two-point",
                                "quartic-two-point", "zero-model") for L in (2, 3, 4)]


@pytest.mark.parametrize("name,L", CASES)
def test_lin_fluct_basis_matches_multijet_loop(name, L):
    measure, lagrangian = bases()[name]
    want = oracle_lin_fluct_basis(measure, lagrangian, L)
    got = lin_fluct_basis(measure, lagrangian, L)
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):
        assert np.array_equal(g.flatten(), w.flatten())
    cols = lin_fluct_columns(measure, lagrangian, L)
    assert np.array_equal(cols, np.array([w.flatten() for w in want]).T)


@pytest.mark.parametrize("name,L", CASES)
def test_sector_projector_blocks_match_loops(name, L):
    measure, lagrangian = bases()[name]
    mean, compl, linf = _sector_projectors(measure, lagrangian, L)
    assert np.array_equal(mean, oracle_mean_columns(measure, L))
    want = oracle_lin_fluct_basis(measure, lagrangian, L)
    assert np.array_equal(linf, np.array([w.flatten() for w in want]).T)
    assert mean.shape[1] + compl.shape[1] + linf.shape[1] == mean.shape[0]


@pytest.mark.parametrize("name,L", CASES)
def test_complement_columns_match_loop(name, L):
    measure, lagrangian = bases()[name]
    _, compl, _ = _sector_projectors(measure, lagrangian, L)
    assert np.array_equal(compl, oracle_complement_columns(measure, lagrangian, L))


def test_sector_projectors_run_no_svd(monkeypatch):
    # the complement comes from the Hessians' eigendecomposition, not from
    # an SVD of a projector on the whole fragmented jet space
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    for name, L in CASES:
        measure, lagrangian = bases()[name]
        blocks = np.hstack(_sector_projectors(measure, lagrangian, L))
        assert np.allclose(blocks.T @ blocks, np.eye(len(blocks)), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("lam", [0.03, 0.1])
def test_q_scaling_matches_per_jet_rescaling(lam):
    scen = example52_scenario(regularized=True)
    measure, L = scen.measure, scen.n_subsystems
    basis = lin_fluct_basis(measure, scen.lagrangian, L)
    scaling = fragmentation._q_scaling(measure, L, lam, 2.0)
    cols = lin_fluct_columns(measure, scen.lagrangian, L) * scaling[:, None]
    want = np.array([d.flatten() for d in oracle_q_scaled(basis, 2.0, lam)]).T
    assert np.array_equal(cols, want)


@pytest.mark.parametrize("kwargs", [{}, {"f1": 1.5}, {"regularized": True}])
def test_wellposedness_matches_multijet_path(kwargs):
    scen = example52_scenario(**kwargs)
    report = wellposedness_check(scen)
    smin, smax, errs, r, verdict = oracle_report(scen)
    got = report.details
    np.testing.assert_allclose(got["sigma_min"], smin, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got["sigma_max"], smax, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got["errors"], errs, rtol=1e-12, atol=RESIDUAL_FLOOR)
    assert report.r_estimate == r
    assert report.verdict == verdict == ("ill-posed" if "f1" in kwargs else "well-posed")


def test_wellposedness_fragments_once_per_lambda(monkeypatch):
    calls = []
    original = fragmentation.fragment_measure

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(fragmentation, "fragment_measure", counting)
    scen = example52_scenario()
    wellposedness_check(scen)
    assert calls == list(scen.lam_grid)


GRIDS = [{}, {"f1": 1.5}, {"regularized": True},
         {"regularized": True, "lam_grid": np.geomspace(0.03, 0.1, 4)},
         {"f1": 1.3, "w": 0.4, "lam_grid": np.geomspace(0.02, 0.1, 9)}]


def per_lambda_values(scenario):
    """sigma_min, sigma_max and EL errors one lambda at a time: the form of
    ``perturbed_laplacian_linF`` on the lambda^q-scaled lin-F columns, the
    errors from ``fragmented_residual`` of that lambda's fragmented measure."""
    measure, lag, L = scenario.measure, scenario.lagrangian, scenario.n_subsystems
    basis = lin_fluct_columns(measure, lag, L)
    smin, smax, errs = [], [], []
    for lam in scenario.lam_grid:
        cols = basis * fragmentation._q_scaling(measure, L, lam, scenario.ansatz.q)[:, None]
        directions = [MultiJet.unflatten(c, L, measure.dimension) for c in cols.T]
        M = perturbed_laplacian_linF(measure, lag, scenario.ansatz, lam, directions)
        s = np.linalg.svd(M, compute_uv=False)
        smin.append(s[-1])
        smax.append(s[0])
        res = fragmented_residual(fragment_measure(measure, scenario.ansatz, lam), lag,
                                  scenario.nu)
        errs.append(float(np.max(np.abs(cols.T @ res))))
    return smin, smax, errs


@pytest.mark.parametrize("kwargs", GRIDS)
def test_stacked_wellposedness_is_the_per_lambda_path_bit_for_bit(kwargs):
    scen = example52_scenario(**kwargs)
    got = wellposedness_check(scen).details
    for key, want in zip(("sigma_min", "sigma_max", "errors"), per_lambda_values(scen)):
        assert np.array_equal(got[key], want), key


def test_wellposedness_reads_one_reader_one_form_one_svd(monkeypatch):
    calls = {"pair_reader": 0, "_pointwise_blocks": 0, "ell_field": 0, "svd": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    scen = example52_scenario()
    basis = lin_fluct_columns(scen.measure, scen.lagrangian, scen.n_subsystems)
    monkeypatch.setattr(fragmentation, "lin_fluct_columns", lambda *args: basis)
    counting(fragmentation, "pair_reader")
    counting(fragmentation, "ell_field")
    counting(fragmentation.linops, "_pointwise_blocks")
    counting(np.linalg, "svd")
    wellposedness_check(scen)
    assert calls == {"pair_reader": 1, "_pointwise_blocks": 1, "ell_field": 1, "svd": 1}


def refuse(*args, **kwargs):
    raise AssertionError("assembled before the grid was checked")


@pytest.mark.parametrize("grid,error,match", [
    ([np.nan, 0.03, 0.05, 0.1], ArgError, "finite"),
    ([0.02, 0.03, np.nan, 0.1], ArgError, "finite"),
    ([0.02, 0.03, 0.05, np.nan], ArgError, "finite"),
    ([0.02, 0.03, 0.05, np.inf], ArgError, "finite"),
    ([0.02, -0.03, 0.05, 0.1], ArgError, "> 0"),
    ([0.0, 0.03, 0.05, 0.1], ArgError, "> 0"),
    ([[0.02, 0.03], [0.05, 0.1]], ShapeError, r"\(2, 2\)"),
    ([[0.02, 0.03, 0.05, 0.1]], ShapeError, r"\(1, 4\)"),
    ([0.05, 0.1], ShapeError, r"at least 4 points, got shape \(2,\)"),
], ids=["nan-first", "nan-inside", "nan-last", "inf", "negative", "zero", "2x2", "1x4",
        "short"])
def test_wellposedness_checks_the_grid_before_any_assembly(monkeypatch, grid, error, match):
    scen = example52_scenario(lam_grid=grid)
    for name in ("lin_fluct_columns", "fragment_measure", "_weak_el"):
        monkeypatch.setattr(fragmentation, name, refuse)
    monkeypatch.setattr(fragmentation.linops, "_pointwise_blocks", refuse)
    with pytest.raises(error, match=match):
        wellposedness_check(scen)


@pytest.mark.parametrize("L", [1, 2, 3])
def test_fluctuation_form_matches_double_loop(rng, L):
    n, m = 4, 3
    a = rng.normal(size=(n, m, m))
    form = FluctuationForm(a + a.transpose(0, 2, 1))
    u, v = (MultiJet([Jet(rng.normal(size=n), rng.normal(size=(n, m))) for _ in range(L)])
            for _ in range(2))
    total = 0.0
    for k in range(L):
        for i in range(n):
            total += u.jets[k].vector[i] @ form.hessians[i] @ v.jets[k].vector[i]
    assert form.form(u, v) == pytest.approx(total / L, rel=1e-14, abs=1e-14)
