"""The Green's operator's decomposition: eigh for the symmetric standard
Delta, checked against the SVD solve that breve and restricted test rows
keep, and the health figures read from it."""

import itertools
import math

import numpy as np
import pytest

from cvpert import DiscreteMeasure, TestBasis, build_lagrangian, calibrate_nu
from cvpert.jets import DualJet, Jet
from cvpert.lagrangian import PolynomialLagrangian
from cvpert.linops import TOL_RANK, DeltaMatrix, GreensOperator, assemble_delta


def svd_apply(M, rhs, tol_rank=TOL_RANK):
    """Min-norm w with M w = rhs by the thin SVD cut at tol_rank * sigma_max,
    in the operations of the SVD path; returns (w, relative out-of-range
    residual, rank)."""
    u, s, vt = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > tol_rank * s[0]))
    u, s, vt = u[:, :rank], s[:rank], vt[:rank]
    resid = float(np.linalg.norm(rhs - u @ (u.T @ rhs))) / float(np.linalg.norm(rhs))
    return vt.T @ ((u.T @ rhs) / s), resid, rank


def random_symmetric_delta(rng, n, m, kernel, tiny=None):
    """Exactly symmetric Delta of size n (1 + m) with eigenvalues of both
    signs, magnitudes in [0.01, 2], ``kernel`` zero eigenvalues and, if
    given, one eigenvalue ``tiny`` below the rank cut."""
    size = n * (1 + m)
    q, _ = np.linalg.qr(rng.normal(size=(size, size)))
    lam = rng.choice([-1.0, 1.0], size) * rng.uniform(0.01, 2.0, size)
    lam[:kernel] = 0.0
    if tiny is not None:
        lam[kernel] = tiny
    M = (q * lam) @ q.T
    return DeltaMatrix((M + M.T) / 2.0, 0.0, rng.uniform(0.5, 1.5, n))


def wide_support_delta():
    """Delta at the 32 vertices {+-2 sqrt 2}^5 of the 5-d quartic pair model:
    exactly critical, with a 26-dimensional kernel."""
    lag = build_lagrangian("quartic_pair", {"dim": 5})
    points = 2.0 * math.sqrt(2.0) * np.array(list(itertools.product([-1.0, 1.0], repeat=5)))
    mu = DiscreteMeasure(points, np.full(32, 1.3))
    return assemble_delta(mu, lag, calibrate_nu(mu, lag))


def random_dual(rng, delta):
    n = len(delta.weights)
    return DualJet(rng.normal(size=n), rng.normal(size=(n, delta.dim)))


def assert_close(got, ref, rtol=1e-12):
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


def check_against_svd(delta, rng, monkeypatch):
    svd = np.linalg.svd

    def forbidden(*args, **kwargs):
        raise AssertionError("SVD of a symmetric Delta")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    greens = GreensOperator(delta)
    monkeypatch.setattr(np.linalg, "svd", svd)
    for _ in range(3):
        dual = random_dual(rng, delta)
        w, rel = greens.apply(dual)
        ref, ref_rel, rank = svd_apply(delta.matrix, -delta.weight_vector() * dual.flatten())
        assert greens.health()["rank"] == rank
        assert_close(w.flatten(), ref)
        assert abs(rel - ref_rel) <= 1e-12
    return greens


@pytest.mark.parametrize("n, m, kernel", [(1, 1, 0), (16, 1, 4), (16, 3, 8)])
def test_eigh_solve_matches_svd_solve(n, m, kernel, rng, monkeypatch):
    delta = random_symmetric_delta(rng, n, m, kernel)
    greens = check_against_svd(delta, rng, monkeypatch)
    assert greens.health()["rank"] == n * (1 + m) - kernel


def test_eigh_solve_on_the_wide_support_kernel(rng, monkeypatch):
    delta = wide_support_delta()
    assert delta.symmetry_defect() <= 1e-15
    greens = check_against_svd(delta, rng, monkeypatch)
    assert greens.health()["rank"] == delta.size - 26


def test_breve_and_test_row_solves_keep_the_svd(example52_reg, rng):
    mu = DiscreteMeasure(rng.normal(size=(3, 2)) * 0.5, rng.uniform(0.5, 1.5, 3))
    breve = assemble_delta(mu, example52_reg, 0.2, convention="breve")
    dual = random_dual(rng, breve)
    w, rel = GreensOperator(breve).apply(dual)
    ref, ref_rel, _ = svd_apply(breve.matrix, -breve.weight_vector() * dual.flatten())
    assert np.array_equal(w.flatten(), ref) and rel == ref_rel

    basis = TestBasis([Jet(rng.normal(size=3), rng.normal(size=(3, 2))) for _ in range(2)])
    rows = assemble_delta(mu, example52_reg, 0.2, testbasis=basis)
    greens = GreensOperator(rows)
    w, rel = greens.apply(dual)
    ref, ref_rel, _ = svd_apply(rows.test_rows, -greens._rhs(dual))
    assert np.array_equal(w.flatten(), ref) and rel == ref_rel


def check_health(greens, M):
    s = np.linalg.svd(M, compute_uv=False)
    rank = int(np.sum(s > TOL_RANK * s[0]))
    health = greens.health()
    scale = 1e-12 * s[0]
    assert health["rank"] == rank
    assert abs(health["sigma_max"] - s[0]) <= scale
    assert abs(health["sigma_min_kept"] - s[rank - 1]) <= scale
    assert abs(health["condition"] - s[0] / s[rank - 1]) <= 1e-12 * s[0] / s[rank - 1]
    if rank == len(s):
        assert health["sigma_first_dropped"] is None
    else:
        assert abs(health["sigma_first_dropped"] - s[rank]) <= scale


def test_non_symmetric_lagrangian_keeps_the_svd(rng):
    # the standard Delta of an L with L(x, y) != L(y, x) is not symmetric;
    # eigh, which reads one triangle, would invert a different matrix
    lag = PolynomialLagrangian.from_formula(
        "skew", 2, lambda x0, x1, y0, y1: x0 ** 2 * y0 + x1 * y0 ** 2 + (x0 - y1) ** 2)
    mu = DiscreteMeasure(rng.normal(size=(3, 2)) * 0.5, rng.uniform(0.5, 1.5, 3))
    delta = assemble_delta(mu, lag, 0.2)
    assert delta.symmetry_defect() > 1e-3
    greens = GreensOperator(delta)
    for _ in range(3):
        dual = random_dual(rng, delta)
        w, rel = greens.apply(dual)
        ref, ref_rel, _ = svd_apply(delta.matrix, -delta.weight_vector() * dual.flatten())
        assert np.array_equal(w.flatten(), ref) and rel == ref_rel
    check_health(greens, delta.matrix)


def test_health_reads_the_decomposition(example52_reg, rng):
    for delta in (random_symmetric_delta(rng, 8, 2, 0),
                  random_symmetric_delta(rng, 8, 2, 3, tiny=1e-10),
                  wide_support_delta()):
        check_health(GreensOperator(delta), delta.matrix)
    mu = DiscreteMeasure(rng.normal(size=(3, 2)) * 0.5, rng.uniform(0.5, 1.5, 3))
    breve = assemble_delta(mu, example52_reg, 0.2, convention="breve")
    check_health(GreensOperator(breve), breve.matrix)
    basis = TestBasis([Jet(rng.normal(size=3), rng.normal(size=(3, 2))) for _ in range(2)])
    rows = assemble_delta(mu, example52_reg, 0.2, testbasis=basis)
    check_health(GreensOperator(rows), rows.test_rows)
    tiny = GreensOperator(random_symmetric_delta(rng, 4, 1, 2, tiny=1e-10)).health()
    assert tiny["sigma_first_dropped"] == pytest.approx(1e-10, rel=1e-4)
    empty = GreensOperator(DeltaMatrix(np.zeros((2, 2)), 0.0, np.ones(1))).health()
    assert empty["rank"] == 0 and empty["condition"] == math.inf
