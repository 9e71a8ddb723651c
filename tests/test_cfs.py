import numpy as np
import pytest

from cvpert.cfs import (CfsChart, CfsParams, WaveEvaluation, causal_action,
                        causal_lagrangian, closed_chain, local_correlation,
                        perturb_wave_evaluation, point_from_json,
                        point_to_json, reference_point, spectral_weights,
                        spin_adjoint, spin_map_from_point, swap_symmetric_pair,
                        validate_cfs_point)
from cvpert.errors import ShapeError, SingularChart, VanishingLocalTrace

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def haar_unitary(rng, f):
    z = rng.normal(size=(f, f)) + 1j * rng.normal(size=(f, f))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_point(rng, params):
    """Random valid CfsPoint via a Haar rotation of a valid diagonal."""
    f, n, c = params.f, params.n, params.trace_constant
    pos = np.abs(rng.normal(size=n)) + 0.5
    neg = -(np.abs(rng.normal(size=n)) + 0.25)
    pos = pos + (c - (pos.sum() + neg.sum())) / n  # enforce the trace
    diag = np.zeros(f)
    diag[:n] = pos
    diag[n:2 * n] = neg
    U = haar_unitary(rng, f)
    return U @ np.diag(diag).astype(complex) @ U.conj().T


def test_params_validation():
    with pytest.raises(ShapeError):
        CfsParams(1, 1, 1.0)
    with pytest.raises(ShapeError):
        CfsParams(2, 1, -1.0)
    with pytest.raises(ShapeError):
        CfsParams(2, 1, 1.0, kappa=-0.1)


def test_validate_point_signature():
    params = CfsParams(2, 1, 1.0)
    validate_cfs_point(np.diag([2.0, -1.0]).astype(complex), params)
    with pytest.raises(ShapeError):
        validate_cfs_point(np.diag([2.0, 1.0]).astype(complex),
                           CfsParams(2, 1, 3.0))


def test_spin_map_reconstructs_point(rng):
    params = CfsParams(4, 2, 1.5)
    for _ in range(10):
        x = random_point(rng, params)
        psi = spin_map_from_point(x, params.n)
        back = -(spin_adjoint(psi, params.n) @ psi)
        assert np.max(np.abs(back - x)) <= 1e-8 * np.max(np.abs(x))


def test_closed_chain_matches_operator_product(rng):
    params = CfsParams(4, 2, 1.5)
    for _ in range(10):
        x = random_point(rng, params)
        y = random_point(rng, params)
        psi_x = spin_map_from_point(x, 2)
        psi_y = spin_map_from_point(y, 2)
        chain = np.sort(np.abs(np.linalg.eigvals(closed_chain(psi_x, psi_y, 2))))
        full = np.sort(np.abs(np.linalg.eigvals(x @ y)))[-4:]
        assert np.allclose(chain, full, atol=1e-8 * max(1.0, full.max()))


def test_spectral_weights_diag_example():
    x = np.diag([2.0, -1.0]).astype(complex)
    eigs, w1, w2 = spectral_weights(x, x, 1)
    assert np.allclose(sorted(np.abs(eigs)), [1.0, 4.0])
    assert w1 == pytest.approx(5.0)
    assert w2 == pytest.approx(17.0)


def test_spectral_weights_complex_pair():
    x = SIGMA1 + 0.5 * np.eye(2)
    y = np.diag([1.5, -0.5]).astype(complex)
    eigs, w1, w2 = spectral_weights(x, y, 1)
    assert np.allclose(np.abs(eigs), 0.75)
    assert eigs[0] == pytest.approx(np.conj(eigs[1]))
    assert w1 == pytest.approx(1.5)
    assert w2 == pytest.approx(1.125)


def test_spectral_weights_near_zero_point():
    params = CfsParams(2, 1, 1.0)
    x = np.diag([2.0, -1.0]).astype(complex)
    tiny = np.diag([1e-13, -1e-13]).astype(complex)
    eigs, w1, w2 = spectral_weights(x, tiny, 1)
    assert w1 <= 1e-12
    assert w2 <= 1e-24


def test_causal_lagrangian_timelike_diag():
    x = np.diag([2.0, -1.0]).astype(complex)
    params = CfsParams(2, 1, 1.0, kappa=0.0)
    val, cls = causal_lagrangian(x, x, params)
    assert val == pytest.approx(4.5, rel=1e-12)
    assert cls == "timelike"


def test_causal_lagrangian_spacelike_pair():
    x = SIGMA1 + 0.5 * np.eye(2)
    y = np.diag([1.5, -0.5]).astype(complex)
    val, cls = causal_lagrangian(x, y, CfsParams(2, 1, 1.0, kappa=0.0))
    assert val == pytest.approx(0.0, abs=1e-12)
    assert cls == "spacelike"
    val_k, _ = causal_lagrangian(x, y, CfsParams(2, 1, 1.0, kappa=0.1))
    assert val_k == pytest.approx(0.225, rel=1e-12)


def test_quarter_sum_identity(rng):
    # the two expressions for the kappa = 0 Lagrangian agree
    for n in (1, 2):
        params = CfsParams(2 * n, n, 1.0, kappa=0.0)
        for _ in range(200):
            x = random_point(rng, params)
            y = random_point(rng, params)
            eigs, w1, w2 = spectral_weights(x, y, n)
            direct = w2 - w1 ** 2 / (2 * n)
            val, _ = causal_lagrangian(x, y, params)
            assert abs(val - direct) <= 1e-10 * max(1.0, abs(direct))


def test_chain_symmetry(rng):
    params = CfsParams(4, 2, 1.2)
    for _ in range(20):
        x = random_point(rng, params)
        y = random_point(rng, params)
        ex, _, _ = spectral_weights(x, y, 2)
        ey, _, _ = spectral_weights(y, x, 2)
        assert np.allclose(sorted(np.abs(ex)), sorted(np.abs(ey)), atol=1e-9)


def test_unitary_invariance_spectral_weights(rng):
    params = CfsParams(4, 2, 1.0)
    for _ in range(20):
        x = random_point(rng, params)
        y = random_point(rng, params)
        U = haar_unitary(rng, 4)
        _, w1, w2 = spectral_weights(x, y, 2)
        _, v1, v2 = spectral_weights(U @ x @ U.conj().T, U @ y @ U.conj().T, 2)
        assert abs(w1 - v1) <= 1e-10 * max(1.0, w1)
        assert abs(w2 - v2) <= 1e-10 * max(1.0, w2)


def test_causal_action_single_point():
    params = CfsParams(2, 1, 1.0, kappa=0.3)
    x = np.diag([2.0, -1.0]).astype(complex)
    S, T = causal_action([x], [1.0], params)
    val, _ = causal_lagrangian(x, x, CfsParams(2, 1, 1.0, kappa=0.0))
    assert S == pytest.approx(val)
    assert T == pytest.approx(25.0)
    S0, T0 = causal_action([], [], params)
    assert S0 == 0.0 and T0 == 0.0


def test_causal_action_spacelike_cross_terms():
    params = CfsParams(2, 1, 1.0, kappa=0.0)
    x1, x2 = swap_symmetric_pair(params, b=0.25)
    S, _ = causal_action([x1, x2], [1.0, 1.0], params)
    v_self, _ = causal_lagrangian(x1, x1, params)
    # cross terms are spacelike, so only the two self terms contribute
    assert S == pytest.approx(2 * v_self, rel=1e-10)


def test_local_correlation_example():
    params = CfsParams(2, 1, 1.0)
    psi = np.diag([np.sqrt(2.0), 1.0]).astype(complex)
    R = local_correlation(psi, params)
    assert np.allclose(R, np.diag([2.0, -1.0]), atol=1e-14)


def test_local_correlation_scale_invariance(rng):
    params = CfsParams(3, 1, 1.0)
    psi = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    R = local_correlation(psi, params)
    for alpha in (2.0, -0.3 + 1.7j):
        R2 = local_correlation(alpha * psi, params)
        assert np.allclose(R, R2, atol=1e-12)


def test_local_correlation_trace_and_signature(rng):
    params = CfsParams(3, 1, 0.8)
    for _ in range(50):
        psi = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        R = local_correlation(psi, params)
        assert np.trace(R).real == pytest.approx(0.8, abs=1e-13)
        evals = np.linalg.eigvalsh(R)
        assert np.sum(evals > 1e-10) <= 1
        assert np.sum(evals < -1e-10) <= 1


def test_local_correlation_vanishing_trace():
    params = CfsParams(2, 1, 1.0)
    # psi* psi traceless: equal weight on both signature slots
    psi = np.eye(2).astype(complex)
    with pytest.raises(VanishingLocalTrace):
        local_correlation(psi, params)


def test_chart_round_trip(rng):
    params = CfsParams(2, 1, 1.0, kappa=0.1)
    x = reference_point(params)
    chart = CfsChart(params, spin_map_from_point(x, 1))
    assert chart.dim == 3
    assert np.max(np.abs(chart.point(np.zeros(3)) - x)) <= 1e-12
    for _ in range(5):
        z = 0.05 * rng.normal(size=3)
        y = chart.point(z)
        back = chart.coords(y)
        assert np.max(np.abs(chart.point(back) - y)) <= 1e-8


def test_chart_coords_match_least_squares():
    """Gauss-Newton inversion against scipy's least_squares at its former
    tolerances, on round-trip points and on the swap-symmetric pair."""
    from scipy.optimize import least_squares

    params = CfsParams(2, 1, 1.0, kappa=0.1)
    chart = CfsChart(params, spin_map_from_point(reference_point(params), 1))
    rng = np.random.default_rng(20240817)
    x1, x2 = swap_symmetric_pair(params, b=0.25)
    H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    pair_chart = CfsChart(params, spin_map_from_point(H @ x1 @ H, 1))
    cases = [(chart, chart.point(0.05 * rng.normal(size=3))) for _ in range(5)]
    cases += [(pair_chart, x1), (pair_chart, x2)]
    for ch, y in cases:
        want = least_squares(lambda z: ch._vec(ch.point(z) - y), np.zeros(ch.dim),
                             xtol=3e-16, ftol=3e-16, gtol=3e-16).x
        assert np.max(np.abs(ch.coords(y) - want)) <= 1e-12


def test_chart_coords_off_image_raises_within_cap(monkeypatch):
    from cvpert import cfs

    params = CfsParams(2, 1, 1.0, kappa=0.1)
    chart = CfsChart(params, spin_map_from_point(reference_point(params), 1))
    y = 1.1 * chart.point(np.array([0.03, -0.02, 0.01]))  # trace 1.1, off the image
    steps = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: steps.append(1) or lstsq(*a, **k))
    with pytest.raises(SingularChart) as err:
        chart.coords(y)
    assert 1 <= len(steps) <= cfs.COORDS_MAX_ITERS
    assert err.value.condition == chart.condition
    assert "7.071e-02" in str(err.value)  # the least-squares residual (trace defect 0.1 / sqrt 2)


def test_chart_rejects_scale_direction():
    params = CfsParams(2, 1, 1.0)
    psi0 = spin_map_from_point(reference_point(params), 1)
    with pytest.raises(SingularChart):
        CfsChart(params, psi0, basis=[psi0])


@pytest.mark.parametrize("f,n", [(2, 1), (3, 1), (4, 2)])
def test_chart_default_basis_spans_complement_of_ker_dR(f, n):
    """The default slice is orthonormal in the real trace pairing and
    orthogonal to ker DR, which is computed here from central differences
    of the local correlation map along every real unit direction of psi
    (psi* psi is invariant under u(n,n), not under all of u(2n))."""
    params = CfsParams(f, n, 1.0)
    psi0 = spin_map_from_point(reference_point(params), n)
    chart = CfsChart(params, psi0)

    def vec(mat):
        return np.concatenate([mat.real.ravel(), mat.imag.ravel()])

    h = 1e-6
    units = [e.reshape(psi0.shape) for e in np.eye(psi0.size)]
    units += [1j * e for e in units]
    jac = np.array([vec(local_correlation(psi0 + h * e, params)
                        - local_correlation(psi0 - h * e, params)) / (2 * h)
                    for e in units]).T
    _, s, vt = np.linalg.svd(jac)
    rank = int(np.sum(s > 1e-6 * s[0]))
    kernel = vt[rank:]
    basis = np.array([vec(e) for e in chart.basis])
    assert chart.dim == rank
    assert np.max(np.abs(basis @ basis.T - np.eye(chart.dim))) <= 1e-12
    assert np.max(np.abs(kernel @ basis.T)) <= 1e-8


def test_wave_evaluation_round_trip(rng):
    params = CfsParams(4, 2, 1.5)
    pts = [random_point(rng, params) for _ in range(3)]
    weo = WaveEvaluation.from_points(pts, params)
    for i, x in enumerate(pts):
        assert np.max(np.abs(weo.point(i) - x)) <= 1e-8 * np.max(np.abs(x))
    # chain eigenvalues through the kernel match the closed chain
    A = weo.kernel(0, 1) @ weo.kernel(1, 0)
    e1 = np.sort(np.abs(np.linalg.eigvals(A)))
    e2 = np.sort(np.abs(np.linalg.eigvals(pts[0] @ pts[1])))[-4:]
    assert np.allclose(e1, e2, atol=1e-8 * max(1.0, e2.max()))


def test_perturb_wave_evaluation_identity(rng):
    params = CfsParams(2, 1, 1.0)
    pts = [reference_point(params), swap_symmetric_pair(params)[1]]
    weo = WaveEvaluation.from_points(pts, params)
    new_pts, wts = perturb_wave_evaluation(weo, [np.zeros((2, 2))] * 2, [1.0, 1.0])
    for a, b in zip(new_pts, pts):
        assert np.max(np.abs(a - b)) <= 1e-10


def test_perturb_wave_evaluation_rank_one(rng):
    params = CfsParams(3, 1, 1.0)
    pts = [random_point(rng, params) for _ in range(2)]
    weo = WaveEvaluation.from_points(pts, params)
    delta = np.zeros((2, 3), dtype=complex)
    delta[0, 2] = 0.05
    new_pts, _ = perturb_wave_evaluation(weo, [delta, np.zeros((2, 3))], [1.0, 1.0])
    assert np.max(np.abs(new_pts[1] - pts[1])) <= 1e-10
    assert np.max(np.abs(new_pts[0] - pts[0])) > 1e-4
    assert np.trace(new_pts[0]).real == pytest.approx(1.0, abs=1e-12)


def test_perturb_wave_evaluation_reports_degenerate(rng):
    params = CfsParams(2, 1, 1.0)
    pts = [reference_point(params)]
    weo = WaveEvaluation.from_points(pts, params)
    # push the spin map to a rank-one object: signature drops below (1, 1)
    delta = -weo.maps[0].copy()
    delta[0] = 0.0
    with pytest.raises(ShapeError):
        perturb_wave_evaluation(weo, [delta], [1.0])


def test_cfs_lagrangian_symmetry_and_consistency():
    from cvpert.lagrangian import build_lagrangian

    lag = build_lagrangian("cfs", {"hilbert_dim": 2, "spin_dim": 1,
                                   "trace_constant": 1.0, "kappa": 0.1})
    rng = np.random.default_rng(11)
    for _ in range(10):
        za = 0.1 * rng.normal(size=lag.dim)
        zb = 0.1 * rng.normal(size=lag.dim)
        assert lag(za, zb) == pytest.approx(lag(zb, za), rel=1e-10, abs=1e-12)
    chart = lag.chart
    x0 = chart.point(np.zeros(3))
    val, _ = causal_lagrangian(x0, x0, lag.cfs_params)
    assert lag(np.zeros(3), np.zeros(3)) == pytest.approx(val, rel=1e-12)


def test_two_point_toy_critical_in_protected_directions():
    """Swap-symmetric diagonal pair: diagonal phase conjugation fixes both
    points, so the EL gradient vanishes in every off-diagonal chart
    direction; scalar rows vanish after calibration by the flip symmetry."""
    from cvpert import DiscreteMeasure, Jet, TestBasis, calibrate_nu
    from cvpert.el import weak_el_residual
    from cvpert.lagrangian import build_lagrangian

    params = CfsParams(2, 1, 1.0, kappa=0.1)
    x1, x2 = swap_symmetric_pair(params, b=0.25)
    # chart centered on the flip-invariant Hadamard conjugate so both points
    # are covered with a regular differential
    H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    chart = CfsChart(params, spin_map_from_point(H @ x1 @ H, 1))
    lag = build_lagrangian("cfs", {"hilbert_dim": 2, "spin_dim": 1,
                                   "trace_constant": 1.0, "kappa": 0.1,
                                   "chart": chart})
    z1 = chart.coords(x1)
    z2 = chart.coords(x2)
    mu = DiscreteMeasure(np.vstack([z1, z2]), np.ones(2))
    nu = calibrate_nu(mu, lag, tol=1e-8)
    assert nu > 0

    # protected directions: per-point chart preimages of the off-diagonal
    # operator directions (the phase-symmetry orbits)
    def op_vec(mat):
        return np.concatenate([mat.real.ravel(), mat.imag.ravel()])

    targets = [np.array([[0, 1], [1, 0]], dtype=complex),
               np.array([[0, 1j], [-1j, 0]], dtype=complex)]

    def chart_jacobian_at(z):
        h = 1e-6
        cols = []
        for k in range(chart.dim):
            dz = np.zeros(chart.dim)
            dz[k] = h
            cols.append(op_vec(chart.point(z + dz) - chart.point(z - dz)) / (2 * h))
        return np.array(cols).T

    jets = [Jet(np.ones(2), np.zeros((2, 3)))]
    for i, z in enumerate([z1, z2]):
        jac = chart_jacobian_at(z)
        for tgt in targets:
            pre, *_ = np.linalg.lstsq(jac, op_vec(tgt), rcond=None)
            assert np.linalg.norm(jac @ pre - op_vec(tgt)) <= 1e-6
            vec = np.zeros((2, 3))
            vec[i] = pre
            jets.append(Jet(np.zeros(2), vec))
    tb = TestBasis(jets)
    res = weak_el_residual(mu, lag, nu, tb)
    assert np.max(np.abs(res)) <= 1e-6


def test_point_json_round_trip(rng):
    params = CfsParams(3, 1, 1.0)
    x = random_point(rng, params)
    back = point_from_json(point_to_json(x))
    assert np.max(np.abs(back - x)) == 0.0


@pytest.mark.parametrize("f,n", [(2, 1), (4, 2)])
def test_dR_of_a_stack_is_each_directions_own_derivative(f, n, rng):
    # reference: DR along one direction e at psi, written out per direction
    params = CfsParams(f, n, 1.3)
    chart = CfsChart(params, spin_map_from_point(random_point(rng, params), n))
    psi = chart.psi0 + 0.1 * chart.basis[0]
    directions = np.array(chart.basis + [1j * e for e in chart.basis])
    c = params.trace_constant
    M = spin_adjoint(psi, n) @ psi
    t = np.trace(M).real
    for e, got in zip(directions, chart._dR(directions, psi)):
        dM = spin_adjoint(e, n) @ psi + spin_adjoint(psi, n) @ e
        assert np.array_equal(got, (c / t) * dM - (c * np.trace(dM).real / t ** 2) * M)
