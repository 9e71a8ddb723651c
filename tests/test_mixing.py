import numpy as np
import pytest

from cvpert.cfs import CfsParams, WaveEvaluation, causal_action
from cvpert.errors import NotOnMinimalStratum, NotUnitary
from cvpert.mixing import (MixingSystem, SubgroupSample, check_unitary,
                           counterexample_family,
                           decompose_diagonal_orthogonal, gap_to_infimum,
                           haar_unitary, minimize_mixing, mixed_kernel, mixing_functional,
                           orbit_sample_from_generators, unitary_pushforward)


def diag_points(rng, params, count):
    from tests.test_cfs import random_point

    return [random_point(rng, params) for _ in range(count)]


def test_check_unitary_rejects():
    with pytest.raises(NotUnitary):
        check_unitary(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_unitary_pushforward_identity(rng):
    params = CfsParams(3, 1, 1.0)
    pts = diag_points(rng, params, 2)
    new, wts = unitary_pushforward(pts, [1.0, 2.0], np.eye(3))
    for a, b in zip(new, pts):
        assert np.array_equal(a, b)
    assert np.array_equal(wts, [1.0, 2.0])


def test_unitary_pushforward_diag_phase_fixes_diag_points():
    params = CfsParams(2, 1, 1.0)
    pts = [np.diag([1.25, -0.25]).astype(complex)]
    V = np.diag([1.0, np.exp(0.7j)])
    new, _ = unitary_pushforward(pts, [1.0], V)
    assert np.max(np.abs(new[0] - pts[0])) <= 1e-15


def test_unitary_pushforward_preserves_action(rng):
    params = CfsParams(3, 1, 1.0, kappa=0.2)
    pts = diag_points(rng, params, 3)
    wts = [1.0, 0.5, 2.0]
    V = haar_unitary(rng, 3)
    new, _ = unitary_pushforward(pts, wts, V)
    S0, T0 = causal_action(pts, wts, params)
    S1, T1 = causal_action(new, wts, params)
    assert abs(S1 - S0) <= 1e-9 * max(1.0, abs(S0))
    assert abs(T1 - T0) <= 1e-9 * max(1.0, abs(T0))
    # spectra of the points are untouched
    for a, b in zip(new, pts):
        assert np.allclose(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b), atol=1e-10)


def test_mixed_kernel_reductions(rng):
    params = CfsParams(3, 1, 1.0)
    pts = diag_points(rng, params, 2)
    weo = WaveEvaluation.from_points(pts, params)
    plain = weo.kernel(0, 1)

    system = MixingSystem([np.eye(3), np.eye(3)], weo)
    assert np.allclose(mixed_kernel(system, 0, 1, 0, 1), plain)

    Va = haar_unitary(rng, 3)
    system2 = MixingSystem([Va, haar_unitary(rng, 3)], weo)
    assert np.allclose(mixed_kernel(system2, 0, 0, 0, 1), plain, atol=1e-12)


def test_mixed_kernel_rank_one_difference(rng):
    params = CfsParams(4, 1, 1.0)
    pts = diag_points(rng, params, 2)
    weo = WaveEvaluation.from_points(pts, params)
    # V_a and V_b differ by a rank-one rotation in one Hilbert plane
    theta = 0.3
    Va = np.eye(4, dtype=complex)
    G = np.zeros((4, 4), dtype=complex)
    G[0, 1], G[1, 0] = 1.0, -1.0
    from scipy.linalg import expm

    Vb = expm(theta * G)
    system = MixingSystem([Va, Vb], weo)
    diff = mixed_kernel(system, 0, 1, 0, 1) - mixed_kernel(system, 0, 0, 0, 1)
    # sandwiched difference has rank <= rank(Va Vb* - 1) = 2
    s = np.linalg.svd(diff, compute_uv=False)
    assert np.sum(s > 1e-10 * s[0]) <= 2


def test_mixing_functional_values():
    for L in (2, 3, 5):
        assert mixing_functional(np.eye(L)) == pytest.approx(L, abs=1e-12)
    U = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
    assert mixing_functional(U) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(NotUnitary):
        mixing_functional(np.eye(2) * 1.1)


def test_counterexample_family_constant():
    for t in np.linspace(0.0, 2 * np.pi, 21):
        U = counterexample_family(t)
        check_unitary(U)
        assert abs(mixing_functional(U) - 2.0) <= 1e-12
        assert np.max(np.abs(np.abs(U @ np.ones(2)) - 1.0)) <= 1e-12


def test_lower_bound_random_unitaries(rng):
    for L in (2, 3, 4):
        for _ in range(300):
            assert mixing_functional(haar_unitary(rng, L)) >= L - 1e-9


def test_gap_to_infimum_is_the_functional_minus_L():
    rng = np.random.default_rng(7)
    for L in (2, 3, 4):
        for _ in range(50):
            U = haar_unitary(rng, L)
            gap = gap_to_infimum(U)
            assert gap >= 0.0
            assert abs(gap - (mixing_functional(U) - L)) <= 1e-12 * L
    assert gap_to_infimum(np.eye(3)) == 0.0
    assert gap_to_infimum(counterexample_family(0.7)) <= 1e-28


def test_gap_to_infimum_gives_one_value_per_matrix_of_a_stack():
    rng = np.random.default_rng(3)
    stack = np.stack([haar_unitary(rng, 3) for _ in range(5)])
    gaps = gap_to_infimum(stack)
    assert gaps.shape == (5,)
    assert gaps.tolist() == [gap_to_infimum(U) for U in stack]


@pytest.mark.parametrize("L", [2, 3])
def test_converged_restarts_stop_descending(L, monkeypatch):
    # steps are accepted on the gap, which has no rounding floor at the
    # infimum, so restarts at L stop instead of stepping on rounding noise
    from cvpert import mixing

    calls = []
    expm = mixing.expm
    monkeypatch.setattr(mixing, "expm", lambda A: calls.append(1) or expm(A))
    val, U, trace = mixing.minimize_mixing(L, restarts=50, seed=101)
    assert len(calls) < 50
    assert val == min(trace) and gap_to_infimum(U) <= 1e-20


def test_minimal_stratum_characterization(rng):
    # |functional - L| small iff all |(Uv)^a| near 1
    for L in (2, 3):
        for _ in range(500):
            U = haar_unitary(rng, L)
            val = mixing_functional(U)
            mods = np.abs(U @ np.ones(L))
            if abs(val - L) <= 1e-9:
                assert np.max(np.abs(mods - 1.0)) <= 1e-5
            if np.max(np.abs(mods - 1.0)) > 1e-2:
                assert val > L + 1e-9


@pytest.mark.parametrize("L", [2, 3])
def test_minimize_full_group(L):
    val, U, trace = minimize_mixing(L, restarts=8, seed=3)
    assert abs(val - L) <= 1e-6
    check_unitary(U)
    assert len(trace) == 8


def test_minimize_trivial_subgroup():
    gens = [np.zeros((3, 3), dtype=complex)]
    sub = SubgroupSample(gens)
    val, U, _ = minimize_mixing(3, subgroup=sub, restarts=2)
    assert val == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(U, np.eye(3))


def test_decompose_diagonal_phases(rng):
    L = 3
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=L))
    U = np.diag(phases)
    orbit = [np.ones(L, dtype=complex)]
    out = decompose_diagonal_orthogonal(U, orbit)
    assert out.ok
    assert np.allclose(out.orthogonal, np.eye(L), atol=1e-12)
    assert np.allclose(out.diagonal @ out.orthogonal, U, atol=1e-12)


def test_decompose_counterexample_family(rng):
    # orbit of the U_t family through v is the circle e^{it} (1, 1)
    ts = rng.uniform(0, 2 * np.pi, size=16)
    orbit = [counterexample_family(s) @ np.ones(2) for s in ts]
    U = counterexample_family(0.77)
    out = decompose_diagonal_orthogonal(U, orbit)
    assert out.ok
    assert np.allclose(np.diag(out.diagonal), np.exp(0.77j) * np.ones(2), atol=1e-12)
    assert np.max(np.abs(out.diagonal @ out.orthogonal - U)) <= 1e-10
    # U_perp fixes span{(1,1)}
    w = np.ones(2) / np.sqrt(2)
    assert np.max(np.abs(out.orthogonal @ w - w)) <= 1e-10


def test_decompose_rejects_off_stratum():
    U = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
    with pytest.raises(NotOnMinimalStratum):
        decompose_diagonal_orthogonal(U, [np.ones(2)])


def test_decompose_uniqueness(rng):
    # any alternative diagonal factor fails to reproduce Uv
    U = counterexample_family(1.1)
    out = decompose_diagonal_orthogonal(U, [np.ones(2, dtype=complex)])
    zd = np.diag(out.diagonal)
    alt = np.diag(zd * np.exp(1j * np.array([0.2, 0.0])))
    assert np.max(np.abs(alt @ (alt.conj().T @ U) - U)) <= 1e-12  # trivially
    # but the defining relation U v = U^d v now fails
    v = np.ones(2, dtype=complex)
    assert np.max(np.abs(alt @ v - U @ v)) > 1e-2
    assert np.max(np.abs(out.diagonal @ v - U @ v)) <= 1e-12


def test_orbit_sampling_cyclicity(rng):
    # diagonal phase generators make v cyclic in the sampled-rank sense
    gens = [1j * np.diag([1.0, 0, 0]), 1j * np.diag([0, 1.0, 0]),
            1j * np.diag([0, 0, 1.0])]
    orbit = orbit_sample_from_generators(gens, rng, count=32)
    rank = np.linalg.matrix_rank(np.array(orbit), tol=1e-8)
    assert rank == 3


def test_minimize_subgroup_stays_in_subgroup():
    # SU(2) on the first two coordinates: the descent is projected onto the
    # generators, so the minimizer keeps the block form and reaches 1 + 1 + 1
    g1 = np.diag([1j, -1j, 0.0])
    g2 = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=complex)
    val, U, trace = minimize_mixing(3, subgroup=SubgroupSample([g1, g2]), restarts=4, seed=1)
    assert abs(val - 3.0) <= 1e-6
    assert len(trace) == 4
    assert abs(U[2, 2] - 1.0) <= 1e-10
    assert np.max(np.abs(U[2, :2])) <= 1e-10 and np.max(np.abs(U[:2, 2])) <= 1e-10
    assert abs(np.linalg.det(U[:2, :2]) - 1.0) <= 1e-10
