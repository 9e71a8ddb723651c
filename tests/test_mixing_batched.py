"""The batched mixing descent and the eigh exponential against the scalar
per-restart descent with scipy's Pade exponential."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import cvpert
from cvpert import mixing
from cvpert.errors import ArgError, NotUnitary, ShapeError
from cvpert.mixing import SubgroupSample, check_unitary, minimize_mixing, mixing_functional

SU2_ON_FIRST_TWO = [np.diag([1j, -1j, 0.0]),
                    np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=complex)]


def oracle_starts(L, generators, restarts, seed):
    """Restart k: identity for k = 0, else Haar or exp(sum_g c_g X_g) from default_rng(seed + k)."""
    starts, combos = [], []
    for k in range(restarts):
        rng = np.random.default_rng(seed + k)
        if generators is None:
            starts.append(np.eye(L, dtype=complex) if k == 0 else mixing.haar_unitary(rng, L))
        else:
            A = sum(rng.normal() * g for g in generators) if k else np.zeros((L, L), dtype=complex)
            combos.append(A)
            starts.append(scipy.linalg.expm(A))
    return starts, combos


def oracle_minimize(L, generators, restarts, seed, iters=200):
    """One restart at a time: the scalar retraction descent with scipy's expm."""
    if generators is None:
        def project(K):
            return K
    else:
        units = [g / np.linalg.norm(g) for g in generators]

        def project(K):
            proj = np.zeros_like(K)
            for gn in units:
                proj += np.real(np.sum(np.conj(gn) * K)) * gn
            return proj

    def descend(U):
        val = mixing_functional(U)
        step = 0.5
        for _ in range(iters):
            z = U @ np.ones(L, dtype=complex)
            G = 2.0 * (np.abs(z) ** 2 * z)[:, None] @ np.ones((1, L))
            K = U.conj().T @ G
            K = project((K - K.conj().T) / 2.0)
            if np.max(np.abs(K)) < 1e-12:
                break
            cand = U @ scipy.linalg.expm(-step * K)
            cval = mixing_functional(cand)
            if cval < val - 1e-15:
                U, val = cand, cval
                step = min(step * 1.2, 1.0)
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        return val

    return [descend(U0) for U0 in oracle_starts(L, generators, restarts, seed)[0]]


CASES = [(2, None, 50), (3, None, 50), (3, SU2_ON_FIRST_TWO, 12)]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("L, generators, restarts", CASES)
def test_starting_points_are_the_oracle_draws(L, generators, restarts, seed, monkeypatch):
    sub = None if generators is None else SubgroupSample(generators)
    combined, expm = [], mixing.expm

    def recording_expm(A):
        combined.append(A)
        return expm(A)

    monkeypatch.setattr(mixing, "expm", recording_expm)
    starts = mixing._starting_points(L, sub, restarts, seed)
    want, want_combos = oracle_starts(L, generators, restarts, seed)
    if generators is None:
        assert np.array_equal(starts, np.array(want))
        assert not combined
    else:
        # the drawn generator combinations are bit-identical; only the exponential differs
        assert np.array_equal(combined[0], np.array(want_combos))
        assert np.max(np.abs(starts - np.array(want))) <= 1e-13


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("L, generators, restarts", CASES)
def test_batched_descent_matches_scalar_oracle(L, generators, restarts, seed):
    sub = None if generators is None else SubgroupSample(generators)
    val, U, trace = minimize_mixing(L, subgroup=sub, restarts=restarts, seed=seed)
    want = oracle_minimize(L, generators, restarts, seed)
    assert len(trace) == restarts and all(type(v) is float for v in trace)
    assert np.max(np.abs(np.array(trace) - want) / np.abs(want)) <= 1e-12
    assert abs(val - min(want)) <= 1e-12 * min(want)
    assert val == min(trace)
    assert abs(mixing_functional(U) - val) <= 1e-15 * val
    check_unitary(U)


def test_zero_iterations_return_the_starting_values():
    starts = mixing._starting_points(3, None, 6, 4)
    val, U, trace = minimize_mixing(3, restarts=6, iters=0, seed=4)
    want = [mixing_functional(S) for S in starts]
    assert np.max(np.abs(np.array(trace) - want) / want) <= 1e-15
    assert val == 3.0 and np.array_equal(U, np.eye(3))


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
def test_expm_matches_scipy_on_anti_hermitian_stacks(L):
    rng = np.random.default_rng(100 + L)
    Z = rng.normal(size=(16, L, L)) + 1j * rng.normal(size=(16, L, L))
    A = (Z - Z.conj().swapaxes(1, 2)) / 2.0
    got = mixing.expm(A)
    want = np.array([scipy.linalg.expm(a) for a in A])
    assert got.shape == A.shape
    assert np.max(np.abs(got - want)) <= 1e-13
    single = mixing.expm(A[0])
    assert single.shape == (L, L)
    assert np.max(np.abs(single - want[0])) <= 1e-13


def test_expm_rejects_non_anti_hermitian_input():
    A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # Hermitian
    with pytest.raises(ShapeError):
        mixing.expm(A)
    with pytest.raises(ShapeError):  # one bad member spoils the stack
        mixing.expm(np.stack([1j * A, A]))
    with pytest.raises(ShapeError):
        mixing.expm(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        SubgroupSample([A])


def test_subgroup_sample_draws_the_per_sample_coefficients():
    sub = SubgroupSample(SU2_ON_FIRST_TWO, budget=20)
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    got = sub.sample(rng)
    want = []
    for _ in range(20):
        coeffs = ref.normal(size=len(SU2_ON_FIRST_TWO))
        want.append(scipy.linalg.expm(sum(c * g for c, g in zip(coeffs, SU2_ON_FIRST_TWO))))
    assert isinstance(got, list) and len(got) == 20
    assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-13
    assert rng.normal() == ref.normal()  # same stream position afterwards


def test_functional_and_unitarity_check_on_stacks(rng):
    stack = np.array([mixing.haar_unitary(rng, 3) for _ in range(5)])
    values = mixing_functional(stack)
    assert isinstance(values, np.ndarray) and values.shape == (5,)
    for U, v in zip(stack, values):
        single = mixing_functional(U)
        assert type(single) is float
        assert abs(single - v) <= 1e-14 * v
    assert np.array_equal(check_unitary(stack), stack)
    bad = stack.copy()
    bad[3] *= 1.1
    with pytest.raises(NotUnitary):
        mixing_functional(bad)
    with pytest.raises(ShapeError):
        check_unitary(np.zeros((2, 3, 4)))


@pytest.mark.parametrize("L", [0, -1, 2.0, True])
def test_minimize_rejects_bad_dimension(L):
    with pytest.raises(ShapeError):
        minimize_mixing(L)


@pytest.mark.parametrize("restarts", [0, 2.5])
def test_minimize_rejects_bad_restart_count(restarts):
    with pytest.raises(ShapeError):
        minimize_mixing(2, restarts=restarts)


@pytest.mark.parametrize("name, value", [("iters", -1), ("iters", 1.5), ("iters", None),
                                         ("seed", -5), ("seed", 2.5), ("seed", "3")])
def test_minimize_rejects_bad_iteration_count(name, value):
    with pytest.raises(ArgError, match=f"{name} must be an integer >= 0"):
        minimize_mixing(2, **{name: value})


def test_minimize_rejects_generators_of_another_size():
    with pytest.raises(ShapeError):
        minimize_mixing(2, subgroup=SubgroupSample(SU2_ON_FIRST_TWO))


def test_cli_import_loads_no_scipy_linalg():
    # scipy.linalg costs about a third of the import time of the command line
    code = "import sys, cvpert.cli; print('scipy.linalg' in sys.modules)"
    src = str(Path(cvpert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
