"""The Gauss-Newton mixing descent: its tangent directions, its steps within
a subgroup, its iteration count and the sample counts of a subgroup."""

import numpy as np
import pytest

from cvpert import mixing
from cvpert.mixing import SubgroupSample, minimize_mixing, orbit_sample_from_generators

SU2_ON_FIRST_TWO = [np.diag([1j, -1j, 0.0]),
                    np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=complex)]


def recorded_expm(monkeypatch):
    """Every argument handed to ``mixing.expm`` from now on, in call order."""
    args, expm = [], mixing.expm
    monkeypatch.setattr(mixing, "expm", lambda A: args.append(np.array(A)) or expm(A))
    return args


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_full_group_directions_are_an_orthonormal_basis_of_u_L(L):
    T = mixing._tangent_units(L, None)
    assert T.shape == (L * L, L, L)
    assert np.max(np.abs(T + T.conj().swapaxes(1, 2))) == 0.0
    gram = np.einsum("kij,lij->kl", T.conj(), T)
    assert np.max(np.abs(gram - np.eye(L * L))) <= 1e-15


def test_subgroup_steps_lie_in_the_span_of_the_generators(monkeypatch):
    args = recorded_expm(monkeypatch)
    minimize_mixing(3, subgroup=SubgroupSample(SU2_ON_FIRST_TWO), restarts=12, seed=2)
    assert len(args) > 1  # the starts, then at least one step
    G = np.stack(SU2_ON_FIRST_TWO).reshape(2, -1)
    basis = np.concatenate([G.real, G.imag], axis=1).T  # real coordinates of the span
    for A in args:
        flat = A.reshape(len(A), -1)
        X = np.concatenate([flat.real, flat.imag], axis=1).T
        coeffs = np.linalg.lstsq(basis, X, rcond=None)[0]
        assert np.max(np.abs(basis @ coeffs - X)) <= 1e-14


@pytest.mark.parametrize("seed", [0, 3, 101])
@pytest.mark.parametrize("L", [2, 3])
def test_fifty_restarts_converge_within_ten_exponentials(L, seed, monkeypatch):
    args = recorded_expm(monkeypatch)
    val, U, trace = minimize_mixing(L, restarts=50, seed=seed)
    assert len(args) <= 10
    assert all(v == float(L) for v in trace) and val == float(L)


@pytest.mark.parametrize("L", [4, 5])
def test_every_restart_reads_L_in_higher_dimensions(L):
    _, _, trace = minimize_mixing(L, restarts=50, seed=7)
    assert all(v == float(L) for v in trace)


def test_a_subgroup_sample_of_zero_is_empty():
    sub = SubgroupSample(SU2_ON_FIRST_TWO, budget=5)
    rng = np.random.default_rng(0)
    assert sub.sample(rng, 0) == []
    assert len(sub.sample(rng)) == 5
    assert orbit_sample_from_generators(SU2_ON_FIRST_TWO, rng, 0) == []
