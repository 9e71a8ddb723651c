"""Jets: multi-jet arithmetic per subsystem and the order of the full test basis."""

import numpy as np
import pytest

from cvpert.jets import Jet, MultiJet, TestBasis

A = MultiJet([Jet([1.0, 2.0], [[0.5], [-1.0]]), Jet([0.0, -3.0], [[2.0], [0.25]])])
B = MultiJet([Jet([4.0, 0.5], [[1.0], [1.0]]), Jet([1.0, 1.0], [[-2.0], [0.75]])])


def test_multijet_sum_adds_subsystem_by_subsystem():
    total = A + B
    assert isinstance(total, MultiJet) and total.n_subsystems == 2
    assert np.array_equal(total.flatten(), A.flatten() + B.flatten())


@pytest.mark.parametrize("scale", [lambda mj: mj * -2.5, lambda mj: -2.5 * mj],
                         ids=["mul", "rmul"])
def test_multijet_scaling_scales_every_subsystem(scale):
    scaled = scale(A)
    assert isinstance(scaled, MultiJet) and scaled.n_subsystems == 2
    assert np.array_equal(scaled.flatten(), -2.5 * A.flatten())


@pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (3, 2)])
def test_full_basis_is_the_identity_in_flatten_order(n, m):
    # jet k of the full basis flattens to row k of the identity: point major,
    # the scalar slot before the m vector slots
    basis = TestBasis.full(n, m)
    assert basis.full_space and len(basis) == n * (1 + m)
    for k, jet in enumerate(basis.jets):
        assert jet.scalar.shape == (n,) and jet.vector.shape == (n, m)
        assert np.array_equal(jet.flatten(), np.eye(n * (1 + m))[k])


def test_basis_length_counts_its_jets():
    assert len(TestBasis([Jet(np.ones(2), np.zeros((2, 1)))])) == 1
