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



def pairwise_gram(jets):
    """The Gram matrix one pair of flattened jets at a time."""
    return np.array([[float(a.flatten() @ b.flatten()) for b in jets] for a in jets])


def checked_gram(monkeypatch, jets):
    """The Gram matrix whose rank ``TestBasis`` checks."""
    seen = []
    matrix_rank = np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank",
                        lambda gram, **kw: seen.append(gram) or matrix_rank(gram, **kw))
    TestBasis(jets)
    return seen[0]


def test_full_basis_gram_is_the_pairwise_gram(monkeypatch):
    jets = TestBasis.full(6, 2).jets
    assert np.array_equal(checked_gram(monkeypatch, jets), pairwise_gram(jets))


def test_basis_gram_is_the_pairwise_gram_to_rounding(monkeypatch, rng):
    # one product of the stacked jets sums each entry in another order than
    # the pairwise dot products: equal to rounding of a length-9 sum
    jets = [Jet(rng.normal(size=3), rng.normal(size=(3, 2))) for _ in range(5)]
    want = pairwise_gram(jets)
    np.testing.assert_allclose(checked_gram(monkeypatch, jets), want, rtol=0.0,
                               atol=1e-14 * np.max(np.abs(want)))
