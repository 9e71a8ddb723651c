"""One support sum for ell, grad ell and Hess ell (``el.ell_field``).

The oracles below are the routes ``ell_field`` replaced: one ``_integrate``
per partial table, and Delta's diagonal blocks summed by ``L @ weights``
and two ``einsum`` calls over stacked partial tables.
"""

import itertools
from operator import add

import numpy as np
import pytest

from cvpert import build_lagrangian
from cvpert.el import _integrate, ell_field
from cvpert.linops import _pointwise_blocks
from cvpert.measure import pair_reader

NU = 0.3


def supports():
    """(model, points, weights); the last support has a coincident pair and
    a massless point, as a flattened fragmented support may."""
    rng = np.random.default_rng(11)
    plane = build_lagrangian("example52_regularized")
    cube = 2.0 * np.sqrt(2.0) * np.array(list(itertools.product([-1.0, 1.0], repeat=5)))
    points = rng.normal(size=(4, 2))
    return {
        "example52-generic": (plane, rng.normal(size=(5, 2)), rng.uniform(0.5, 1.5, 5)),
        "quartic-5d-cube": (build_lagrangian("quartic_pair", {"dim": 5}), cube,
                            np.full(len(cube), 0.7)),
        "coincident-massless": (plane, np.vstack([points, points[:1]]),
                                np.array([0.5, 1.0, 0.0, 0.8, 0.25])),
    }


def multi_indices(m):
    units = [tuple(e) for e in np.eye(m, dtype=int).tolist()]
    return (0,) * m, units


def oracle_blocks(weights, lagrangian, nu, convention, table):
    """Delta's pointwise blocks with the diagonal sums of ell, grad ell and
    Hess ell taken by BLAS and einsum over stacked tables."""
    n, m = len(weights), lagrangian.dim
    zero, units = multi_indices(m)
    D1 = np.stack([table(e, zero) for e in units], axis=-1)
    D11 = np.empty((n, n, m, m))
    for a in range(m):
        for b in range(a, m):
            D11[:, :, a, b] = D11[:, :, b, a] = table(tuple(map(add, units[a], units[b])), zero)
    ells = table(zero, zero) @ weights - nu / 2.0
    gsum = np.einsum("j,ija->ia", weights, D1)
    hsum = np.einsum("j,ijab->iab", weights, D11)
    A = np.empty((n, 1 + m, n, 1 + m))
    for (s, alpha), (t, beta) in itertools.product(enumerate([zero] + units), repeat=2):
        A[:, s, :, t] = weights * table(alpha, beta)
    i = np.arange(n)
    if convention == "standard":
        A[i, 0, i, 0] += ells
        A[i, 1:, i, 0] += gsum
    A[i, 0, i, 1:] += gsum
    A[i, 1:, i, 1:] += hsum
    return A.reshape(n * (1 + m), n * (1 + m))


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(supports()))
def test_ell_field_is_one_integral_per_table_bit_for_bit(name, order):
    lagrangian, points, weights = supports()[name]
    table = pair_reader(lagrangian, points)
    zero, units = multi_indices(lagrangian.dim)
    got = ell_field(lagrangian, NU, weights, table, order)
    assert len(got) == order + 1
    assert np.array_equal(got[0], _integrate(table(zero, zero), weights) - NU / 2.0)
    for a, b in itertools.product(range(lagrangian.dim), repeat=2):
        if order >= 1:
            assert np.array_equal(got[1][:, a], _integrate(table(units[a], zero), weights))
        if order == 2:
            hess = _integrate(table(tuple(map(add, units[a], units[b])), zero), weights)
            assert np.array_equal(got[2][:, a, b], hess)


@pytest.mark.parametrize("convention", ["standard", "breve"])
@pytest.mark.parametrize("name", sorted(supports()))
def test_pointwise_blocks_match_einsum_sums(name, convention):
    lagrangian, points, weights = supports()[name]
    table = pair_reader(lagrangian, points)
    got = _pointwise_blocks(weights, lagrangian, NU, convention, table)
    want = oracle_blocks(weights, lagrangian, NU, convention, table)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
