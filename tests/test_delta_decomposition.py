"""One decomposition per Delta: the Green's operator, the kernel basis and
the singular values all read ``DeltaMatrix.decomposition``."""

import itertools
import math

import numpy as np
import pytest

from cvpert import DiscreteMeasure, TestBasis, build_lagrangian, calibrate_nu
from cvpert.jets import DualJet, Jet
from cvpert.linops import TOL_RANK, DeltaMatrix, GreensOperator, assemble_delta, kernel_basis


def wide_support_delta():
    """Delta at the 32 vertices {+-2 sqrt 2}^5 of the 5-d quartic pair model,
    symmetric with a 26-dimensional kernel."""
    lag = build_lagrangian("quartic_pair", {"dim": 5})
    points = 2.0 * math.sqrt(2.0) * np.array(list(itertools.product([-1.0, 1.0], repeat=5)))
    mu = DiscreteMeasure(points, np.full(32, 1.3))
    return assemble_delta(mu, lag, calibrate_nu(mu, lag))


def small_measure(rng):
    return DiscreteMeasure(rng.normal(size=(3, 2)) * 0.5, rng.uniform(0.5, 1.5, 3))


def random_basis(rng, count):
    return TestBasis([Jet(rng.normal(size=3), rng.normal(size=(3, 2))) for _ in range(count)])


def count_factorizations(monkeypatch):
    calls = []
    for name in ("eigh", "svd"):
        inner = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _n=name, _f=inner, **k: calls.append(_n) or _f(*a, **k))
    return calls


@pytest.mark.parametrize("kind, routine", [("symmetric", "eigh"), ("breve", "svd"),
                                           ("test rows", "svd")])
def test_each_delta_is_decomposed_once(kind, routine, example52_reg, rng, monkeypatch):
    if kind == "symmetric":
        delta = wide_support_delta()
    else:
        mu = small_measure(rng)
        delta = (assemble_delta(mu, example52_reg, 0.2, convention="breve") if kind == "breve"
                 else assemble_delta(mu, example52_reg, 0.2, testbasis=random_basis(rng, 2)))
    calls = count_factorizations(monkeypatch)
    plain = GreensOperator(delta)
    strict = GreensOperator(delta, strict=True)
    kb = kernel_basis(delta)
    report = delta.singular_value_report()
    norm = delta.operator_norm()
    assert calls == [routine]
    assert plain.health() == strict.health()
    assert norm == report[0] == plain.health()["sigma_max"]
    assert len(kb) == delta.size - plain.health()["rank"]


def test_wide_test_row_kernel_matches_the_full_svd(example52, example52_reg, dirac_origin_2d,
                                                   rng):
    # generic rows have full row rank, so the kernel is the complement of the
    # row space; at the origin Dirac of example52 the rows vanish and the
    # kernel is the whole jet space
    origin = TestBasis([Jet(np.array([1.0]), np.array([[0.3, -0.2]]))])
    for delta in (assemble_delta(small_measure(rng), example52_reg, 0.2,
                                 testbasis=random_basis(rng, 2)),
                  assemble_delta(dirac_origin_2d, example52, 0.0, testbasis=origin)):
        rows = delta.test_rows
        assert rows.shape[0] < rows.shape[1]
        _, s, vt = np.linalg.svd(rows)
        ref = vt[int(np.sum(s > TOL_RANK * s[0])):]
        got = np.array([j.flatten() for j in kernel_basis(delta).jets])
        assert got.shape == ref.shape
        assert np.max(np.abs(got @ got.T - np.eye(len(got)))) <= 1e-12
        assert np.max(np.abs(got.T @ got - ref.T @ ref)) <= 1e-12


def test_a_stack_is_decomposed_and_solved_start_by_start(example52_reg, rng, monkeypatch):
    # three starts of one size: a full-rank symmetric Delta, one with a
    # zeroed row and column (rank one less) and a non-symmetric one; a stack
    # with a non-symmetric start takes one SVD of all its starts.  Symmetric
    # starts solve as if alone, bit for bit, also when their ranks differ
    full = assemble_delta(small_measure(rng), example52_reg, 0.2)
    cut = full.matrix.copy()
    cut[-1], cut[:, -1] = 0.0, 0.0
    skew = full.matrix + 1e-6 * np.triu(np.ones_like(full.matrix))
    alone = [DeltaMatrix(m, 0.2, full.weights) for m in (full.matrix, cut, skew)]

    def stacked(deltas):
        return DeltaMatrix(np.stack([d.matrix for d in deltas]), 0.2,
                           np.stack([d.weights for d in deltas]))

    mixed = stacked(alone)
    calls = count_factorizations(monkeypatch)
    GreensOperator(mixed)
    assert calls == ["svd"]
    monkeypatch.undo()
    assert mixed.rank().tolist() == [d.rank() for d in alone] == [9, 8, 9]
    dual = DualJet(rng.normal(size=(2, 3)), rng.normal(size=(2, 3, 2)))
    for deltas in (alone[:2], alone[1:]):  # ranks 9 and 8 by eigh; then one SVD of both kinds
        jets, defects = GreensOperator(stacked(deltas)).apply(dual)
        for g, d in enumerate(deltas):
            jet, defect = GreensOperator(d).apply(DualJet(dual.scalar[g], dual.vector[g]))
            if deltas[0] is alone[0]:
                assert np.array_equal(jets.flatten()[g], jet.flatten())
                assert defects[g] == defect
            assert np.allclose(jets.flatten()[g], jet.flatten(), rtol=1e-12, atol=0.0)


def test_a_rank_zero_start_solves_as_if_alone(example52_reg, rng):
    # a zero Delta (rank 0) stacked with a full-rank one: the kept-value mask
    # gives w = 0 and the whole right-hand side as defect for the zero start,
    # and each start equals its solo solve bit for bit
    full = assemble_delta(small_measure(rng), example52_reg, 0.2)
    alone = [DeltaMatrix(np.zeros_like(full.matrix), 0.2, full.weights),
             DeltaMatrix(full.matrix, 0.2, full.weights)]
    stack = DeltaMatrix(np.stack([d.matrix for d in alone]), 0.2,
                        np.stack([d.weights for d in alone]))
    assert stack.rank().tolist() == [0, 9]
    dual = DualJet(rng.normal(size=(2, 3)), rng.normal(size=(2, 3, 2)))
    jets, defects = GreensOperator(stack).apply(dual)
    for g, d in enumerate(alone):
        jet, defect = GreensOperator(d).apply(DualJet(dual.scalar[g], dual.vector[g]))
        assert np.array_equal(jets.flatten()[g], jet.flatten())
        assert defects[g] == defect
    assert not np.any(jets.flatten()[0]) and defects[0] == 1.0
