"""Close-pair search and merging against the sorts they replaced, bit for bit.

``close_pairs`` orders each candidate pair with ``np.minimum``/``np.maximum``
and the found pairs with one stable argsort of their flat index;
``merge_close`` reads the kept rows off the fixed point of its min-label
propagation.  The references below are the former code, kept as written
(a row sort, ``np.lexsort`` and ``np.unique``), and the new code must give
the same pairs, kept points and summed weights exactly.  A second group
runs every merging caller with those three numpy sorts made to raise.
"""

import itertools

import numpy as np
import pytest

from cvpert import measure
from cvpert.fragmentation import FragmentedMeasure
from cvpert.measure import (TOL_POINT_MERGE, DiscreteMeasure, SupportStack, _keys, close_pairs,
                            merge_close, push_forward)
from tests.test_bench_workloads import WORKLOADS


def reference_close_pairs(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        return np.empty((0, 2), dtype=np.intp)
    keys, reach = _keys(pts)
    order = np.argsort(keys, kind="stable")
    key, pos = keys[order], np.arange(len(pts))
    width = np.searchsorted(key, key + reach, side="right") - pos
    found = [np.empty((0, 2), dtype=np.intp)]
    if width.max() < 2:
        return found[0]
    for k in range(1, int(width.max())):
        s = pos[width > k]
        ij = np.sort(np.stack([order[s], order[s + k]], axis=1), axis=1)
        near = np.max(np.abs(pts[ij[:, 0]] - pts[ij[:, 1]]), axis=1) <= TOL_POINT_MERGE
        found.append(ij[near])
    pairs = np.concatenate(found)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def reference_merge_close(points, weights) -> tuple:
    points = np.asarray(points, dtype=float)
    pairs = reference_close_pairs(points)
    if not len(pairs):
        return points, np.asarray(weights, dtype=float)
    i, j = pairs.T
    label = np.arange(len(points))
    while True:
        low = label.copy()
        np.minimum.at(low, j, label[i])
        np.minimum.at(low, i, label[j])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    kept, cluster = np.unique(label, return_inverse=True)
    return points[kept], np.bincount(cluster, weights=weights, minlength=len(kept))


def assert_as_reference(points, weights):
    pairs = close_pairs(points)
    want = reference_close_pairs(points)
    assert pairs.dtype == want.dtype and pairs.shape == want.shape
    assert np.array_equal(pairs, want)
    (got_p, got_w), (want_p, want_w) = merge_close(points, weights), \
        reference_merge_close(points, weights)
    assert np.array_equal(got_p, want_p) and np.array_equal(got_w, want_w)
    assert got_w.dtype == want_w.dtype
    return pairs


def with_collisions(rng, points, n_moved):
    """Move n_moved random points onto others, within a tenth of the tolerance."""
    points = points.copy()
    src, dst = rng.choice(len(points), size=(2, n_moved))
    jitter = rng.uniform(-0.1, 0.1, (n_moved, points.shape[1])) * TOL_POINT_MERGE
    points[src] = points[dst] + jitter
    return points


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_random_supports_with_collisions(seed, m):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 300))
    points = with_collisions(rng, rng.uniform(-1.0, 1.0, (n, m)), n // 3)
    pairs = assert_as_reference(points, rng.uniform(0.5, 1.5, n))
    assert len(pairs)


def test_random_support_without_close_pairs():
    rng = np.random.default_rng(7)
    points = rng.uniform(-1.0, 1.0, (400, 2))
    assert not len(assert_as_reference(points, np.ones(400)))


def test_five_cube_lattice_with_duplicated_rows():
    # a lattice spreads out on the generic direction; every row appears twice
    # in shuffled order, so each pair is two lattice copies of one point
    rng = np.random.default_rng(3)
    cube = np.array(list(itertools.product([0.0, 1.0, 2.0], repeat=5)))
    points = rng.permutation(np.vstack([cube, cube]))
    pairs = assert_as_reference(points, rng.uniform(0.5, 1.5, len(points)))
    assert len(pairs) == len(cube)


@pytest.mark.parametrize("seed", [0, 1])
def test_points_near_a_million(seed):
    rng = np.random.default_rng(seed)
    points = 1e6 + rng.uniform(-1e-3, 1e-3, (200, 3))
    points = with_collisions(rng, points, 50)
    assert len(assert_as_reference(points, rng.uniform(0.5, 1.5, 200)))


@pytest.mark.parametrize("seed", range(4))
def test_shuffled_chains(seed):
    # chains a~b~c with a not~ c, at 0.6 tol spacing, in shuffled input order
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-1.0, 1.0, (20, 2))
    chain = np.concatenate([starts + k * np.array([0.6, 0.0]) * TOL_POINT_MERGE
                            for k in range(int(rng.integers(3, 6)))])
    points = rng.permutation(np.vstack([chain, rng.uniform(-1.0, 1.0, (30, 2))]))
    weights = rng.uniform(0.5, 1.5, len(points))
    assert_as_reference(points, weights)
    assert len(merge_close(points, weights)[0]) == 20 + 30


@pytest.mark.parametrize("size", [3, 4, 7])
def test_clusters_of_coincident_points(size):
    rng = np.random.default_rng(size)
    centres = rng.uniform(-1.0, 1.0, (10, 2))
    points = np.repeat(centres, size, axis=0)[rng.permutation(10 * size)]
    weights = rng.uniform(0.5, 1.5, len(points))
    assert len(assert_as_reference(points, weights)) == 10 * size * (size - 1) // 2
    kept, summed = merge_close(points, weights)
    assert len(kept) == 10 and summed.sum() == pytest.approx(weights.sum(), rel=1e-15)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tiny_supports(n):
    for points in (np.zeros((n, 2)), np.arange(2.0 * n).reshape(n, 2)):
        assert_as_reference(points, np.ones(n))


@pytest.mark.parametrize("seed", [0, 101])
def test_measure_ladder_fields(tmp_path, monkeypatch, seed):
    # every support the benchmark's measure-ladder merges, as it merges it
    seen = []

    def recording(points, weights):
        seen.append((np.array(points, dtype=float), np.array(weights, dtype=float)))
        return merge_close(points, weights)

    workload = WORKLOADS.MeasureLadderWorkload(seed)
    workload.setup(tmp_path)
    monkeypatch.setattr(measure, "merge_close", recording)
    for job in workload.jobs:
        job.run(tmp_path)
    assert len(seen) == 3  # the two pushes and the fragment
    for points, weights in seen:
        assert len(assert_as_reference(points, weights))


# ---------------------------------------------------------------------------
# the merging callers run with np.unique, np.lexsort and np.sort made to raise


@pytest.fixture
def no_generic_sorts(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a merge called a generic numpy sort")

    for name in ("unique", "lexsort", "sort"):
        monkeypatch.setattr(np, name, refuse)


def planted(rng, n=40, m=2):
    points = rng.uniform(-1.0, 1.0, (n, m))
    shift = np.zeros((n, m))
    shift[0:n - 1:4] = points[1::4] - points[0:n - 1:4]  # 4k lands on 4k + 1
    return points, shift


def test_push_forward_with_planted_collisions(no_generic_sorts):
    rng = np.random.default_rng(11)
    points, shift = planted(rng)
    pushed = push_forward(DiscreteMeasure(points, np.ones(40)), np.zeros(40), shift)
    assert pushed.size == 30 and pushed.total_volume == 40.0


def test_merged_measure(no_generic_sorts):
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    mu = DiscreteMeasure.merged(points, np.arange(1.0, 6.0))
    assert np.array_equal(mu.points, points[[0, 1, 4]])
    assert np.array_equal(mu.weights, [4.0, 6.0, 5.0])


def test_fragmented_as_measure(no_generic_sorts):
    rng = np.random.default_rng(12)
    base = DiscreteMeasure(rng.uniform(-1.0, 1.0, (20, 2)), np.ones(20))
    shifts = rng.uniform(-0.05, 0.05, (3, 20, 2))
    shifts[2] = shifts[1]  # subsystem 2 lands on subsystem 1
    merged = FragmentedMeasure(base, np.zeros((3, 20)), shifts).as_measure()
    assert merged.size == 40


def test_support_stack_push_with_one_flagged_start(no_generic_sorts):
    rng = np.random.default_rng(13)
    points, shift = planted(rng)
    stack = SupportStack(np.stack([points, points]), np.ones((2, 40)))
    groups = stack.push(np.zeros((2, 40)), np.stack([np.zeros_like(shift), shift]))
    assert [idx.tolist() for idx, _ in groups] == [[0], [1]]
    assert groups[1][1].points.shape == (1, 30, 2)
