import json
import os
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvpert
from cvpert import DiscreteMeasure, push_forward
from cvpert.errors import InvalidMeasure, NumericalFailure, ShapeError
from cvpert.fragmentation import FragmentedMeasure
from cvpert.measure import TOL_POINT_MERGE, close_pairs, merge_close

TOL = TOL_POINT_MERGE


def brute_close_pairs(pts):
    """Reference: every pair in lexicographic order, checked one at a time."""
    return [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
            if np.max(np.abs(pts[i] - pts[j])) <= TOL]


def clustered(seed, n_clusters, m, max_size=4):
    """Clusters 0.1 apart; each one a chain along axis 0 with steps 0.9 tol
    (neighbours close, points two apart not), jittered by 0.05 tol elsewhere.
    Returns points, weights and each point's cluster index."""
    rng = np.random.default_rng(seed)
    centers = 0.1 * rng.choice(1000, size=(n_clusters, m), replace=False)
    sizes = rng.integers(1, max_size + 1, n_clusters)
    label = np.repeat(np.arange(n_clusters), sizes)
    step = np.concatenate([np.arange(k) for k in sizes])
    pts = centers[label] + rng.uniform(-0.05, 0.05, (len(label), m)) * TOL
    pts[:, 0] = centers[label, 0] + 0.9 * TOL * step
    perm = rng.permutation(len(label))
    return pts[perm], rng.uniform(0.5, 2.0, len(label)), label[perm]


def test_validation_rejects_bad_data():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((2, 1)), np.array([1.0, -1.0]))
    with pytest.raises(ShapeError):
        DiscreteMeasure(np.zeros((2, 1)), np.array([1.0]))
    with pytest.raises(ValueError):
        # coincident points within the merge tolerance
        DiscreteMeasure(np.array([[0.0], [1e-12]]), np.array([1.0, 1.0]))


def test_push_forward_identity():
    mu = DiscreteMeasure(np.array([[0.0, 1.0], [2.0, -1.0]]), np.array([1.0, 0.5]))
    out = push_forward(mu, np.zeros(2), np.zeros((2, 2)))
    assert np.array_equal(out.points, mu.points)
    assert np.array_equal(out.weights, mu.weights)


def test_push_forward_dirac_scaling():
    # weight doubles under c = log 2, point moves to (1, 0)
    mu = DiscreteMeasure(np.zeros((1, 2)), np.ones(1))
    out = push_forward(mu, np.array([np.log(2.0)]), np.array([[1.0, 0.0]]))
    assert np.allclose(out.points, [[1.0, 0.0]])
    assert np.allclose(out.weights, [2.0])


def test_push_forward_fragment_point():
    # single copy of the two-subsystem example: shift lambda*(w, 1)
    lam, w = 0.1, 1.0 / np.sqrt(2.0)
    mu = DiscreteMeasure(np.zeros((1, 2)), np.ones(1))
    out = push_forward(mu, np.zeros(1), np.array([[lam * w, lam]]))
    assert np.allclose(out.points, [[0.0707107, 0.1]], atol=5e-8)


def test_push_forward_merges_collisions():
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]))
    out = push_forward(mu, np.zeros(2), np.array([[0.5], [-0.5]]))
    assert out.size == 1
    assert np.allclose(out.weights, [3.0])


def test_push_forward_volume_preserved_iff_no_log_weight(rng):
    pts = rng.normal(size=(4, 2))
    mu = DiscreteMeasure(pts, np.abs(rng.normal(size=4)) + 0.5)
    shifted = push_forward(mu, np.zeros(4), rng.normal(size=(4, 2)) * 0.1)
    assert abs(shifted.total_volume - mu.total_volume) <= 1e-14
    tilted = push_forward(mu, rng.normal(size=4) * 0.3, np.zeros((4, 2)))
    assert abs(tilted.total_volume - mu.total_volume) > 1e-6


def test_push_forward_overflow():
    mu = DiscreteMeasure(np.zeros((1, 1)), np.ones(1))
    with pytest.raises(NumericalFailure):
        push_forward(mu, np.array([1e4]), np.zeros((1, 1)))


def test_json_round_trip():
    mu = DiscreteMeasure(np.array([[0.25, -1.5]]), np.array([0.75]))
    blob = json.dumps(mu.to_json())
    back = DiscreteMeasure.from_json(blob)
    assert np.array_equal(back.points, mu.points)
    assert np.array_equal(back.weights, mu.weights)


def test_close_pairs_match_brute_force(rng):
    for m in range(1, 5):
        for _ in range(20):
            n = int(rng.integers(0, 40))
            centers = rng.normal(size=(max(1, n // 4), m))
            pts = centers[rng.integers(0, len(centers), n)]
            pts = pts + rng.choice([0.0, 0.6 * TOL, 1.5 * TOL], size=(n, m))
            pts = np.vstack([pts, np.zeros(m), np.eye(m)[-1] * TOL])  # exactly tol apart
            assert [tuple(p) for p in close_pairs(pts)] == brute_close_pairs(pts)


def lattice_and_far_supports():
    """Supports whose coordinates each take few values (lattices), random
    and clustered ones, and clusters at |x| ~ 1e6, where a chart unit holds
    few ulps of tol."""
    rng = np.random.default_rng(17)
    far = 1e6 * rng.choice([-1.0, 1.0], (8, 3)) * rng.uniform(0.5, 1.0, (8, 3))
    return {
        "hypercube": 2.0 * np.sqrt(2.0) * np.array(list(product([-1.0, 1.0], repeat=5))),
        "grid": np.array(list(product(range(10), repeat=2)), dtype=float),
        "random": rng.normal(size=(32, 5)),
        "planted": clustered(3, 12, 3)[0],
        "far": far[rng.integers(0, 8, 40)] + rng.choice([0.0, 0.6 * TOL, 1.5 * TOL], (40, 3)),
        "far-lattice": 1e6 + 0.7 * TOL * np.array(list(product(range(6), repeat=2)), dtype=float),
    }


@pytest.mark.parametrize("name", sorted(lattice_and_far_supports()))
def test_close_pairs_match_brute_force_on_lattices_and_far_points(name):
    pts = lattice_and_far_supports()[name]
    want = brute_close_pairs(pts)
    assert [tuple(p) for p in close_pairs(pts)] == want
    assert bool(want) == (name in ("planted", "far", "far-lattice"))


def test_close_pairs_keep_pairs_whose_rounded_keys_lie_beyond_tol():
    # at |x| ~ 3e6 a coordinate's ulp is tol / 2: pairs a few ulps apart are
    # close, and the rounding of their sort keys can put those keys further
    # apart than tol |u|_1; the 20 such pairs of widest key gap are kept
    from cvpert.measure import _sort_direction

    rng = np.random.default_rng(23)
    u = _sort_direction(3)
    p = 4e6 * rng.uniform(0.5, 1.0, (20000, 3))
    q = p + rng.integers(-2, 3, p.shape) * np.spacing(p)
    gap = np.abs(p @ u - q @ u)
    widest = np.argsort(gap)[-20:]
    assert gap[widest[0]] > TOL * np.sum(u)
    pts = np.vstack([p[widest], q[widest]])
    want = brute_close_pairs(pts)
    assert len(want) == 20
    assert [tuple(pair) for pair in close_pairs(pts)] == want


def test_points_exactly_tol_apart_coincide():
    for m in range(1, 5):
        pts = np.zeros((2, m))
        pts[1, m - 1] = TOL
        assert np.max(np.abs(pts[0] - pts[1])) == TOL
        assert [tuple(p) for p in close_pairs(pts)] == brute_close_pairs(pts) == [(0, 1)]
        with pytest.raises(InvalidMeasure):
            DiscreteMeasure(pts, np.ones(2))


def test_coincidence_error_names_first_pair():
    pts = np.array([[10.0], [0.0], [7.0], [5e-10], [7.0 + 5e-10], [1e-10]])
    assert brute_close_pairs(pts)[0] == (1, 3)
    with pytest.raises(InvalidMeasure, match="support points 1 and 3 coincide"):
        DiscreteMeasure(pts, np.ones(len(pts)))


def test_empty_support_constructs():
    mu = DiscreteMeasure(np.zeros((0, 2)), np.zeros(0))
    assert mu.size == 0 and mu.dimension == 2


def test_chain_merges_whole_in_every_order():
    # targets a~b and b~c but a not~ c: one cluster of weight 3, whose kept
    # point is the pushed point of lowest index
    targets = np.array([[0.0, 0.0], [0.8 * TOL, 0.0], [1.6 * TOL, 0.0]])
    for order in permutations(range(3)):
        mu = DiscreteMeasure(np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]), np.ones(3))
        out = push_forward(mu, np.zeros(3), targets[list(order)] - mu.points)
        assert out.size == 1
        assert out.weights.tolist() == [3.0]
        assert np.array_equal(out.points, targets[[order[0]]])
        frag = FragmentedMeasure(mu, np.zeros((1, 3)), (targets[list(order)] - mu.points)[None])
        assert frag.as_measure().weights.tolist() == [3.0]


def test_underflowed_push_forward_weight_is_invalid():
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.ones(2))
    with pytest.raises(InvalidMeasure):
        push_forward(mu, np.array([0.0, -1e4]), np.zeros((2, 1)))


def test_measure_layer_imports_no_scipy_graph_modules():
    # importing scipy.spatial alone adds ~30 MB of resident memory
    code = ("import sys, cvpert.measure, cvpert.fragmentation; "
            "print([m for m in ('scipy.spatial', 'scipy.sparse') if m in sys.modules])")
    src = str(Path(cvpert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


clusters = given(seed=st.integers(0, 2 ** 32 - 1), n_clusters=st.integers(1, 8),
                 m=st.integers(1, 4))
few = settings(max_examples=25, deadline=None, derandomize=True)


@few
@clusters
def test_merge_conserves_volume(seed, n_clusters, m):
    pts, wts, _ = clustered(seed, n_clusters, m)
    _, merged = merge_close(pts, wts)
    assert len(merged) == n_clusters
    assert abs(merged.sum() - wts.sum()) <= 1e-12 * wts.sum()


@few
@clusters
def test_merge_is_idempotent(seed, n_clusters, m):
    once = merge_close(*clustered(seed, n_clusters, m)[:2])
    twice = merge_close(*once)
    assert np.array_equal(twice[0], once[0]) and np.array_equal(twice[1], once[1])


@few
@clusters
def test_merge_clusters_do_not_depend_on_input_order(seed, n_clusters, m):
    pts, wts, label = clustered(seed, n_clusters, m)
    perm = np.random.default_rng(seed + 1).permutation(len(wts))
    for p, w, lab in ((pts, wts, label), (pts[perm], wts[perm], label[perm])):
        # each cluster keeps its first input point, in input order
        first = np.sort([np.flatnonzero(lab == c)[0] for c in np.unique(lab)])
        kept, merged = merge_close(p, w)
        assert np.array_equal(kept, p[first])
        np.testing.assert_allclose(merged, [w[lab == lab[f]].sum() for f in first], rtol=1e-12)
    # the two runs keep the same weight multiset, on points within a cluster's span
    a, b = merge_close(pts, wts), merge_close(pts[perm], wts[perm])
    np.testing.assert_allclose(np.sort(a[1]), np.sort(b[1]), rtol=1e-12)
    ka, kb = a[0][np.lexsort(a[0].T)], b[0][np.lexsort(b[0].T)]
    assert np.max(np.abs(ka - kb), initial=0.0) <= 3 * TOL


@few
@clusters
def test_push_forward_by_zero_jet_is_identity(seed, n_clusters, m):
    mu = DiscreteMeasure(*merge_close(*clustered(seed, n_clusters, m)[:2]))
    out = push_forward(mu, np.zeros(mu.size), np.zeros((mu.size, m)))
    assert np.array_equal(out.points, mu.points)
    assert np.array_equal(out.weights, mu.weights)


@few
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 4),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_non_finite_data_raises_numerical_failure(seed, m, bad):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    pts, wts = rng.normal(size=(n, m)), rng.uniform(0.5, 2.0, n)
    at = (int(rng.integers(n)), int(rng.integers(m)))
    bad_pts = pts.copy()
    bad_pts[at] = bad
    with pytest.raises(NumericalFailure):
        DiscreteMeasure(bad_pts, wts)
    bad_wts = wts.copy()
    bad_wts[at[0]] = abs(bad)
    with pytest.raises(NumericalFailure):
        DiscreteMeasure(pts, bad_wts)
    mu = DiscreteMeasure(pts, wts)
    with pytest.raises(NumericalFailure):
        push_forward(mu, np.zeros(n), bad_pts - pts)
    with pytest.raises(NumericalFailure):
        push_forward(mu, np.where(np.arange(n) == at[0], abs(bad), 0.0), np.zeros((n, m)))
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalFailure):
            FragmentedMeasure(mu, np.zeros((1, n)), (bad_pts - pts)[None]).as_measure()


def test_push_searches_each_start_for_close_pairs_once(monkeypatch):
    # merge_close's search is the only one: the merged support has no close
    # pair, so the measure built from it is not searched again
    from cvpert import measure

    starts = [clustered(seed, 5, 2) for seed in (0, 1, 2)]
    n = min(len(pts) for pts, _, _ in starts)
    base = measure.SupportStack(np.zeros((3, n, 2)), np.stack([w[:n] for _, w, _ in starts]))
    shift = np.stack([pts[:n] for pts, _, _ in starts])
    log_w = np.zeros((3, n))
    want = [DiscreteMeasure(*merge_close(s, w)) for s, w in zip(shift, base.weights)]
    assert any(mu.size < n for mu in want)  # planted collisions are merged
    calls = []
    search = measure.close_pairs
    monkeypatch.setattr(measure, "close_pairs", lambda pts: calls.append(1) or search(pts))
    got = base.push(log_w, shift)
    assert len(calls) == 3
    for mu, ref in zip(got, want):
        assert np.array_equal(mu.points, ref.points) and np.array_equal(mu.weights, ref.weights)
    with pytest.raises(InvalidMeasure):  # an underflowed weight that merges with nothing
        ref = want[0]
        measure.SupportStack(ref.points[None], ref.weights[None]).push(
            np.where(np.arange(ref.size) == 0, -1e4, 0.0), np.zeros_like(ref.points))
