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
from cvpert.measure import TOL_POINT_MERGE, SupportStack, close_pairs, merge_close

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
    got = [None] * len(shift)
    for idx, stack in base.push(log_w, shift):  # the groups, flattened by index
        for k, pts, wts in zip(idx, stack.points, stack.weights):
            got[k] = measure.SupportStack(pts, wts)
    assert len(calls) == 3
    for mu, ref in zip(got, want):
        assert np.array_equal(mu.points, ref.points) and np.array_equal(mu.weights, ref.weights)
    with pytest.raises(InvalidMeasure):  # an underflowed weight that merges with nothing
        ref = want[0]
        measure.SupportStack(ref.points[None], ref.weights[None]).push(
            np.where(np.arange(ref.size) == 0, -1e4, 0.0), np.zeros_like(ref.points))


def six_starts(n=8, m=2):
    """Shifts (2, 3, n, m) of six starts on a base at the origin: clean ones
    (random points far apart) and starts of planted clusters whose merges
    leave different sizes."""
    rng = np.random.default_rng(41)
    clean = lambda: rng.uniform(-5.0, 5.0, (n, m))
    planted = lambda seed: clustered(seed, 5, m)[0][:n]
    return np.stack([clean(), planted(0), clean(), planted(1), planted(2), planted(5)]).reshape(
        2, 3, n, m)


def test_push_groups_each_start_by_size_as_merged_alone():
    shift = six_starts()
    n, m = shift.shape[-2:]
    rng = np.random.default_rng(43)
    log_w = rng.uniform(-0.5, 0.5, shift.shape[:-1])
    base = SupportStack(np.zeros((1, n, m)), rng.uniform(0.5, 2.0, (1, n)))
    wts = (base.weights * np.exp(log_w)).reshape(-1, n)
    want = [DiscreteMeasure.merged(p, w) for p, w in zip(shift.reshape(-1, n, m), wts)]
    sizes = [mu.size for mu in want]
    order = list(dict.fromkeys(sizes))
    assert order[0] == n and len(order) >= 3  # clean first, then two merged sizes
    groups = base.push(log_w, shift)
    assert [stack.size for _, stack in groups] == order
    for (idx, stack), size in zip(groups, order):
        assert idx.tolist() == [k for k, s in enumerate(sizes) if s == size]  # C order
        assert stack.points.shape == (len(idx), size, m)
        for k, pts, w in zip(idx, stack.points, stack.weights):
            assert np.array_equal(pts, want[k].points) and np.array_equal(w, want[k].weights)


def searched_starts(monkeypatch):
    """The supports ``close_pairs`` is called on, recorded."""
    from cvpert import measure

    searched, search = [], measure.close_pairs
    monkeypatch.setattr(measure, "close_pairs",
                        lambda pts: searched.append(np.array(pts)) or search(pts))
    return searched


def ulp_pairs():
    """Pairs a few ulps apart at |x| ~ 3e6, whose rounded keys lie further
    apart than tol |u|_1 (see the close_pairs test above)."""
    from cvpert.measure import _sort_direction

    rng = np.random.default_rng(23)
    p = 4e6 * rng.uniform(0.5, 1.0, (20000, 3))
    q = p + rng.integers(-2, 3, p.shape) * np.spacing(p)
    u = _sort_direction(3)
    widest = np.argsort(np.abs(p @ u - q @ u))[-20:]
    return np.vstack([p[widest], q[widest]])


@pytest.mark.parametrize("name", sorted(lattice_and_far_supports()) + ["ulp-pairs"])
def test_push_screen_flags_every_start_with_a_close_pair(name, monkeypatch):
    pts = ulp_pairs() if name == "ulp-pairs" else lattice_and_far_supports()[name]
    planted = pts.copy()  # a pair tol apart on every axis, the widest key gap of a close pair
    planted[-1] = planted[0] + TOL
    over = np.abs(planted[-1] - planted[0]) > TOL  # rounded past tol: one ulp back
    planted[-1, over] = np.nextafter(planted[-1, over], planted[0, over])
    rng = np.random.default_rng(7)
    starts = np.stack([pts, pts[rng.permutation(len(pts))], planted, pts[::-1]])
    searched = searched_starts(monkeypatch)
    base = SupportStack(np.zeros_like(starts), np.ones(starts.shape[:2]))
    groups = base.push(np.zeros(starts.shape[:2]), starts)
    assert brute_close_pairs(planted)
    for k, start in enumerate(starts):
        if brute_close_pairs(start):
            assert any(np.array_equal(s, start) for s in searched), k
    found = {k: (p, w) for idx, stack in groups
             for k, p, w in zip(idx.tolist(), stack.points, stack.weights)}
    for k, start in enumerate(starts):
        want = merge_close(start, np.ones(len(start)))
        assert np.array_equal(found[k][0], want[0]) and np.array_equal(found[k][1], want[1])


def test_push_searches_only_the_flagged_starts(monkeypatch):
    shift = six_starts()
    n, m = shift.shape[-2:]
    base = SupportStack(np.zeros((1, n, m)), np.ones((1, n)))
    searched = searched_starts(monkeypatch)
    base.push(np.zeros(shift.shape[:-1]), shift)
    assert len(searched) == 4  # the four starts of planted clusters
    clean = shift.reshape(-1, n, m)[[0, 2]]
    searched.clear()
    (idx, stack), = base.push(np.zeros((2, n)), clean)
    assert searched == [] and idx.tolist() == [0, 1]
    assert np.array_equal(stack.points, clean) and np.array_equal(stack.weights, np.ones((2, n)))


def test_underflowed_weight_of_an_unsearched_start_is_invalid(monkeypatch):
    shift = six_starts()[0, [0, 2]]  # two clean starts
    n, m = shift.shape[-2:]
    base = SupportStack(np.zeros((1, n, m)), np.ones((1, n)))
    searched = searched_starts(monkeypatch)
    log_w = np.zeros((2, n))
    log_w[1, 3] = -1e4  # exp underflows to 0
    with pytest.raises(InvalidMeasure, match="weights must be strictly positive"):
        base.push(log_w, shift)
    assert searched == []
