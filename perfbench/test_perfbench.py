"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import itertools
import math

import numpy as np
import pytest

import hostspeed
import run

workloads = run.load_program()

import cvpert  # noqa: E402
from cvpert import el, expansion, lagrangian, linops, measure, mixing, scenarios  # noqa: E402
from spans import SPANS, Tracer, layer_metrics  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds two middles [1, 4] and [5, 7]; the first holds an inner [2, 3]
    outer, middle, inner = "cli.run_config", "linops.assemble_delta", "jets.TestBasis.full"
    spans = [[outer, 0.0, 10.0, -1, "j"], [middle, 1.0, 4.0, 100, "j"],
             [inner, 2.0, 3.0, 101, "j"], [middle, 5.0, 7.0, 100, "j"]]
    m = layer_metrics(spans, 100, {})
    assert m[f"{outer}.s"] == 10.0 and m[f"{outer}.self_s"] == 5.0
    assert m[f"{middle}.s"] == 5.0 and m[f"{middle}.self_s"] == 4.0
    assert m[f"{middle}.calls"] == 2
    assert m[f"{inner}.s"] == m[f"{inner}.self_s"] == 1.0
    assert m["mixing.minimize_mixing.calls"] == 0
    assert set(f"{s}.s" for s in SPANS) <= set(m)


def test_tracer_records_parents_and_jobs():
    mu = measure.DiscreteMeasure(np.array([[0.0], [1.0]]), np.ones(2))
    with Tracer() as tracer:
        tracer.job = "job-a"
        measure.push_forward(mu, np.zeros(2), np.array([[1.0], [0.0]]))
    names = [s[0] for s in tracer.spans]
    assert names == ["measure.push_forward", "measure.DiscreteMeasure"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert {s[4] for s in tracer.spans} == {"job-a"}
    assert tracer.counts["measure.points_merged"][0] == 1


def test_wrappers_cover_aliases_and_are_removed_on_exit():
    originals = (measure.push_forward, el.residual_norm, mixing.expm, lagrangian.sp)
    with Tracer():
        assert expansion.push_forward is measure.push_forward is cvpert.push_forward
        assert measure.push_forward is not originals[0]
        assert scenarios.residual_norm is el.residual_norm is not originals[1]
        assert scenarios.build_lagrangian is lagrangian.build_lagrangian
        assert mixing.expm is not originals[2]
        assert lagrangian.sp is not originals[3]
    assert (measure.push_forward, el.residual_norm, mixing.expm,
            lagrangian.sp) == originals
    assert expansion.push_forward is originals[0]


def _hypercube(m):
    side = np.array(list(itertools.product([-1.0, 1.0], repeat=m)))
    return measure.DiscreteMeasure(2.0 * math.sqrt(2.0) * side, np.ones(len(side)))


def test_assemble_delta_partial_count_matches_theory_and_repeats():
    n, m = 32, 5
    mu = _hypercube(m)
    lag = lagrangian.build_lagrangian("quartic_pair", {"dim": m})
    nu = el.calibrate_nu(mu, lag, tol=1e-6)
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            linops.assemble_delta(mu, lag, nu)
        counts.append(tracer.snapshot()[1])
    assert counts[0] == counts[1]
    assert counts[0]["lagrangian.partial.calls"] == n * n * (2 * m + m * (m + 1) // 2 + m * m)
    assert counts[0]["lagrangian.partial.calls"] == 51200
    assert counts[0]["lagrangian.eval.calls"] == n * n


def test_wide_support_pass_counts(tmp_path):
    # one assembly (51 200) plus two gradient sweeps of N^2 m = 5 120 each:
    # the set-up residual and Delta_0 for the first-order error term
    work = workloads.WORKLOADS["wide-support"](0)
    with Tracer() as tracer:
        start = tracer.snapshot()
        _, _, outcomes = run.run_pass(work, tmp_path, "t", tracer)
        profile = tracer.profile(start, tracer.snapshot())
    assert outcomes[0]["problems"] == []
    assert profile["lagrangian.partial.calls"] == 51200 + 2 * 5120 == 61440
    assert profile["linops.assemble_delta.calls"] == 1
    assert profile["jets.TestBasis.full.calls"] == 1


def _deep_report(slopes):
    name = "example52-expansion"
    return {"status": "ok", "passed": True,
            "stages": [{"name": name, "status": "ok",
                        "data": {"slopes": slopes,
                                 "min_expected": {k: int(k) + 0.8 for k in slopes}}}]}


def test_slope_below_band_is_a_failed_job(tmp_path):
    check = workloads.DeepOrdersWorkload.check
    good, bad = {"3": 4.28, "4": 4.95}, {"3": 4.28, "4": 4.79}
    problems, margins = check("example52-expansion", _deep_report(good))
    assert problems == [] and min(margins) == pytest.approx(0.15)
    assert check("example52-expansion", _deep_report(bad))[0]

    class Corrupted:
        jobs = [workloads.Job("good", lambda _d: _deep_report(good),
                              lambda r: check("example52-expansion", r)),
                workloads.Job("bad", lambda _d: _deep_report(bad),
                              lambda r: check("example52-expansion", r)),
                workloads.Job("raises", lambda _d: 1 / 0, lambda r: ([], []))]

    _, _, outcomes = run.run_pass(Corrupted, tmp_path, "p")
    summary = run.summarize(outcomes)
    assert (summary["attempted"], summary["failed"]) == (3, 2)
    assert summary["failed_frac"] == pytest.approx(2 / 3)


def test_fragment_check_catches_a_kept_massless_point():
    ladder = workloads.MeasureLadderWorkload(3)
    ladder.frag_base = measure.DiscreteMeasure(ladder.frag_points,
                                               np.ones(len(ladder.frag_points)))
    frag, merged = ladder._run_fragment(None)
    assert ladder._check_fragment((frag, merged)) == ([], [])
    extra = measure.DiscreteMeasure(np.vstack([merged.points, frag.positions()[0][:1]]),
                                    np.append(merged.weights, 1.0))
    assert len(ladder._check_fragment((frag, extra))[0]) == 3


def test_inputs_follow_the_seed():
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    a, b, c = (workloads.wide_support_config(s) for s in (5, 5, 6))
    assert a == b and a != c
    pts = np.array(a["measure"]["points"])
    assert {tuple(p) for p in pts} == {tuple(p) for p in np.array(c["measure"]["points"])}
    assert len(set(a["measure"]["weights"])) == 1
    ladders = [workloads.MeasureLadderWorkload(s) for s in (5, 5, 6)]
    assert np.array_equal(ladders[0].frag_points, ladders[1].frag_points)
    assert not np.array_equal(ladders[0].frag_points, ladders[2].frag_points)


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    samples = list(range(30))
    value, pct = run.tail(samples)
    assert value == 19 and sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_pass_times_are_scaled_by_the_probes():
    times = [[0.1, 0.2], [0.3, 0.4]]
    ref = hostspeed.REF_S
    assert run.scaled_passes(times, [[ref] * 3] * 2) == pytest.approx([0.3, 0.7])
    # job 0 of pass 0 ran between probes of 2 and 4 REF_S: a third as long at REF_S
    slow = [[2 * ref, 4 * ref, 2 * ref], [ref, ref, 2 * ref]]
    assert run.scaled_passes(times, slow) == pytest.approx([0.1 / 3 + 0.2 / 3,
                                                            0.3 + 0.4 / 1.5])
    assert 0 < hostspeed.probe() < 1


def test_deep_orders_runs_one_job_per_order():
    assert [j.name for j in workloads.WORKLOADS["deep-orders"](4).jobs] == [
        "quartic-pair-expansion-P4", "quartic-pair-expansion-P5",
        "example52-expansion-P3", "example52-expansion-P4"]
