"""Tests of the benchmark's own logic (no toolchain import needed).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import measure  # noqa: E402
import plan  # noqa: E402
import spans  # noqa: E402

PROGRAMS = [f"prog{i}" for i in range(15)]


# -- percentile rule ----------------------------------------------------------

def test_incomplete_beta_matches_known_values():
    assert abs(measure._betainc(2, 3, 0.4) - 0.5248) < 1e-12
    assert abs(measure._betainc(0.5, 0.5, 0.5) - 0.5) < 1e-12
    assert measure._betainc(3, 4, 0.0) == 0.0
    assert measure._betainc(3, 4, 1.0) == 1.0


def test_percentile_is_a_weighted_mean_of_order_statistics():
    samples = list(range(100, 0, -1))
    assert abs(measure.percentile(samples, 0.5) - 50.5) < 1e-9
    assert abs(measure.percentile(samples, 0.9) - 90.5) < 1e-6
    assert abs(measure.percentile([7.0], 0.9) - 7.0) < 1e-9
    assert abs(measure.percentile([2.0] * 40, 0.9) - 2.0) < 1e-9
    # Whole passes of one mix: 2 and 3 copies give the same median.
    mix = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert abs(measure.percentile(mix * 2, 0.5)
               - measure.percentile(mix * 3, 0.5)) < 1e-9


def test_percentile_moves_smoothly_between_two_groups():
    # 135 warm and 15 cold requests: p90 sits between the groups.  Making
    # the slowest warm request 4x slower moves the estimate by a fraction
    # of that jump, not by all of it.
    warm = [0.1 + 0.001 * i for i in range(135)]
    cold = [1.0 + 0.01 * i for i in range(15)]
    before = measure.percentile(warm + cold, 0.9)
    after = measure.percentile(warm[:-1] + [warm[-1] * 4] + cold, 0.9)
    assert 0 < after - before < 0.5 * (warm[-1] * 3)


def test_p90_needs_ten_samples_beyond():
    assert measure.samples_beyond(100, 0.9) == 10
    assert measure.percentile_supported(100, 0.9)
    assert measure.samples_beyond(99, 0.9) == 9
    assert not measure.percentile_supported(99, 0.9)
    assert measure.samples_beyond(150, 0.9) == 15
    assert measure.samples_beyond(30, 0.9) == 3
    assert measure.samples_beyond(0, 0.9) == 0


def test_latency_summary_reports_sample_count_and_rule():
    latencies = [0.001 * i for i in range(1, 31)]
    summary = measure.latency_summary(latencies)
    assert summary["samples"] == 30
    assert summary["p90_beyond"] == 3
    assert not summary["p90_supported"]
    assert summary["p90_ms"] == measure.percentile(latencies, 0.9) * 1000
    assert 26.0 < summary["p90_ms"] < 29.0


# -- ok_frac ------------------------------------------------------------------

def _digest(doc):
    return doc["body"]


def test_errors_and_digest_mismatches_count_as_failures():
    outcomes = measure.Outcomes(_digest)
    assert outcomes.record({"ok": True, "body": "d1"}, "d1", "a")
    assert not outcomes.record({"ok": True, "body": "d2"}, "d1", "b")
    assert not outcomes.record({"ok": False, "error": {"type": "x"}},
                               "d1", "c")
    assert not outcomes.record(None, "d1", "d")
    assert outcomes.attempted == 4
    assert outcomes.failed == 3
    assert outcomes.ok_frac == 0.25
    assert outcomes.first_failure == "b: digest mismatch"


def test_ok_frac_is_one_when_every_response_matches():
    outcomes = measure.Outcomes(_digest)
    for _ in range(5):
        outcomes.record({"ok": True, "body": "d"}, "d", "x")
    assert outcomes.ok_frac == 1.0 and outcomes.failed == 0


# -- seed determinism ---------------------------------------------------------

def _first_passes(workload, seed, count=3):
    gen = plan.passes(workload, PROGRAMS, seed)
    return [next(gen) for _ in range(count)]


def test_same_seed_gives_same_sequence_digest():
    for workload in plan.WORKLOADS:
        a = [r for p in _first_passes(workload, 7) for r in p]
        b = [r for p in _first_passes(workload, 7) for r in p]
        assert plan.sequence_digest(a) == plan.sequence_digest(b)


def test_other_seed_changes_order_not_program_mix():
    for workload in plan.WORKLOADS:
        for p7, p8 in zip(_first_passes(workload, 7),
                          _first_passes(workload, 8)):
            assert plan.sequence_digest(p7) != plan.sequence_digest(p8)
            assert Counter((r.program, r.kind) for r in p7) \
                == Counter((r.program, r.kind) for r in p8)
            assert Counter(r.program for r in p7 if r.cold) \
                == Counter(r.program for r in p8 if r.cold)


def test_pass_shapes():
    cold, = _first_passes("profile_cold", 1, 1)
    assert sorted(r.program for r in cold) == sorted(PROGRAMS)
    assert all(r.cold and r.kind == "recommend" for r in cold)

    warm, = _first_passes("requery_warm", 1, 1)
    assert sorted((r.program, r.kind) for r in warm) == sorted(
        (p, k) for p in PROGRAMS for k in plan.KINDS)
    assert not any(r.cold for r in warm)


def test_serve_mixed_cold_slots_are_one_in_ten_and_cover_every_program():
    for seed in range(5):
        mixed, = _first_passes("serve_mixed", seed, 1)
        assert len(mixed) == len(PROGRAMS) * len(plan.KINDS) \
            * plan.SERVE_ROUNDS
        colds = [i for i, r in enumerate(mixed) if r.cold]
        assert colds == list(range(plan.COLD_EVERY - 1, len(mixed),
                                   plan.COLD_EVERY))
        assert sorted(mixed[i].program for i in colds) == sorted(PROGRAMS)
        assert Counter((r.program, r.kind) for r in mixed) == Counter(
            {(p, k): plan.SERVE_ROUNDS for p in PROGRAMS
             for k in plan.KINDS})


def test_pass_clock_runs_whole_passes_within_budget():
    clock = measure.PassClock(25.0)
    assert clock.another(0.0, 0)
    assert clock.another(30.0, 0) is True  # the first pass always runs
    assert clock.another(10.0, 1)          # 20 <= 25
    assert not clock.another(20.0, 2)      # 30 > 25
    assert not clock.another(20.0, 1)


# -- span arithmetic ----------------------------------------------------------

def _span(sid, parent, name, start, end, rid=0, attrs=None):
    return spans.Span(sid, parent, rid, name, start, end, attrs)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert spans.covered(0, 10, [(1, 3), (2, 5), (8, 12)]) == 6
    assert spans.covered(0, 10, []) == 0
    assert spans.covered(0, 10, [(-5, 20)]) == 10


def test_self_time_is_span_minus_its_children():
    tree = [
        _span(0, None, "service.execute", 0.0, 10.0),
        _span(1, 0, "session.get", 1.0, 3.0),
        _span(2, 0, "vm.execute", 4.0, 9.0),
        _span(3, 2, "runtime.finish", 7.0, 8.5),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {0: 3.0, 1: 2.0, 2: 3.5, 3: 1.5}
    assert sum(selfs.values()) == 10.0  # self times add up to the root


def test_layer_metrics_are_means_per_request_inside_the_window():
    tree = [
        _span(0, None, "service.execute", 0.0, 0.010, rid=0),
        _span(1, 0, "session.get", 0.001, 0.003, rid=0,
              attrs={"bytes": 100, "hit": 1}),
        _span(2, None, "service.execute", 0.020, 0.030, rid=2),
        _span(3, 2, "session.get", 0.021, 0.022, rid=2,
              attrs={"bytes": 0, "hit": 0}),
        _span(4, None, "service.execute", 5.0, 6.0, rid=4),  # outside
    ]
    metrics = spans.layer_metrics(tree, [(0.002, 0.0025)], (0.0, 1.0))
    assert abs(metrics["service.execute_self_ms"] - 8.5) < 1e-9
    assert abs(metrics["session.get_ms"] - 1.5) < 1e-9
    assert metrics["session.get_bytes"] == 50
    assert metrics["session.hit_ratio"] == 0.5
    assert metrics["py.gc_collections"] == 0.5
    assert abs(metrics["py.gc_pause_ms"] - 0.25) < 1e-9
    assert metrics["vm.execute_ms"] == 0.0


def test_missing_names_spans_that_never_fired():
    tree = [_span(0, None, "service.execute", 0, 1)]
    assert spans.missing(tree, ("service.execute", "session.get")) \
        == ["session.get"]


def test_every_per_layer_metric_is_computed():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    computed = set(spans.layer_metrics([], [], (0.0, 1.0)))
    computed |= {"service.queue_wait_ms", "service.daemon_wall_ms",
                 "service.wire_ms"}
    assert {m["name"] for m in spec["per_layer"]} == computed


def test_expected_spans_are_traced_targets():
    for names in spans.EXPECTED.values():
        assert set(names) <= set(spans.TARGETS)
