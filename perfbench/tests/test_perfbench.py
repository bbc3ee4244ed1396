"""Tests of the benchmark itself: tiny smoke runs of every workload, the
self-time arithmetic of the tracer, and output checks that catch wrong
results."""

from collections import Counter

import pytest

from perfbench import run as bench

workloads = bench._load_library()
from perfbench import tracing  # noqa: E402

from fringelab import sampling  # noqa: E402

TINY = {
    "desk_clt": lambda: workloads.DeskClt(size=101, replicates=120),
    "large_n": lambda: workloads.LargeN(size=1001, replicates=5),
    "small_trees": lambda: workloads.SmallTrees(reps=300),
    "gw_trees": lambda: workloads.GwTrees(n=51, trees=2),
    "exact_ladder": lambda: workloads.ExactLadder(
        sizes=(5, 10), q_ladder=((4, 2),), stat_size=101
    ),
}


def test_every_workload_has_a_tiny_variant():
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke(name):
    workload = TINY[name]()
    workload.build(7)
    records = bench.run_ops(workload, seconds=60, max_ops=2)
    assert [r["error"] for r in records] == [None, None]
    assert all(r["work"] > 0 and r["seconds"] > 0 for r in records)


def test_inputs_follow_the_seed():
    a, b, c = (workloads.ExactLadder() for _ in range(3))
    a.build(3)
    b.build(3)
    c.build(4)
    assert [a.inputs(i) for i in range(4)] == [b.inputs(i) for i in range(4)]
    assert [a.inputs(i) for i in range(4)] != [c.inputs(i) for i in range(4)]


def test_traced_run_reports_every_layer_metric_and_restores():
    original = sampling.excursion_degrees
    workload = TINY["desk_clt"]()
    workload.build(1)
    _, metrics, extra, spans = bench.run_traced(workload, seconds=0.01)
    assert set(metrics) == set(bench.PER_LAYER_UNITS)
    assert extra["absent"] == []
    assert metrics["sampling.excursion_degrees.calls"] == 120
    assert metrics["mc_harness._count_occurrences.calls"] == 240
    # bytes shuffled = n x itemsize of the int64 degree multiset
    assert metrics["sampling.excursion_degrees.bytes_shuffled"] == 120 * 101 * 8
    assert metrics["unattributed_s"] >= 0
    assert sampling.excursion_degrees is original
    assert all(span[4] is not None for span in spans)


def test_rejection_counts_in_traced_gw_run():
    workload = TINY["gw_trees"]()
    workload.build(2)
    _, metrics, _, _ = bench.run_traced(workload, seconds=0.01)
    assert metrics["sampling.sample_conditioned_gw.calls"] == 2
    rows = metrics["sampling.sample_conditioned_gw.rows_drawn"]
    assert rows == metrics["distributions.sample_offspring.draws"] / 51
    assert metrics["sampling.sample_conditioned_gw.accept_ratio"] == 2 / rows


def test_self_time_of_nested_spans():
    # op [0, 10] > a [1, 6] > (b [2, 3], c [4, 5.5]); op > d [7, 9]
    spans = [
        ["op", 0.0, 10.0, None, 0, None],
        ["a", 1.0, 6.0, 0, 0, None],
        ["b", 2.0, 3.0, 1, 0, {"k": 2}],
        ["c", 4.0, 5.5, 1, 0, None],
        ["d", 7.0, 9.0, 0, 0, None],
    ]
    assert tracing.self_times(spans) == [3.0, 2.5, 1.0, 1.5, 2.0]
    summary = tracing.summarize(spans)
    assert summary["unattributed_s"] == [3.0]
    assert summary["a"] == {"calls": 1, "self_s": 2.5}
    assert summary["b"] == {"calls": 1, "self_s": 1.0, "k": 2}


def test_overlapping_children_are_covered_once():
    assert tracing._covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == 7.0


def test_tracer_records_only_inside_ops():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    double = tracer.wrap("double", lambda x: 2 * x, lambda arg, r: {"x": arg("x")})
    assert double(1) == 2
    assert tracer.spans == []
    index = tracer.open_op(5)
    assert double(x=3) == 6
    tracer.close_op(index)
    assert [s[0] for s in tracer.spans] == ["op", "double"]
    assert tracer.spans[1][3:] == [0, 5, {"x": 3}]


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(
        tracing, "TARGETS", tracing.TARGETS + (("sampling", "no_such_sampler", None),)
    )
    restore, absent = tracing.install(tracing.Tracer())
    restore()
    assert absent == ["sampling.no_such_sampler"]


def test_wrong_pinned_value_fails_the_op():
    pinned = {k: list(v) for k, v in workloads.PINNED[101].items()}
    pinned["exact_var"][0] += 1e-9
    workload = workloads.DeskClt(size=101, replicates=120, pinned=pinned)
    workload.build(1)
    (record,) = bench.run_ops(workload, seconds=60, max_ops=1)
    assert record["error"].startswith("CheckFailed: exact_var")
    assert record["work"] == 0


def test_invalid_word_fails_the_check():
    workload = workloads.SmallTrees(reps=4)
    workload.build(1)
    bad = Counter({(0, 2, 0): 4})
    failures = workload.check(0, bad)
    assert any("invalid preorder word" in f for f in failures)


def test_raising_op_is_counted_and_the_loop_continues():
    class Flaky(workloads.Workload):
        def op(self, index):
            if index == 0:
                raise ZeroDivisionError("boom")
            return None, 1

        def check(self, index, output):
            return []

    records = bench.run_ops(Flaky(), seconds=60, max_ops=2)
    assert records[0]["error"] == "ZeroDivisionError: boom"
    assert records[1]["error"] is None
