"""Metrics read paths must not mutate collector state.

Regression tests for the defaultdict read-mutation family of bugs: querying
a never-recorded operation used to insert an empty row that then appeared
in ``summary()`` and shifted aggregate counts.
"""

from repro.core.metrics import (
    LatencyRecorder,
    MetricsCollector,
    percentile,
    render_table,
)
from repro.harness.driver import RunResult
from repro.transactions.anomalies import AnomalyReport


def collector_with_one_op():
    metrics = MetricsCollector()
    metrics.start(0.0)
    metrics.record_success("read", 4.0)
    metrics.record_success("read", 6.0)
    metrics.stop(1000.0)
    return metrics


# -- collector reads ---------------------------------------------------------


def test_querying_unknown_op_leaves_summary_unchanged():
    metrics = collector_with_one_op()
    before = [(s.name, s.completed, s.failed) for s in metrics.summary()]

    # Every read-path accessor, aimed at an op that never happened.
    assert metrics.latency("phantom").count == 0

    after = [(s.name, s.completed, s.failed) for s in metrics.summary()]
    assert after == before  # the old defaultdict read inserted a phantom row
    assert [name for name, _, _ in after] == ["read"]
    assert metrics.completed() == 2


def test_unknown_op_latency_is_empty_and_shared_state_is_safe():
    first = MetricsCollector()
    second = MetricsCollector()
    empty = first.latency("nope")
    assert empty.count == 0
    assert empty.p(50) == 0.0
    # Writes after the read land in real recorders, never the shared empty.
    first.record_success("nope", 3.0)
    assert first.latency("nope").count == 1
    assert second.latency("nope").count == 0
    assert empty is second.latency("nope")  # still the pristine sentinel


def test_summary_includes_failure_only_ops_without_creating_recorders():
    metrics = collector_with_one_op()
    metrics.record_failure("write")
    rows = {s.name: s for s in metrics.summary()}
    assert rows["write"].failed == 1
    assert rows["write"].completed == 0
    assert "write" not in metrics.recorders()  # no latency row fabricated


# -- recorder sort cache -----------------------------------------------------


def test_latency_recorder_cache_invalidated_on_record_and_extend():
    recorder = LatencyRecorder()
    recorder.record(10.0)
    recorder.record(2.0)
    assert recorder.p(50) == 6.0  # forces the sort
    recorder.record(100.0)  # must invalidate the cached ordering
    assert recorder.p(100) == 100.0
    recorder.extend([0.5, 0.5])
    assert recorder.p(0) == 0.5
    assert recorder.sorted_samples == sorted(recorder.samples)
    assert recorder.samples == [10.0, 2.0, 100.0, 0.5, 0.5]  # order preserved


def test_percentile_does_not_mutate_its_input():
    samples = [9.0, 1.0, 5.0]
    assert percentile(samples, 50) == 5.0
    assert samples == [9.0, 1.0, 5.0]


# -- RunResult pooling -------------------------------------------------------


def run_result(metrics):
    return RunResult(
        label="t", metrics=metrics, anomalies=AnomalyReport(), wall_ms=1000.0
    )


def test_run_result_percentile_pools_without_touching_collector():
    metrics = collector_with_one_op()
    metrics.record_success("write", 20.0)
    metrics.record_failure("abort-only")
    result = run_result(metrics)

    before = [(s.name, s.completed, s.failed) for s in metrics.summary()]
    assert result.p(100) == 20.0
    assert result.p(0) == 4.0  # cached pooled recorder, second query
    after = [(s.name, s.completed, s.failed) for s in metrics.summary()]
    assert after == before
    assert "abort-only" not in metrics.recorders()
    # Pooled samples are a copy: mutating them cannot corrupt the collector.
    assert metrics.latency("read").samples == [4.0, 6.0]


def test_run_result_percentile_empty_metrics():
    metrics = MetricsCollector()
    metrics.record_failure("only-failures")
    assert run_result(metrics).p(50) == 0.0


# -- render_table ------------------------------------------------------------


def test_render_table_empty_rows():
    table = render_table(["a", "bb"], [])
    lines = table.splitlines()
    assert lines[0].split() == ["a", "bb"]
    assert lines[1].split() == ["-", "--"]
    assert len(lines) == 2


def test_render_table_ragged_rows():
    table = render_table(
        ["name", "ok", "fail"],
        [
            ["short"],  # padded with empty cells
            ["exact", "1", "2"],
            ["long", "3", "4", "DROPPED"],  # truncated to header width
        ],
    )
    lines = table.splitlines()
    assert len(lines) == 5
    assert "DROPPED" not in table
    assert lines[2].split() == ["short"]
    assert lines[4].split() == ["long", "3", "4"]
