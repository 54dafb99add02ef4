"""Tests for core metrics/taxonomy/faults and the workload driver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PROFILES,
    FaultPlan,
    MetricsCollector,
    percentile,
    taxonomy_table,
)
from repro.harness import RunResult, WorkloadDriver, format_results, format_rows
from repro.net import Latency, Network
from repro.sim import Environment
from repro.transactions import ConservationInvariant
from repro.workloads import OpenLoop


class TestPercentile:
    def test_single_sample(self):
        assert percentile([5.0], 99) == 5.0

    def test_median_of_two(self):
        assert percentile([1.0, 3.0], 50) == 2.0

    def test_extremes(self):
        data = [float(i) for i in range(1, 101)]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 100.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
    def test_matches_numpy(self, samples):
        import numpy as np

        for q in (0, 25, 50, 90, 99, 100):
            assert percentile(samples, q) == pytest.approx(
                float(np.percentile(samples, q)), rel=1e-9, abs=1e-9
            )


class TestMetricsCollector:
    def test_throughput_uses_window(self):
        metrics = MetricsCollector()
        metrics.start(0.0)
        for _ in range(10):
            metrics.record_success("op", 1.0)
        metrics.stop(1000.0)  # 1 virtual second
        assert metrics.throughput() == pytest.approx(10.0)

    def test_summary_rows(self):
        metrics = MetricsCollector()
        metrics.start(0.0)
        metrics.record_success("read", 2.0)
        metrics.record_success("read", 4.0)
        metrics.record_failure("write")
        metrics.stop(500.0)
        rows = {row.name: row for row in metrics.summary()}
        assert rows["read"].completed == 2
        assert rows["read"].mean_ms == 3.0
        assert rows["write"].failed == 1

    def test_zero_window(self):
        metrics = MetricsCollector()
        assert metrics.throughput() == 0.0


class TestTaxonomy:
    def test_all_profiles_present(self):
        assert {"microservices", "actors", "faas", "dataflow", "txn-dataflow"} <= set(
            PROFILES
        )

    def test_table_renders_every_profile(self):
        table = taxonomy_table()
        for name in PROFILES:
            assert name in table

    def test_profiles_reference_real_modules(self):
        import importlib

        for profile in PROFILES.values():
            root = profile.module.rsplit(".", 1)
            importlib.import_module(profile.module.split(".txn")[0].split(".entities")[0].split(".workflows")[0].split(".transactions")[0])


class TestFaultPlan:
    def test_crash_restart_sequence(self):
        env = Environment(seed=81)
        net = Network(env)
        node = net.add_node("n")
        plan = FaultPlan().crash_restart("n", at=10.0, downtime=5.0)
        plan.apply(env, net)
        env.run(until=12.0)
        assert not node.alive
        env.run(until=20.0)
        assert node.alive

    def test_partition_heal(self):
        env = Environment(seed=82)
        net = Network(env)
        net.add_node("a")
        net.add_node("b")
        plan = FaultPlan().partition(["a"], ["b"], at=5.0, heal_at=10.0)
        plan.apply(env, net)
        env.run(until=6.0)
        assert net.is_partitioned("a", "b")
        env.run(until=11.0)
        assert not net.is_partitioned("a", "b")

    def test_loss_and_duplication(self):
        env = Environment(seed=83)
        net = Network(env)
        plan = FaultPlan().loss(0.5, at=1.0).duplication(0.2, at=2.0)
        plan.apply(env, net)
        env.run()
        assert net._global_faults.drop_rate == 0.5
        assert net._global_faults.duplicate_rate == 0.2


class TestWorkloadDriver:
    def test_run_produces_metrics_and_clean_report(self):
        env = Environment(seed=84)
        driver = WorkloadDriver(env, label="demo")

        class Op:
            def __init__(self, i):
                self.kind = "noop"
                self.op_id = f"op-{i}"

        ops = [Op(i) for i in range(20)]
        applied = []

        def execute(op):
            yield env.timeout(2.0)
            applied.append(op.op_id)
            driver.ledger.apply(op.op_id)

        result = env.run_until(
            env.process(
                driver.run(ops, execute, OpenLoop(rate_per_s=500.0, total_ops=20))
            )
        )
        assert result.completed == 20
        assert result.anomalies.clean
        assert result.throughput > 0
        assert result.p(50) >= 2.0

    def test_failures_recorded_not_acknowledged(self):
        env = Environment(seed=85)
        driver = WorkloadDriver(env)

        class Op:
            kind = "flaky"

            def __init__(self, i):
                self.op_id = f"op-{i}"

        def execute(op):
            yield env.timeout(1.0)
            if op.op_id.endswith("1"):
                raise RuntimeError("boom")
            driver.ledger.apply(op.op_id)

        result = env.run_until(
            env.process(
                driver.run(
                    [Op(i) for i in range(10)],
                    execute,
                    OpenLoop(rate_per_s=100.0, total_ops=10),
                )
            )
        )
        assert result.failed == 1
        assert result.completed == 9
        assert result.anomalies.clean  # failed op not acked -> not "lost"

    def test_invariants_checked_against_state_fn(self):
        env = Environment(seed=86)
        driver = WorkloadDriver(env)
        balances = [{"balance": 50}, {"balance": 49}]

        class Op:
            kind = "noop"
            op_id = "only"

        def execute(op):
            yield env.timeout(1.0)
            driver.ledger.apply(op.op_id)

        result = env.run_until(
            env.process(
                driver.run(
                    [Op()],
                    execute,
                    OpenLoop(rate_per_s=10.0, total_ops=1),
                    invariants=[ConservationInvariant("balance", 100)],
                    state_fn=lambda: balances,
                )
            )
        )
        assert not result.anomalies.clean
        assert "invariant" in result.anomalies.summary()


class TestReport:
    def test_format_rows(self):
        out = format_rows(["a", "b"], [[1, "x"], [2, "y"]])
        assert "a" in out and "x" in out

    def test_format_results(self):
        env = Environment(seed=87)
        driver = WorkloadDriver(env, label="cfg-1")

        class Op:
            kind = "noop"
            op_id = "op"

        def execute(op):
            yield env.timeout(1.0)
            driver.ledger.apply("op")

        result = env.run_until(
            env.process(driver.run([Op()], execute, OpenLoop(10.0, 1)))
        )
        out = format_results([result])
        assert "cfg-1" in out
        assert "clean" in out
