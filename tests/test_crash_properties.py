"""Property tests: exactly-once guarantees under randomized crash points.

The strongest claim the dataflow-family runtimes make is that a crash at
*any* moment leaves state effects exactly-once after recovery.  These
tests let hypothesis pick the crash time.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import StatefunBank, TxnDataflowBank
from repro.dataflow import DataflowRuntime, JobGraph
from repro.net.latency import Latency
from repro.sim import Environment
from repro.storage.object_store import ObjectStore, ObjectStoreServer
from repro.workloads import TransferWorkload


@settings(max_examples=12, deadline=None)
@given(
    crash_at=st.floats(min_value=5.0, max_value=400.0),
    checkpoint_interval=st.sampled_from([20.0, 75.0, 300.0]),
    seed=st.integers(0, 100),
)
def test_dataflow_exactly_once_for_any_crash_time(crash_at, checkpoint_interval, seed):
    env = Environment(seed=seed)
    graph = JobGraph("counts")
    graph.source("events", emit_interval=4.0)

    def counting(state, key, value, emit):
        total = state.get(key, 0) + value
        state.put(key, total)
        emit(key, total)

    graph.operator("count", counting, parallelism=2, work_ms=0.1)
    graph.sink("out", mode="exactly_once")
    graph.connect("events", "count")
    graph.connect("count", "out")
    runtime = DataflowRuntime(
        env, graph, checkpoint_interval=checkpoint_interval,
        checkpoint_store=ObjectStoreServer(env, ObjectStore(),
                                           latency=Latency.constant(2.0)),
    )
    runtime.start()
    for _ in range(40):
        runtime.send("events", "k", 1)

    def chaos():
        yield env.timeout(crash_at)
        runtime.crash_worker(0)
        yield env.timeout(5.0)
        yield from runtime.recover()

    env.process(chaos())
    env.run(until=5000)
    values = [v for _k, v, _t in runtime.sink_outputs("out")]
    assert values and max(values) == 40          # nothing lost, nothing doubled
    assert sorted(values) == sorted(set(values))  # transactional sink: no dupes


@settings(max_examples=10, deadline=None)
@given(
    crash_at=st.floats(min_value=2.0, max_value=250.0),
    seed=st.integers(0, 50),
)
def test_statefun_conserves_for_any_crash_time(crash_at, seed):
    env = Environment(seed=seed)
    workload = TransferWorkload(num_accounts=12, theta=0.4)
    bank = StatefunBank(env, workload, checkpoint_interval=40.0)
    bank.start()
    ops = list(workload.operations(env.stream("ops"), 25))

    def feeder():
        for op in ops:
            yield env.timeout(6.0)
            bank.submit(op)

    env.process(feeder())

    def chaos():
        yield env.timeout(crash_at)
        bank.runtime.crash()
        yield env.timeout(5.0)
        yield from bank.runtime.recover()

    env.process(chaos())
    env.run(until=10_000)
    total = sum(row["balance"] for row in bank.balances())
    assert total == workload.expected_total
    completed = bank.completed_ops()
    assert len(completed) == len(set(completed))
    assert sorted(completed) == sorted(op.op_id for op in ops)


@settings(max_examples=10, deadline=None)
@given(
    crash_at=st.floats(min_value=2.0, max_value=200.0),
    seed=st.integers(0, 50),
    # 1: a delta every epoch, uploads (5-30 ms) queued behind the one in flight
    checkpoint_every=st.sampled_from([1, 3]),
)
def test_txn_dataflow_conserves_for_any_crash_time(crash_at, seed, checkpoint_every):
    env = Environment(seed=seed)
    workload = TransferWorkload(num_accounts=12, theta=0.4)
    bank = TxnDataflowBank(
        env, workload, epoch_interval=5.0, checkpoint_every=checkpoint_every
    )
    bank.start()
    env.run_until(env.process(bank.setup()))
    ops = list(workload.operations(env.stream("ops"), 20))
    for i, op in enumerate(ops):
        env.schedule(4.0 * i, env.process, bank.execute(op))

    def chaos():
        yield env.timeout(crash_at)
        bank.engine.crash()
        yield env.timeout(5.0)
        yield from bank.engine.recover()

    env.process(chaos())
    env.run(until=10_000)
    total = sum(row["balance"] for row in bank.balances())
    assert total == workload.expected_total
    # Exactly once, not merely conserved: every transfer moved its amount once.
    expected = {row["id"]: row["balance"] for row in workload.initial_rows()}
    for op in ops:
        expected[op.src] -= op.amount
        expected[op.dst] += op.amount
    assert {row["id"]: row["balance"] for row in bank.balances()} == expected


def test_statefun_zombie_turn_regression():
    """Pinned falsifying example (crash_at=30.0625): an invocation that
    slept across the crash instant must not wake up in the new incarnation
    and double-apply its effect (a *zombie turn*)."""
    env = Environment(seed=0)
    workload = TransferWorkload(num_accounts=12, theta=0.4)
    bank = StatefunBank(env, workload, checkpoint_interval=40.0)
    bank.start()
    ops = list(workload.operations(env.stream("ops"), 25))

    def feeder():
        for op in ops:
            yield env.timeout(6.0)
            bank.submit(op)

    env.process(feeder())

    def chaos():
        yield env.timeout(30.0625)  # inside op 4's work window
        bank.runtime.crash()
        yield env.timeout(5.0)
        yield from bank.runtime.recover()

    env.process(chaos())
    env.run(until=10_000)
    total = sum(row["balance"] for row in bank.balances())
    assert total == workload.expected_total
    completed = bank.completed_ops()
    assert len(completed) == len(set(completed))  # the zombie duplicated this
    assert sorted(completed) == sorted(op.op_id for op in ops)
