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
from repro.sim import Environment, Interrupted
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


def test_statefun_double_crash_keeps_inflight_accounting():
    """Two crashes, the second 45 ms after the first recovery returned.

    The dead incarnation's in-flight invocations and cross-partition
    hops must not settle against the next incarnation's ``_inflight``:
    when they did, the counter went negative, a checkpoint was cut
    mid-cascade, and the second crash lost a transfer's credit (the
    balances summed 10 short and 59 of 60 transfers were released)."""
    env = Environment(seed=0)
    workload = TransferWorkload(num_accounts=4, theta=0.9)
    bank = StatefunBank(env, workload, checkpoint_interval=20)
    bank.start()
    ops = list(workload.operations(env.stream("ops"), 60))
    for i, op in enumerate(ops):
        env.schedule(1.5 * i, bank.submit, op)

    def chaos():
        yield env.timeout(3.0)
        bank.runtime.crash()
        yield env.timeout(2.0)
        yield from bank.runtime.recover()
        yield env.timeout(45.0)
        bank.runtime.crash()
        yield from bank.runtime.recover()

    env.process(chaos())
    lowest = 0
    while env.now <= 10_000 and env.step():
        lowest = min(lowest, bank.runtime._inflight)
    assert lowest == 0
    total = sum(row["balance"] for row in bank.balances())
    assert total == workload.expected_total
    assert sorted(bank.completed_ops()) == sorted(op.op_id for op in ops)


@pytest.mark.parametrize("phase", ["exists", "get"])
def test_statefun_crash_during_recovery(phase):
    """A second crash while the first recovery reads the checkpoint.

    The interrupted recovery must die with the crash rather than finish
    and start a live incarnation underneath the second recovery (which
    would then rewind the dispatcher under stale invocations and find
    the runtime already running)."""
    env = Environment(seed=0)
    workload = TransferWorkload(num_accounts=4, theta=0.9)
    bank = StatefunBank(env, workload, checkpoint_interval=20)
    runtime = bank.runtime
    store = runtime.checkpoint_store
    reads = []
    real_get = store.get

    def get(*args, **kwargs):
        reads.append(env.now)
        return (yield from real_get(*args, **kwargs))

    store.get = get
    bank.start()
    ops = list(workload.operations(env.stream("ops"), 60))
    for i, op in enumerate(ops):
        env.schedule(1.5 * i, bank.submit, op)

    def chaos():
        yield env.timeout(45.0)
        assert runtime.stats.checkpoints >= 1  # so recovery reads one back
        runtime.crash()
        first = env.process(runtime.recover())
        if phase == "get":
            while not reads:
                yield env.timeout(0.5)
        yield env.timeout(1.0)  # a store request takes at least 5 ms
        assert len(reads) == (phase == "get")
        runtime.crash()
        yield from runtime.recover()
        return first

    chaos_run = env.process(chaos())
    env.run(until=10_000)
    first = chaos_run.result()
    assert first.failed and isinstance(first.exception(), Interrupted)
    assert runtime.stats.recoveries == 2
    total = sum(row["balance"] for row in bank.balances())
    assert total == workload.expected_total
    assert sorted(bank.completed_ops()) == sorted(op.op_id for op in ops)
