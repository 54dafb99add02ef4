"""Equivalence and regression tests for the messaging/tracing fast paths.

Every optimization added by the hot-path pass keeps a reference mode; the
bar here matches the flag's contract:

- the opt-in *timing-changing* path (append-window piggybacking) must
  produce the **same outcomes and final state** as its reference mode,
  with strictly less wire traffic;
- span sampling must keep **whole trees** and leave ``sample_every=1``
  exports byte-identical to the default;
- the read paths audited in the bugfix sweep must never mutate shared
  state as a side effect of being asked a question.
"""

import pytest

from repro.messaging.rpc import RpcClient, RpcRemoteError, RpcServer
from repro.net import Network
from repro.obs import Tracer, chrome_trace_json
from repro.replication import ReplicaGroup, ReplicationConfig
from repro.sim import Environment


def run(env, gen, label="test"):
    return env.run_until(env.process(gen, label=label))


# -- loopback delivery --------------------------------------------------------


def test_send_local_dead_node_counts_dropped():
    env = Environment(seed=13)
    net = Network(env)
    node = net.add_node("app")
    node.bind("p")
    node.crash()
    net.send_local("app", "p", "payload")
    assert net.stats.dropped_dead == 1
    assert net.stats.delivered == 0


# -- span sampling ------------------------------------------------------------


def _traced_run(tracer):
    from repro.apps import DbBank
    from repro.harness import WorkloadDriver
    from repro.workloads import ClosedLoop, TransferWorkload

    env = Environment(seed=77, tracer=tracer)
    workload = TransferWorkload(num_accounts=20, theta=0.7)
    bank = DbBank(env, workload)
    ops = list(workload.operations(env.stream("ops:sampling"), 64))
    driver = WorkloadDriver(env, label="sampling")
    driver.ledger = bank.ledger
    arrival = ClosedLoop(clients=4, ops_per_client=16, think_time_ms=2.0)
    env.run_until(env.process(driver.run(ops, bank.execute, arrival)))
    return tracer


def test_sample_every_1_export_identical_to_default():
    full = chrome_trace_json(_traced_run(Tracer()))
    explicit = chrome_trace_json(_traced_run(Tracer(sample_every=1)))
    assert full == explicit


def test_sampling_keeps_whole_trees():
    """With sample_every=2 every retained span's parent is retained too —
    sampling drops whole root trees, never interior edges."""
    tracer = _traced_run(Tracer(sample_every=2))
    assert tracer.spans
    retained_ids = {span.span_id for span in tracer.spans}
    for span in tracer.spans:
        if span.parent_id is not None:
            assert span.parent_id in retained_ids


def test_sampling_halves_roots():
    full_roots = len(_traced_run(Tracer()).roots())
    sampled_roots = len(_traced_run(Tracer(sample_every=2)).roots())
    assert sampled_roots == (full_roots + 1) // 2


def test_sample_every_validates():
    with pytest.raises(ValueError):
        Tracer(sample_every=0)


# -- replication append piggybacking ------------------------------------------


def _replication_scenario(window_ms: float):
    from repro.db import IsolationLevel
    from repro.db.engine import Database

    env = Environment(seed=5)
    net = Network(env)

    def factory(node_name):
        engine = Database(env, name=f"g@{node_name}")
        engine.create_table("kv")
        return engine

    config = ReplicationConfig(append_window_ms=window_ms)
    group = ReplicaGroup(
        env, net, name="g", config=config,
        engine_factory=factory, node_names=["r0", "r1", "r2"],
    )
    leader = group.leader_replica()

    def proposer(env):
        # Pipelined proposals 3ms apart — longer than the intra-zone RTT,
        # so without a window each proposal triggers its own sync round,
        # while a 10ms window lets several share one AppendEntries batch.
        acks = []
        for i in range(12):
            engine = leader.engine
            txn = engine.begin(IsolationLevel.SERIALIZABLE)
            yield from engine.put(txn, "kv", i, {"id": i, "value": i * 10})
            gid = ("t", i)
            writes = engine.stage_replicated(txn, gid)
            acks.append(leader.propose(("commit", gid, writes)))
            yield env.timeout(3.0)
        for ack in acks:
            status, _detail = yield ack
            assert status == "ok"

    run(env, proposer(env))
    env.run(until=250.0)  # same fixed horizon: heartbeat counts comparable
    applied = [replica.applied_index for replica in group.replicas]
    values = [
        [replica.engine.read_latest("kv", i) for i in range(12)]
        for replica in group.replicas
    ]
    return applied, values, leader.client.stats.calls


def test_append_window_same_state_fewer_rpcs():
    """append_window_ms batches same-window proposals into shared
    AppendEntries RPCs: identical replicated state, fewer leader calls."""
    ref_applied, ref_values, ref_calls = _replication_scenario(0.0)
    win_applied, win_values, win_calls = _replication_scenario(10.0)
    assert win_applied == ref_applied
    assert win_values == ref_values
    for row_set in win_values:
        assert [row["value"] for row in row_set] == [i * 10 for i in range(12)]
    assert win_calls < ref_calls


def test_append_window_defaults_off():
    assert ReplicationConfig().append_window_ms == 0.0


# -- bugfix sweep: read paths must not mutate ---------------------------------


def test_effective_faults_reads_do_not_create_link_entries():
    env = Environment(seed=1)
    net = Network(env)
    net.add_node("a")
    net.add_node("b")
    net.send("a", "b", "p", "x")
    assert net._link_faults == {}
    assert net._effective_faults("a", "b") is net._global_faults
    assert net._link_faults == {}


def test_is_partitioned_does_not_mutate():
    env = Environment(seed=1)
    net = Network(env)
    net.add_node("a")
    net.add_node("b")
    assert net.is_partitioned("a", "b") is False
    assert net._partitions == set()


def test_unknown_method_reply_leaves_server_state_clean():
    env = Environment(seed=2)
    net = Network(env)
    net.add_node("server")
    client_node = net.add_node("client")
    server = RpcServer(net, net.node("server"), service="svc")
    client = RpcClient(net, client_node, service="svc")

    def caller(env):
        with pytest.raises(RpcRemoteError):
            yield from client.call("server", "nope", None, retries=0)
        return True

    assert run(env, caller(env)) is True
    assert server._handlers == {}
    assert server._inflight == {}
    assert server._executed_keys == set()


# -- cross-shard 2PC on fast grants, deadlock-free by ordered locking ---------


def test_cluster_binder_is_deadlock_free_on_fast_grants():
    """ShardedDbBinder keeps the engines' default fast grants and needs no
    lock-wait timeout: it locks each op's declared keys in one global
    order, so the C17 invoicing workload (seed 11) — where body-order
    locking once phase-locked an op into 16 consecutive cross-shard
    deadlocks — runs with no client-visible error and no deadlock."""
    from repro.apps.core import bind
    from repro.apps.invoicing import invoicing_spec
    from repro.workloads.invoicing import InvoicingWorkload

    env = Environment(seed=11)
    binder = bind("cluster", env, invoicing_spec(InvoicingWorkload()),
                  num_shards=2)
    assert all(eng._fast_grants is True for eng in binder.db.shards)

    ops = list(InvoicingWorkload().operations(env.stream("ops:invoicing"), 40))
    errors = []

    def one(op):
        try:
            yield from binder.execute(op)
        except Exception as exc:  # noqa: BLE001 — any client-visible failure
            errors.append((op.op_id, type(exc).__name__))

    def driver():
        pending = []
        for op in ops:
            yield env.timeout(2.0)
            pending.append(env.process(one(op)))
        for proc in pending:
            yield proc
        return True

    assert run(env, driver()) is True
    assert errors == []
    assert all(eng.locks.stats.deadlocks == 0 for eng in binder.db.shards)


#: One non-default value per ``Database`` option; the first test below
#: fails when ``Database`` grows an option this table does not name.
_ENGINE_OPTIONS = {
    "gc": False,
    "gc_chain_threshold": 3,
    "group_commit": False,
    "copy_reads": True,
    "fast_grants": False,
}


def _engine_option(engine, option):
    return getattr(engine, f"_{option}")


def test_engine_option_table_names_every_database_option():
    import inspect

    from repro.db import Database

    declared = {
        name for name, param in
        inspect.signature(Database.__init__).parameters.items()
        if param.kind is param.KEYWORD_ONLY
    }
    assert declared == set(_ENGINE_OPTIONS)


@pytest.mark.parametrize("option", sorted(_ENGINE_OPTIONS))
def test_engine_options_reach_every_engine(option):
    """``DatabaseServer`` and ``ShardedDatabase`` declare no engine flag
    of their own: whatever ``Database`` accepts reaches every engine they
    build — shard engines, a migration's replacement engine, and every
    replica a group factory creates — and defaults stay ``Database``'s."""
    from repro.db import Database, DatabaseServer, ShardedDatabase

    value = _ENGINE_OPTIONS[option]
    opts = {option: value}
    env = Environment(seed=3)
    default = _engine_option(Database(env), option)
    assert default != value

    assert _engine_option(DatabaseServer(env, **opts).engine, option) == value
    assert _engine_option(DatabaseServer(env).engine, option) == default

    plain = ShardedDatabase(env, num_shards=2, num_nodes=2)
    assert [_engine_option(e, option) for e in plain.shards] == [default] * 2

    sharded = ShardedDatabase(env, num_shards=2, num_nodes=2, name="opt", **opts)
    assert sharded.engine_options == opts
    before = sharded.shards[0]
    run(env, sharded.migrate_shard(0, sharded.nodes[1]))
    assert sharded.shards[0] is not before  # the replacement engine
    assert [_engine_option(e, option) for e in sharded.shards] == [value] * 2

    replicated = ShardedDatabase(
        env, num_shards=1, num_nodes=3, name="repl",
        replication=ReplicationConfig(), **opts,
    )
    replicas = replicated._groups[0].engines()
    assert len(replicas) == 3
    assert [_engine_option(e, option) for e in replicas] == [value] * 3


@pytest.mark.parametrize("replication", [None, ReplicationConfig()],
                         ids=["unreplicated", "replicated"])
def test_unknown_engine_option_is_rejected_at_construction(replication):
    from repro.db import DatabaseServer, ShardedDatabase

    env = Environment(seed=3)
    with pytest.raises(TypeError):
        ShardedDatabase(env, num_shards=3, num_nodes=3,
                        replication=replication, no_such_flag=True)
    with pytest.raises(TypeError):
        DatabaseServer(env, no_such_flag=True)
