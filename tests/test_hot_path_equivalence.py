"""Equivalence and regression tests for the messaging/tracing fast paths.

Every optimization added by the hot-path pass keeps a reference mode; the
bar here matches the flag's contract:

- the opt-in *timing-changing* path (append-window piggybacking) must
  produce the **same outcomes and final state** as its reference mode,
  with strictly less wire traffic;
- the read paths audited in the bugfix sweep must never mutate shared
  state as a side effect of being asked a question;
- the one reference switch, ``Environment(fast_path=False)``, must reach
  every engine the stack builds.
"""

import pytest

from repro.messaging.rpc import RpcClient, RpcRemoteError, RpcServer
from repro.net import Network
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
    """ShardedDbBinder consumes already-granted locks without yielding and
    needs no lock-wait timeout: it locks each op's declared keys in one global
    order, so the C17 invoicing workload (seed 11) — where body-order
    locking once phase-locked an op into 16 consecutive cross-shard
    deadlocks — runs with no client-visible error and no deadlock."""
    from repro.apps.core import bind
    from repro.apps.invoicing import invoicing_spec
    from repro.workloads.invoicing import InvoicingWorkload

    env = Environment(seed=11)
    binder = bind("cluster", env, invoicing_spec(InvoicingWorkload()),
                  num_shards=2)

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
    assert all(binder.db.leader_engine(shard).locks.stats.deadlocks == 0
               for shard in range(binder.db.num_shards))


def _shows_reference_mode(engine, fast_path):
    """Probe one storage fast path on ``engine`` by behaviour, not flags:
    does it copy reads, keep every version, fsync each commit?"""
    engine.create_table("probe")
    engine.load("probe", [{"id": 1, "v": 0}])
    flushes = engine.wal.flush_count
    read = []

    def body():
        for v in (1, 2):  # two commits in one virtual instant
            txn = engine.begin()
            yield from engine.put(txn, "probe", 1, {"id": 1, "v": v})
            yield from engine.commit(txn)
        txn = engine.begin()
        read.append((yield from engine.get(txn, "probe", 1)))
        yield from engine.commit(txn)

    run(engine.env, body())
    if fast_path == "copy_reads":
        return type(read[0]) is dict  # a fresh copy, not the frozen Row
    if fast_path == "gc":
        return engine.gc() == 0 and len(engine._tables["probe"].versions[1]) == 3
    # group_commit: the two writes and the read-only commit, one fsync each
    return engine.wal.flush_count - flushes == 3


def _every_engine(env):
    """One engine from each place the stack builds one."""
    from repro.chaos.scenarios import build_scenario
    from repro.db import DatabaseServer, ShardedDatabase

    plain = ShardedDatabase(env, num_shards=2, num_nodes=2)
    engines = [DatabaseServer(env).engine,
               *(plain.leader_engine(shard) for shard in range(2))]
    run(env, plain.migrate_shard(0, plain.nodes[1]))
    replicated = ShardedDatabase(env, num_shards=1, num_nodes=4, name="repl",
                                 replication=ReplicationConfig())
    engines += replicated.replica_group(0).engines()
    run(env, replicated.migrate_shard(0, replicated.nodes[3]))
    cluster = build_scenario("cluster", env, broken=True)
    run(env, cluster._flip_without_drain(0, cluster.db.nodes[1]))
    # the migration's replacement, the moved group, the unsound flip's engine
    engines += [plain.leader_engine(0), *replicated.replica_group(0).engines(),
                cluster.db.leader_engine(0)]
    assert len({id(engine) for engine in engines}) == 11
    return engines


@pytest.mark.parametrize("fast_path", ["copy_reads", "gc", "group_commit"])
def test_engine_options_reach_every_engine(fast_path):
    """``Environment(fast_path=False)`` is the one reference switch: every
    engine the stack builds on it — a DatabaseServer's, each shard, a
    migration's replacement, every replica a group factory builds (also
    after a replicated migration) and the chaos cluster's unsound flip —
    runs that storage path in reference mode; the default env builds
    none in reference mode."""
    reference = _every_engine(Environment(seed=3, fast_path=False))
    assert all(_shows_reference_mode(e, fast_path) for e in reference)
    default = _every_engine(Environment(seed=3))
    assert not any(_shows_reference_mode(e, fast_path) for e in default)


@pytest.mark.parametrize("replication", [None, ReplicationConfig()],
                         ids=["unreplicated", "replicated"])
def test_unknown_engine_option_is_rejected_at_construction(replication):
    """The retired per-engine flags fail loudly instead of being ignored:
    the reference mode comes from the environment alone."""
    from repro.db import Database, DatabaseServer, ShardedDatabase

    env = Environment(seed=3)
    for flag in ("gc", "group_commit", "copy_reads", "fast_grants"):
        with pytest.raises(TypeError):
            ShardedDatabase(env, num_shards=3, num_nodes=3,
                            replication=replication, **{flag: False})
        with pytest.raises(TypeError):
            DatabaseServer(env, **{flag: False})
        with pytest.raises(TypeError):
            Database(env, **{flag: False})
