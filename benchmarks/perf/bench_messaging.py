"""Messaging-tier microbenchmarks: wall-clock throughput of the hot paths.

Three scenarios cover the layers the cross-layer hot-path pass touches:

- ``rpc_roundtrip`` — untraced request/reply calls through
  :mod:`repro.messaging.rpc` between two nodes (the per-call dispatch,
  ``__slots__`` envelope construction, and reply-matching cost);
- ``broker`` — publish plus consumer-group poll/commit cycles through
  :mod:`repro.messaging.broker`;
- ``replication_append`` — leader proposals through a factor-3
  :class:`repro.replication.ReplicaGroup` (AppendEntries batching, quorum
  acks, apply).

All figures are operations per *wall-clock* second — virtual-time results
are asserted deterministic elsewhere; this file measures interpreter cost.
"""

from __future__ import annotations

import time

from repro.messaging.broker import Broker
from repro.messaging.rpc import RpcClient, RpcServer
from repro.net import Network
from repro.replication import ReplicaGroup
from repro.sim import Environment


def _rpc_roundtrip(n: int) -> tuple[int, float]:
    env = Environment(seed=1)
    net = Network(env)
    net.add_node("server")
    client_node = net.add_node("client")
    server = RpcServer(net, net.node("server"), service="echo")

    def echo(payload):
        return payload
        yield  # pragma: no cover - generator protocol only

    server.register("echo", echo)
    client = RpcClient(net, client_node, service="echo")

    def caller(env):
        for i in range(n):
            yield from client.call("server", "echo", i)

    start = time.perf_counter()
    env.run_until(env.process(caller(env), label="rpc-bench"))
    elapsed = time.perf_counter() - start
    assert client.stats.calls == n and client.stats.timeouts == 0
    return n, elapsed


def _broker(n: int) -> tuple[int, float]:
    env = Environment(seed=1)
    broker = Broker(env)
    broker.create_topic("events", partitions=2)
    consumer = broker.consumer("bench", "events")

    def producer(env):
        for i in range(n):
            yield from broker.publish("events", key=i % 8, value=i)

    def drain(env):
        seen = 0
        while seen < n:
            records = yield from consumer.poll(max_records=32)
            seen += len(records)
            yield from consumer.commit()
        return seen

    start = time.perf_counter()
    env.process(producer(env), label="producer")
    seen = env.run_until(env.process(drain(env), label="consumer"))
    elapsed = time.perf_counter() - start
    assert seen == n
    return 2 * n, elapsed  # one publish + one consume per record


def _replication_append(n: int) -> tuple[int, float]:
    from repro.db.engine import Database

    env = Environment(seed=1)
    net = Network(env)

    def factory(node_name):
        engine = Database(env, name=f"bench@{node_name}")
        engine.create_table("kv")
        return engine

    group = ReplicaGroup(
        env, net, name="bench",
        engine_factory=factory, node_names=["r0", "r1", "r2"],
    )

    def proposer(env):
        leader = group.leader_replica()
        engine = leader.engine
        from repro.db import IsolationLevel

        for i in range(n):
            txn = engine.begin(IsolationLevel.SERIALIZABLE)
            yield from engine.put(txn, "kv", i, {"id": i, "value": i})
            gid = ("bench", i)
            writes = engine.stage_replicated(txn, gid)
            yield from group.replicate(("commit", gid, writes), replica=leader)

    start = time.perf_counter()
    env.run_until(env.process(proposer(env), label="proposer"))
    elapsed = time.perf_counter() - start
    return n, elapsed


def run(smoke: bool = False) -> dict:
    """Return {metric -> messaging ops/sec} for the three scenarios."""
    n = 200 if smoke else 2_000
    metrics: dict[str, float] = {}
    ops, elapsed = _rpc_roundtrip(n)
    metrics["messaging_rpc_roundtrips_per_sec"] = round(ops / elapsed)
    ops, elapsed = _broker(n)
    metrics["messaging_broker_ops_per_sec"] = round(ops / elapsed)
    ops, elapsed = _replication_append(max(1, n // 4))
    metrics["messaging_replication_appends_per_sec"] = round(ops / elapsed)
    return metrics


if __name__ == "__main__":
    import json

    print(json.dumps(run(), indent=2, sort_keys=True))
