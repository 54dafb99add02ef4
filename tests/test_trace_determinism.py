"""Same seed, same results — with or without tracing.

Two guarantees the observability subsystem must hold:

1. Determinism: two runs with the same seed produce identical metrics
   summaries AND byte-identical serialized trace output.
2. Zero cost when disabled: a run without a tracer produces exactly the
   same metrics as the traced run (tracing never perturbs the simulation).
"""

from repro.db import DatabaseServer, IsolationLevel
from repro.harness import WorkloadDriver
from repro.messaging import IdempotencyStore, RpcCall, RpcClient, RpcServer
from repro.net import Network
from repro.obs import Tracer, chrome_trace_json
from repro.sim import Environment
from repro.workloads import OpenLoop


def run_scenario(seed, traced):
    """A small YCSB-flavoured read/update mix over one database server."""
    if traced:
        env = Environment(seed=seed, tracer=Tracer())
    else:
        env = Environment(seed=seed)
    server = DatabaseServer(env, name="store")
    server.create_table("kv")
    server.load("kv", [{"id": i, "v": 0} for i in range(16)])
    driver = WorkloadDriver(env, label="determinism")
    rng = env.stream("ops")

    class Op:
        def __init__(self, i):
            self.kind = "read" if rng.random() < 0.5 else "update"
            self.key = rng.randrange(16)
            self.op_id = f"op-{i}"

    ops = [Op(i) for i in range(30)]

    def execute(op):
        txn = yield from server.begin(IsolationLevel.SNAPSHOT)
        if op.kind == "read":
            yield from server.get(txn, "kv", op.key)
        else:
            row = yield from server.get(txn, "kv", op.key)
            yield from server.put(txn, "kv", op.key, {"id": op.key, "v": row["v"] + 1})
        yield from server.commit(txn)
        driver.ledger.apply(op.op_id)

    result = env.run_until(
        env.process(driver.run(ops, execute, OpenLoop(rate_per_s=400.0, total_ops=30)))
    )
    return result


def summary_tuples(result):
    return [
        (s.name, s.completed, s.failed, s.mean_ms, s.p50_ms, s.p99_ms)
        for s in result.metrics.summary()
    ]


def test_same_seed_runs_are_identical_including_trace():
    first = run_scenario(seed=101, traced=True)
    second = run_scenario(seed=101, traced=True)
    assert summary_tuples(first) == summary_tuples(second)
    assert first.completed == second.completed == 30
    assert first.trace_json() == second.trace_json()  # byte-identical


def test_different_seeds_diverge():
    # Sanity check that the scenario is actually seed-sensitive, so the
    # identity assertion above is meaningful.
    a = run_scenario(seed=101, traced=True)
    b = run_scenario(seed=202, traced=True)
    assert a.trace_json() != b.trace_json()


def test_tracing_disabled_leaves_metrics_unchanged():
    traced = run_scenario(seed=101, traced=True)
    untraced = run_scenario(seed=101, traced=False)
    assert untraced.trace is None
    assert summary_tuples(traced) == summary_tuples(untraced)
    assert traced.throughput == untraced.throughput
    assert traced.p(99) == untraced.p(99)


def run_gathered_round(seed):
    """One scatter-gather of three calls (one of them retried) under tracing."""
    env = Environment(seed=seed, tracer=Tracer())
    net = Network(env)
    net.add_node("client")
    net.add_node("server")
    server = RpcServer(net, net.node("server"), dedup_store=IdempotencyStore())

    def work(payload):
        yield env.timeout(payload)
        return payload

    server.register("work", work)
    client = RpcClient(net, net.node("client"))

    def flow():
        outcomes = yield from client.gather([
            RpcCall("server", "work", 3.0),
            # times out once; the retry piggybacks on the execution in flight
            RpcCall("server", "work", 9.0, timeout=6.0, idempotency_key="slow"),
            RpcCall("server", "work", 1.0),
        ])
        return [outcome.result() for outcome in outcomes]

    assert env.run_until(env.process(flow())) == [3.0, 9.0, 1.0]
    env.run()
    return env.tracer


def test_gathered_round_traces_one_call_span_per_call_deterministically():
    first = run_gathered_round(seed=101)
    second = run_gathered_round(seed=101)
    assert chrome_trace_json(first) == chrome_trace_json(second)  # byte-identical

    calls = first.find("rpc.call")
    assert [span.tags["method"] for span in calls] == ["work"] * 3
    assert all(span.finished for span in calls)
    assert len({span.parent_id for span in calls}) == 1  # siblings, not nested
    attempts = first.find("rpc.attempt")
    assert [span.parent_id for span in attempts] == [
        calls[0].span_id, calls[1].span_id, calls[2].span_id, calls[1].span_id,
    ]
    # every wire message hangs off the attempt that sent it
    requests = [s for s in first.find("net.msg") if s.tags["dst"] == "server"]
    assert [s.parent_id for s in requests] == [a.span_id for a in attempts]
