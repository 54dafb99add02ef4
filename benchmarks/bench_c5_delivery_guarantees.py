"""C5 — Delivery guarantees and the cost of exactly-once effects.

Paper claims (§3.2): HTTP-style RPC gives no delivery guarantee; retries
after timeouts duplicate messages; "uniqueness ID guarantee and subsequent
detection of duplicated messages are still the responsibility of
applications".

Setup: a counter service behind lossy RPC (10% loss each way).  Clients
issue increments under three client/server protocols:

- ``at-most-once`` — no retries: requests lost in the network are simply
  gone (**lost effects**);
- ``at-least-once`` — retries without dedup: a lost *reply* makes the
  client re-execute the increment (**duplicate effects**);
- ``exactly-once`` — retries + idempotency keys on a dedup store: clean,
  for a small latency premium on the dedup bookkeeping.

The effect ledger counts both anomaly kinds; conservation is checked
against the server's counter.
"""

from repro.harness import format_rows
from repro.messaging import IdempotencyStore, RpcClient, RpcServer, RpcTimeout
from repro.net import Latency, Network
from repro.sim import Environment
from repro.transactions import EffectLedger

from benchmarks.common import report

OPS = 300
LOSS = 0.10


def run_protocol(label, retries, dedup, seed):
    env = Environment(seed=seed)
    net = Network(env, default_latency=Latency.lognormal(1.0, 0.2))
    net.add_node("client")
    net.add_node("server")
    net.set_loss(LOSS)
    ledger = EffectLedger()
    state = {"count": 0}
    store = IdempotencyStore() if dedup else None
    server = RpcServer(net, net.node("server"), dedup_store=store)

    def incr(payload):
        yield env.timeout(0.2)
        state["count"] += 1
        ledger.apply(payload["op_id"])
        return state["count"]

    server.register("incr", incr)
    client = RpcClient(net, net.node("client"))
    latencies = []

    def one(op_index):
        op_id = f"op-{op_index}"
        start = env.now
        try:
            yield from client.call(
                "server", "incr", {"op_id": op_id},
                timeout=8.0, retries=retries,
                idempotency_key=op_id,
            )
        except RpcTimeout:
            return  # client saw a failure: not acknowledged
        ledger.acknowledge(op_id)
        latencies.append(env.now - start)

    def driver():
        processes = []
        for index in range(OPS):
            yield env.timeout(1.0)
            processes.append(env.process(one(index)))
        for process in processes:
            if not process.done:
                yield process

    env.run_until(env.process(driver()))
    rep = ledger.reconcile()
    from repro.core.metrics import percentile

    return {
        "label": label,
        "acked": ledger.acknowledged_count,
        "applied": ledger.applied_count,
        "lost": rep.lost_effects,
        "duplicates": rep.duplicate_effects,
        "p50": percentile(latencies, 50) if latencies else 0.0,
        "p99": percentile(latencies, 99) if latencies else 0.0,
        "server_count": state["count"],
    }


def run_all():
    return [
        run_protocol("at-most-once (no retry)", retries=0, dedup=False, seed=51),
        run_protocol("at-least-once (retry, no dedup)", retries=5, dedup=False, seed=52),
        run_protocol("exactly-once (retry + idempotency)", retries=5, dedup=True, seed=53),
    ]


def test_c5_delivery_guarantees(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(
        "C5", "delivery guarantees under 10% message loss",
        format_rows(
            ["protocol", "acked", "applied", "lost", "duplicates",
             "p50 ms", "p99 ms"],
            [[r["label"], r["acked"], r["applied"], r["lost"],
              r["duplicates"], f"{r['p50']:.2f}", f"{r['p99']:.2f}"]
             for r in rows],
        ),
    )
    amo, alo, eo = rows
    # At-most-once: some sends evaporated (client saw timeout -> not lost
    # by our definition) but crucially some effects are missing vs OPS.
    assert amo["applied"] < OPS
    assert amo["duplicates"] == 0
    # At-least-once: every op landed, some more than once.
    assert alo["duplicates"] > 0
    assert alo["lost"] == 0
    # Exactly-once: applied exactly the acknowledged set, no dupes.
    assert eo["duplicates"] == 0 and eo["lost"] == 0
    assert eo["applied"] == eo["server_count"] == eo["acked"]
