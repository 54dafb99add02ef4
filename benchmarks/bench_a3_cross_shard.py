"""A3 (ablation) — the cost of distributed commit vs the multi-shard fraction.

Design context (§5.2: cross-engine/lower-level transactions; §4.2: the
price of distributed commit): a sharded database commits single-shard
transactions in one phase and cross-shard transactions with 2PC.  The
classic curve: latency rises with the fraction of transactions that
touch two shards, because each such transaction pays a prepare round and
a decision round where a local commit pays one round trip, and holds its
locks across both.  Each round goes to every participant at once, so the
price is exactly one extra round trip, however many shards are touched.

Sweep: transfer workload with the destination forced to the source's
shard (0%) or to another shard (25/50/100%).
"""

from repro.db import IsolationLevel, ShardedDatabase
from repro.db.errors import TransactionAborted
from repro.cluster import shard_of
from repro.harness import WorkloadDriver, format_rows
from repro.sim import Environment
from repro.workloads import ClosedLoop
from repro.workloads.transfers import TransferOp

from benchmarks.common import report

SER = IsolationLevel.SERIALIZABLE
OPS = 120
CLIENTS = 6
ACCOUNTS = 64
SHARDS = 4
RTT_MS = 3.0


def make_ops(env, fraction, count):
    """Transfers whose cross-shard fraction is exactly controlled."""
    rng = env.stream("ops")
    by_shard = {}
    for i in range(ACCOUNTS):
        account = f"acct-{i:05d}"
        by_shard.setdefault(shard_of(account, SHARDS), []).append(account)
    ops = []
    for i in range(count):
        src = f"acct-{rng.randrange(ACCOUNTS):05d}"
        src_shard = shard_of(src, SHARDS)
        cross = rng.random() < fraction
        if cross:
            other_shards = [s for s in by_shard if s != src_shard]
            dst = rng.choice(by_shard[rng.choice(other_shards)])
        else:
            candidates = [a for a in by_shard[src_shard] if a != src]
            dst = rng.choice(candidates)
        ops.append(TransferOp(f"op-{i}", src, dst, 5))
    return ops


def run_fraction(fraction, seed):
    env = Environment(seed=seed)
    sharded = ShardedDatabase(env, num_shards=SHARDS, rtt_ms=RTT_MS)
    sharded.create_table("accounts", primary_key="id")
    sharded.load("accounts", [
        {"id": f"acct-{i:05d}", "balance": 1000} for i in range(ACCOUNTS)
    ])
    ops = make_ops(env, fraction, OPS)

    def execute(op):
        for attempt in range(8):
            txn = sharded.begin(SER)
            try:
                src = yield from sharded.get(txn, "accounts", op.src)
                dst = yield from sharded.get(txn, "accounts", op.dst)
                yield from sharded.put(txn, "accounts", op.src,
                                       {**src, "balance": src["balance"] - op.amount})
                yield from sharded.put(txn, "accounts", op.dst,
                                       {**dst, "balance": dst["balance"] + op.amount})
                yield from sharded.commit(txn)
                return
            except TransactionAborted:
                sharded.abort(txn)
                yield env.timeout(1.0 + attempt)
        raise RuntimeError("retries exhausted")

    driver = WorkloadDriver(env, label=f"{int(fraction * 100)}% cross-shard")
    arrival = ClosedLoop(clients=CLIENTS, ops_per_client=OPS // CLIENTS,
                         think_time_ms=2.0)
    result = env.run_until(
        env.process(driver.run(ops[: arrival.total_ops], execute, arrival))
    )
    total = sum(r["balance"] for r in sharded.all_rows("accounts"))
    result.extra["conserved"] = total == ACCOUNTS * 1000
    result.extra["2pc_commits"] = sharded.stats.distributed_commits
    return result


def run_all():
    return [run_fraction(f, seed=291 + i)
            for i, f in enumerate((0.0, 0.25, 0.5, 1.0))]


def test_a3_cross_shard_fraction_sweep(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(
        "A3", "distributed commit cost vs cross-shard fraction",
        format_rows(
            ["fraction", "ops/s", "p50 ms", "p99 ms", "2PC commits", "conserved"],
            [[r.label, f"{r.throughput:.0f}", f"{r.p(50):.2f}",
              f"{r.p(99):.2f}", r.extra["2pc_commits"], r.extra["conserved"]]
             for r in results],
        ),
    )
    assert all(r.extra["conserved"] for r in results)
    by_label = {r.label: r for r in results}
    # Atomic everywhere; the median all-2PC transfer pays exactly the one
    # round trip 2PC adds over a one-phase commit, and all-local still
    # out-commits all-2PC.
    local, cross = by_label["0% cross-shard"], by_label["100% cross-shard"]
    assert abs(cross.p(50) - local.p(50) - RTT_MS) < 1e-9
    assert local.throughput > cross.throughput
    assert by_label["100% cross-shard"].extra["2pc_commits"] >= OPS * 0.9