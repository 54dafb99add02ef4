"""C14 — elasticity: live shard rebalancing under open-loop load.

The cluster layer's claim (ISSUE 4, paper §4.3): adding nodes to a
*stateful* tier is only useful if shards can move onto them without
stopping the world.  This benchmark runs the sharded database at ~70% of
its two-node capacity under an **open-loop** arrival process (arrivals do
not wait for completions, so any stall shows up as queueing, not as a
politely slowed workload), then doubles the node count mid-run and lets
the load-aware :class:`~repro.cluster.Rebalancer` migrate shards onto the
empty nodes through the live drain → copy → flip protocol.

Expected shape:

- a throughput dip while shards drain and copy (their keys are barred);
- recovery to the offered rate once ownership flips — post-migration
  steady state within 10% of pre-migration (both are offered-load
  limited; the doubled cluster has headroom, not magic);
- stragglers: a burst of forwarded requests right after each flip (stale
  route caches pay one extra hop, then repair);
- conservation: every balance accounted for after four live migrations.
"""

from repro.cluster import Rebalancer
from repro.db import IsolationLevel, ShardedDatabase
from repro.db.errors import TransactionAborted
from repro.harness import format_rows
from repro.sim import Environment
from repro.workloads import OpenLoop
from repro.workloads.transfers import TransferWorkload

from benchmarks.common import report

SER = IsolationLevel.SERIALIZABLE
ACCOUNTS = 128
SHARDS = 8
RATE_PER_S = 350.0          # ~70% of the two-node service capacity
TOTAL_OPS = 1400            # ~4s of offered load
SCALE_AT = 1200.0           # when the two new nodes join
WINDOW_MS = 200.0


def run_elasticity(seed=411):
    env = Environment(seed=seed)
    db = ShardedDatabase(
        env, num_shards=SHARDS, num_nodes=2, name="bank",
        rtt_ms=1.0, service_ms=2.0, node_concurrency=8,
        copy_ms_per_row=16.0, drain_timeout_ms=1000.0,
    )
    db.create_table("accounts", primary_key="id")
    workload = TransferWorkload(
        num_accounts=ACCOUNTS, initial_balance=1000, amount=5, theta=0.0
    )
    db.load("accounts", workload.initial_rows())
    ops = list(workload.operations(env.stream("ops"), TOTAL_OPS))
    completions: list[float] = []
    migration_ends: list[float] = []
    rebalancer = Rebalancer(env, db, interval=100.0, imbalance_factor=2.5)

    orig_migrate = db.migrate_shard

    def migrate_logged(shard, dest, dest_nodes=None):
        rows = yield from orig_migrate(shard, dest, dest_nodes)
        migration_ends.append(env.now)
        return rows

    db.migrate_shard = migrate_logged

    def issue(index):
        op = ops[index]
        for attempt in range(10):
            txn = db.begin(SER)
            try:
                src = yield from db.get(txn, "accounts", op.src)
                dst = yield from db.get(txn, "accounts", op.dst)
                yield from db.put(txn, "accounts", op.src,
                                  {**src, "balance": src["balance"] - op.amount})
                yield from db.put(txn, "accounts", op.dst,
                                  {**dst, "balance": dst["balance"] + op.amount})
                yield from db.commit(txn)
                completions.append(env.now)
                return
            except TransactionAborted:
                db.abort(txn)
                yield env.timeout(1.0 + attempt)
        raise RuntimeError("retries exhausted")

    def scale_out():
        yield env.timeout(SCALE_AT)
        db.add_node()
        db.add_node()
        rebalancer.start()

    arrivals = OpenLoop(rate_per_s=RATE_PER_S, total_ops=TOTAL_OPS)
    env.process(scale_out(), label="scale-out")
    env.run_until(env.process(arrivals.drive(env, issue), label="driver"))
    rebalancer.stop()

    total = sum(row["balance"] for row in db.all_rows("accounts"))
    migrations = db.migration_stats
    end = max(completions)
    windows = []
    t = 0.0
    while t < end:
        count = sum(1 for c in completions if t <= c < t + WINDOW_MS)
        windows.append((t, count / (WINDOW_MS / 1000.0)))
        t += WINDOW_MS

    migration_span = (
        (SCALE_AT, max(migration_ends)) if migration_ends
        else (SCALE_AT, SCALE_AT)
    )
    pre = [r for t0, r in windows if WINDOW_MS * 2 <= t0 + WINDOW_MS <= SCALE_AT]
    # Exclude the ragged final window: open-loop arrivals stop near ``end``.
    post = [r for t0, r in windows
            if t0 >= migration_span[1] and t0 + WINDOW_MS <= end - WINDOW_MS]
    dip = [r for t0, r in windows
           if migration_span[0] < t0 + WINDOW_MS and t0 < migration_span[1]]
    return {
        "db": db,
        "windows": windows,
        "pre_rate": sum(pre) / len(pre),
        "post_rate": sum(post) / len(post) if post else 0.0,
        "dip_rate": min(dip) if dip else float("nan"),
        "migrations": migrations,
        "forwards": db.router.stats.forwards,
        "conserved": total == workload.expected_total,
        "migration_span": migration_span,
    }


def test_c14_elasticity(benchmark):
    result = benchmark.pedantic(run_elasticity, rounds=1, iterations=1)
    db = result["db"]
    migrations = result["migrations"]
    rows = [
        [f"{t0:.0f}-{t0 + WINDOW_MS:.0f}", f"{rate:.0f}",
         "scale-out" if t0 <= SCALE_AT < t0 + WINDOW_MS else ""]
        for t0, rate in result["windows"]
    ]
    summary = format_rows(["window (ms)", "ops/s", "event"], rows)
    span = result["migration_span"]
    summary += "\n" + format_rows(
        ["metric", "value"],
        [
            ["offered load (ops/s)", f"{RATE_PER_S:.0f}"],
            ["pre-migration steady state (ops/s)", f"{result['pre_rate']:.0f}"],
            ["post-migration steady state (ops/s)", f"{result['post_rate']:.0f}"],
            ["worst window during migrations (ops/s)", f"{result['dip_rate']:.0f}"],
            ["nodes", f"2 -> {len(db.nodes)}"],
            ["shards migrated", f"{migrations.completed}"],
            ["rows copied", f"{migrations.rows_copied}"],
            ["migration span (ms)", f"{span[0]:.0f}-{span[1]:.0f}"],
            ["straggler forwards", f"{result['forwards']}"],
            ["conserved", f"{result['conserved']}"],
        ],
    )
    report("C14", "live shard rebalancing under open-loop load", summary)

    assert result["conserved"]
    assert migrations.completed >= 2, migrations
    assert migrations.aborted == 0, migrations
    # Shards actually spread onto the new nodes.
    owners = {db.directory.owner_of(s) for s in range(SHARDS)}
    assert len(owners) >= 3, owners
    # Post-migration steady state within 10% of pre-migration throughput.
    assert result["post_rate"] >= 0.9 * result["pre_rate"], result
    # Stale route caches repaired through the forward path.
    assert result["forwards"] >= migrations.completed
