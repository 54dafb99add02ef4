"""Wall-clock benchmarks for the storage-engine fast paths.

Three scenarios, one per fast path (see the "Storage engine" section of
``docs/PERFORMANCE.md``):

- **hotkey** — a single-writer update loop hammering a handful of keys
  under snapshot isolation.  Version-chain GC keeps every chain at the
  prune threshold instead of letting them grow with transaction count;
  the bench reports update throughput plus the observed maximum chain
  length and pruned-version count.
- **commit** — many clients committing in the same virtual instants.
  Group commit folds all same-instant commits into one shared fsync;
  the bench reports commit throughput in grouped mode and the raw flush
  counts for grouped vs. reference (``Environment(fast_path=False)``) runs.
- **scan** — repeated full-table scans.  Copy elision returns the
  immutable committed rows themselves; the reference mode
  (``Environment(fast_path=False)``) materialises a defensive dict per
  row.  Both rates are reported so the elision win stays visible in the
  gate.

Smoke mode runs the same scenarios at reduced scale (same metric names,
like ``bench_kernel``); smoke numbers are not comparable to the
committed baseline, so ``scripts/perfcheck.py --smoke`` prints them and
skips the gate.
"""

from __future__ import annotations

import time

HOT_KEYS = 16


def _run_hotkey(n_txns: int):
    from repro.db import Database, IsolationLevel
    from repro.sim import Environment

    env = Environment(seed=11)
    db = Database(env, name="perf-hot")
    db.create_table("t")
    db.load("t", [{"id": k, "v": 0} for k in range(HOT_KEYS)])

    def worker():
        for i in range(n_txns):
            key = i % HOT_KEYS
            txn = db.begin(IsolationLevel.SNAPSHOT)
            row = yield from db.get(txn, "t", key)
            yield from db.put(txn, "t", key, {"id": key, "v": row["v"] + 1})
            yield from db.commit(txn)

    env.process(worker(), label="hotkey")
    start = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - start
    max_chain = max(len(chain) for chain in db._tables["t"].versions.values())
    return elapsed, max_chain, db.stats.gc_pruned_versions


def _run_commit(clients: int, rounds: int, fast_path: bool):
    from repro.db import Database, IsolationLevel
    from repro.sim import Environment

    env = Environment(seed=23, fast_path=fast_path)
    db = Database(env, name="perf-commit")
    db.create_table("t")
    db.load("t", [{"id": k, "v": 0} for k in range(clients)])

    def client(k):
        for i in range(rounds):
            txn = db.begin(IsolationLevel.SERIALIZABLE)
            yield from db.put(txn, "t", k, {"id": k, "v": i})
            yield from db.commit(txn)
            yield env.timeout(1.0)

    for k in range(clients):
        env.process(client(k), label=f"commit:{k}")
    start = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - start
    return elapsed, db.stats.flush_count


def _run_scan(rows: int, repeats: int, fast_path: bool):
    from repro.db import Database, IsolationLevel
    from repro.sim import Environment

    env = Environment(seed=7, fast_path=fast_path)
    db = Database(env, name="perf-scan")
    db.create_table("t")
    db.load("t", [{"id": k, "v": k, "pad": "x" * 32} for k in range(rows)])

    def reader():
        for _ in range(repeats):
            txn = db.begin(IsolationLevel.READ_COMMITTED)
            out = yield from db.scan(txn, "t")
            assert len(out) == rows
            yield from db.commit(txn)

    env.process(reader(), label="scan")
    start = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - start
    return elapsed, rows * repeats


def run(smoke: bool = False) -> dict:
    n_hot = 2_000 if smoke else 20_000
    clients, rounds = (8, 25) if smoke else (32, 200)
    scan_rows, scan_repeats = (500, 10) if smoke else (4_000, 100)

    metrics: dict[str, float] = {}

    elapsed, max_chain, pruned = _run_hotkey(n_hot)
    metrics["storage_hotkey_txns_per_sec"] = round(n_hot / elapsed)
    metrics["storage_hotkey_max_chain"] = max_chain
    metrics["storage_hotkey_pruned_versions"] = pruned

    elapsed, grouped_flushes = _run_commit(clients, rounds, fast_path=True)
    metrics["storage_commit_txns_per_sec"] = round(clients * rounds / elapsed)
    metrics["storage_commit_flushes_grouped"] = grouped_flushes
    _, reference_flushes = _run_commit(clients, rounds, fast_path=False)
    metrics["storage_commit_flushes_reference"] = reference_flushes

    elapsed, total_rows = _run_scan(scan_rows, scan_repeats, fast_path=True)
    metrics["storage_scan_rows_per_sec"] = round(total_rows / elapsed)
    elapsed, total_rows = _run_scan(scan_rows, scan_repeats, fast_path=False)
    metrics["storage_scan_copy_rows_per_sec"] = round(total_rows / elapsed)

    return metrics


if __name__ == "__main__":
    import json

    print(json.dumps(run(), indent=2, sort_keys=True))
