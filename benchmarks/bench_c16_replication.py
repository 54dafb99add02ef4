"""C16 — Replication: the latency floor of quorum commits and consistency levels.

Paper claim (§3.2 / "Distributed Transactional Systems Cannot Be Fast"):
once a shard is replicated for availability, every acknowledged write
must pay at least one quorum round trip, and every *linearizable* read
pays a read-index confirmation round — latency that no amount of
engineering removes.  The recourse the paper discusses is weakening the
read path: bounded-stale follower reads answer locally (zero replication
round trips) at the price of staleness, with read-your-writes sessions
as the middle ground.

Setup: the same 2-shard bank, once on the default replica groups of one
(one engine per shard) and once on factor-3 groups, through the same
code (``repro.replication``), driven by
sequential single-shard transfers, cross-shard 2PC transfers, and point
reads at each consistency level.  All latencies are *virtual* ms — the
protocol cost, not host speed.

Expected shape: quorum-replicated writes sit strictly above the
single-replica baseline (the extra append round trip + follower fsync);
2PC over replication stacks both costs; leader reads pay the read-index
barrier while follower reads answer from local state and come in well
below them.  Read-your-writes sessions split the difference: local-speed
at the median, but reading your *own* fresh write waits out commit-index
propagation to the follower, so the tail stretches past the leader path.

Run directly (``python benchmarks/bench_c16_replication.py [--smoke]``),
or via pytest (``pytest benchmarks/bench_c16_replication.py``).
"""

from __future__ import annotations

import argparse
import os
import sys

if __package__ in (None, ""):  # direct script execution
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.db import IsolationLevel, ShardedDatabase
from repro.cluster import shard_of
from repro.harness import format_rows
from repro.replication import ReplicationConfig, Session
from repro.sim import Environment

from benchmarks.common import report

NUM_SHARDS = 2
RTT_MS = 1.0
WRITE_OPS = 60
READ_OPS = 60
SMOKE_OPS = 10
SER = IsolationLevel.SERIALIZABLE


def _key_on(shard: int, start: int = 0) -> int:
    key = start
    while shard_of(key, NUM_SHARDS) != shard:
        key += 1
    return key


def _make_db(env: Environment, replicated: bool) -> ShardedDatabase:
    db = ShardedDatabase(
        env, num_shards=NUM_SHARDS, name="bank", rtt_ms=RTT_MS,
        num_nodes=3 if replicated else None,
        replication=ReplicationConfig(factor=3 if replicated else 1),
    )
    db.create_table("accounts")
    keys = sorted({_key_on(s, i) for s in range(NUM_SHARDS) for i in range(64)})
    db.load("accounts", [{"id": k, "balance": 1000} for k in keys])
    return db


def _transfer(db, src, dst, amount):
    txn = db.begin(SER)
    a = yield from db.get(txn, "accounts", src)
    b = yield from db.get(txn, "accounts", dst)
    yield from db.put(txn, "accounts", src,
                      {"id": src, "balance": a["balance"] - amount})
    yield from db.put(txn, "accounts", dst,
                      {"id": dst, "balance": b["balance"] + amount})
    yield from db.commit(txn)
    return txn


def _percentiles(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    count = len(ordered)
    return {
        "mean_ms": sum(ordered) / count,
        "p50_ms": ordered[count // 2],
        "p99_ms": ordered[int(0.99 * (count - 1))],
        "ops": count,
    }


def run_writes(replicated: bool, cross_shard: bool, ops: int, seed: int) -> dict:
    env = Environment(seed=seed)
    db = _make_db(env, replicated)
    k0a, k0b = _key_on(0), _key_on(0, start=_key_on(0) + 1)
    k1 = _key_on(1)
    env.run(until=200.0)  # bootstrap no-ops commit; groups go quiescent

    latencies: list[float] = []

    def loop():
        for index in range(ops):
            src, dst = (k0a, k1) if cross_shard else (k0a, k0b)
            started = env.now
            yield from _transfer(db, src, dst, 1)
            latencies.append(env.now - started)

    env.run_until(env.process(loop(), label="c16.writes"))
    label = "2-shard 2pc" if cross_shard else "1-shard write"
    mode = "quorum(3)" if replicated else "single"
    return {"op": f"{label}/{mode}", **_percentiles(latencies)}


def run_reads(level: str, ops: int, seed: int) -> dict:
    env = Environment(seed=seed)
    db = _make_db(env, replicated=True)
    key = _key_on(0)
    env.run(until=200.0)
    group = db.replica_group(0)
    session = Session()

    latencies: list[float] = []

    def loop():
        for index in range(ops):
            txn = yield from _transfer(db, key, _key_on(0, start=key + 1), 1)
            session.observe(txn.applied.get(0))
            started = env.now
            if level == "leader":
                row = yield from group.leader_read("accounts", key)
            elif level == "follower":
                row = yield from group.follower_read("accounts", key)
            else:  # follower read honouring read-your-writes
                row = yield from group.follower_read(
                    "accounts", key, session=session
                )
            assert row is not None
            latencies.append(env.now - started)

    env.run_until(env.process(loop(), label="c16.reads"))
    return {"op": f"read/{level}", **_percentiles(latencies)}


def run_all(smoke: bool = False) -> list[dict]:
    ops = SMOKE_OPS if smoke else WRITE_OPS
    read_ops = SMOKE_OPS if smoke else READ_OPS
    return [
        run_writes(replicated=False, cross_shard=False, ops=ops, seed=161),
        run_writes(replicated=True, cross_shard=False, ops=ops, seed=161),
        run_writes(replicated=False, cross_shard=True, ops=ops, seed=161),
        run_writes(replicated=True, cross_shard=True, ops=ops, seed=161),
        run_reads("leader", ops=read_ops, seed=162),
        run_reads("follower", ops=read_ops, seed=162),
        run_reads("follower+session", ops=read_ops, seed=162),
    ]


def check_claims(results: list[dict]) -> None:
    by = {r["op"]: r for r in results}
    # Quorum-acknowledged writes pay the replication round trip: strictly
    # slower than the single-replica baseline, one- and two-shard alike.
    assert by["1-shard write/quorum(3)"]["mean_ms"] > by["1-shard write/single"]["mean_ms"]
    assert by["2-shard 2pc/quorum(3)"]["mean_ms"] > by["2-shard 2pc/single"]["mean_ms"]
    # 2PC over replication stacks the prepare and decide quorum rounds.
    assert by["2-shard 2pc/quorum(3)"]["mean_ms"] > by["1-shard write/quorum(3)"]["mean_ms"]
    # Linearizable leader reads pay the read-index barrier; bounded-stale
    # follower reads answer locally and come in below them.
    assert by["read/follower"]["mean_ms"] < by["read/leader"]["mean_ms"]
    # Read-your-writes sessions answer locally once the follower has caught
    # up (the median read beats the leader path) but pay the commit-index
    # propagation wait right after observing your own fresh write (the tail
    # stretches past the leader read — freshness is not free on a follower).
    assert by["read/follower+session"]["p50_ms"] < by["read/leader"]["mean_ms"]
    assert by["read/follower+session"]["p99_ms"] > by["read/leader"]["p99_ms"]


def format_table(results: list[dict]) -> str:
    return format_rows(
        ["operation", "ops", "mean ms", "p50 ms", "p99 ms"],
        [[r["op"], r["ops"], f"{r['mean_ms']:.3f}", f"{r['p50_ms']:.3f}",
          f"{r['p99_ms']:.3f}"] for r in results],
    )


def test_c16_replication(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(
        "C16", "replication latency floor: quorum writes and consistency levels",
        format_table(results),
    )
    check_claims(results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-scale sanity run; skips the claim checks")
    args = parser.parse_args(argv)
    results = run_all(smoke=args.smoke)
    print(format_table(results))
    if not args.smoke:
        check_claims(results)
        report(
            "C16", "replication latency floor: quorum writes and consistency levels",
            format_table(results),
        )
        print("C16 claims hold; wrote benchmarks/results/C16.txt")
    else:
        print("C16 smoke OK (claim checks skipped)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
