"""Wall-clock benchmarks for the queue-oriented execution layer.

Two views of the epoch cycle (see ``repro.parallel``):

- **planning** — ``parallel_plan_txns_per_sec`` times :func:`plan_epoch`
  alone (queues + rounds over an already-sequenced batch): QueCC's planner
  is a serial stage in front of everything else and must stay cheap;
- **epoch execution** — ``parallel_epoch_w0_txns_per_sec`` runs a
  CPU-bearing op mix (single-key read-modify-writes and two-key transfers
  of a small ``AppSpec``, each burning ``spin`` work) through
  :class:`EpochExecutor`: plan → in-process execution through the app
  kernel's declared-access context → TID-ordered merge.  (The ``w0`` in
  the key is historical — it keeps the committed baseline gating the same
  measurement.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass


def spin(rounds: int, salt: int = 0) -> int:
    """Deterministic CPU work (a linear-congruential chain).

    Models the compute cost of real transaction logic: it makes the
    execution phase CPU-bound without touching the clock.
    """
    value = (salt * 2654435761 + 1) & 0x7FFFFFFF
    for _ in range(rounds):
        value = (value * 1103515245 + 12345) & 0x7FFFFFFF
    return value


@dataclass(frozen=True)
class _Op:
    kind: str
    keys: tuple
    work: int = 0


def _rmw(ctx, op):
    """Read-modify-write: add 1 to ``balance``, burning ``op.work`` rounds."""
    key = op.keys[0]
    row = (yield from ctx.get("kv", key)) or {"id": key, "balance": 0}
    value = row["balance"] + 1
    if op.work:
        value += spin(op.work, salt=value) % 1  # burns cycles, adds nothing
    yield from ctx.put("kv", key, {**row, "balance": value})
    return value


def _transfer(ctx, op):
    """Move 1 between two rows — the canonical cross-shard txn."""
    src, dst = op.keys
    src_row = (yield from ctx.get("kv", src)) or {"id": src, "balance": 0}
    dst_row = (yield from ctx.get("kv", dst)) or {"id": dst, "balance": 0}
    if op.work:
        spin(op.work, salt=1)
    yield from ctx.put("kv", src, {**src_row, "balance": src_row["balance"] - 1})
    yield from ctx.put("kv", dst, {**dst_row, "balance": dst_row["balance"] + 1})


def _keys(op):
    return [("kv", key) for key in op.keys]


def _spec():
    from repro.apps.core import AppSpec, EntitySpec, HandlerSpec

    return AppSpec(
        name="parallel-perf",
        entities=[EntitySpec("kv")],
        handlers=[
            HandlerSpec("rmw", _rmw, _keys, _keys),
            HandlerSpec("transfer", _transfer, _keys, _keys),
        ],
    )


def _mix(txns, accounts, cross_every, work):
    """A deterministic op mix: mostly single-key RMWs, some transfers."""
    for i in range(txns):
        if cross_every and i % cross_every == cross_every - 1:
            src = f"acct-{(i * 5 + 2) % accounts}"
            dst = f"acct-{(i * 7 + 3) % accounts}"
            if src == dst:
                dst = f"acct-{(i * 7 + 4) % accounts}"
            yield _Op("transfer", (src, dst), work)
        else:
            yield _Op("rmw", (f"acct-{(i * 13 + 1) % accounts}",), work)


def _epoch_run(*, shards, txns, epochs, accounts, cross_every, work):
    """Run the mix through a fresh engine; returns the elapsed seconds."""
    from repro.db import Database
    from repro.parallel import EpochExecutor
    from repro.sim import Environment

    env = Environment(seed=7)
    db = Database(env, name="parallel-perf")
    db.create_table("kv", primary_key="id")
    db.load("kv", [{"id": f"acct-{i}", "balance": 0} for i in range(accounts)])
    executor = EpochExecutor(db, _spec(), num_shards=shards)
    # One untimed warm-up epoch: first-touch costs are paid once per
    # process lifetime, not per epoch.
    for op in _mix(min(txns, 32), accounts, cross_every, work=0):
        executor.submit(op)
    executor.flush()
    start = time.perf_counter()
    for _ in range(epochs):
        for op in _mix(txns, accounts, cross_every, work):
            executor.submit(op)
        executor.flush()
    return time.perf_counter() - start


def _plan_run(*, txns, shards, accounts, cross_every, reps):
    """Time the planning phase alone over one sequenced batch."""
    from repro.parallel import plan_epoch
    from repro.transactions import Sequencer

    spec = _spec()
    sequencer = Sequencer()
    for i in range(txns):
        if cross_every and i % cross_every == cross_every - 1:
            op = _Op("transfer", (f"acct-{i % accounts}",
                                  f"acct-{(i * 7 + 3) % accounts}"))
        else:
            op = _Op("rmw", (f"acct-{(i * 13 + 1) % accounts}",))
        handler = spec.handler_for(op)
        sequencer.submit((op, handler, handler.access(op)))
    batch = sequencer.cut_epoch()
    best = float("inf")
    # Best-of-N passes: the planner is a sub-ms serial stage, so a single
    # timing is at the mercy of scheduler noise; the minimum is stable.
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(reps):
            plan = plan_epoch(batch, num_shards=shards)
        best = min(best, time.perf_counter() - start)
    assert plan.stats.txns == txns
    return (txns * reps) / best


def run(smoke: bool = False) -> dict:
    metrics: dict[str, float] = {}

    plan_scale = dict(txns=500, reps=2) if smoke else dict(txns=4000, reps=5)
    metrics["parallel_plan_txns_per_sec"] = round(_plan_run(
        shards=8, accounts=256, cross_every=16, **plan_scale
    ))

    epoch_scale = (
        dict(txns=120, epochs=1, work=60)
        if smoke else dict(txns=600, epochs=3, work=400)
    )
    elapsed = _epoch_run(shards=8, accounts=64, cross_every=16, **epoch_scale)
    total = epoch_scale["txns"] * epoch_scale["epochs"]
    metrics["parallel_epoch_w0_txns_per_sec"] = round(total / elapsed)
    return metrics


if __name__ == "__main__":
    import json

    print(json.dumps(run(), indent=2, sort_keys=True))
