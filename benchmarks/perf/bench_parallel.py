"""Wall-clock benchmarks for the queue-oriented execution layer.

Two views of the epoch cycle (see ``repro.parallel``):

- **planning** — ``parallel_plan_txns_per_sec`` times :func:`plan_epoch`
  alone (queues + rounds over an already-sequenced batch): QueCC's planner
  is a serial stage in front of everything else and must stay cheap;
- **epoch execution** — ``parallel_epoch_w0_txns_per_sec`` runs a
  CPU-bearing spec mix (``kv.rmw``/``kv.transfer`` with ``spin`` work)
  through :class:`EpochExecutor`: plan → in-process execution → TID-ordered
  merge.  (The ``w0`` in the key is historical — it keeps the committed
  baseline gating the same measurement.)
"""

from __future__ import annotations

import time


def _submit_mix(executor, txns, accounts, cross_every, work):
    """A deterministic spec mix: mostly single-key RMWs, some transfers."""
    from repro.parallel import TxnSpec

    for i in range(txns):
        if cross_every and i % cross_every == cross_every - 1:
            src = f"acct-{(i * 5 + 2) % accounts}"
            dst = f"acct-{(i * 7 + 3) % accounts}"
            if src == dst:
                dst = f"acct-{(i * 7 + 4) % accounts}"
            executor.submit(TxnSpec(
                proc="kv.transfer",
                args=("kv", src, dst, 1, "balance", work),
                keys=(("kv", src), ("kv", dst)),
            ))
        else:
            key = f"acct-{(i * 13 + 1) % accounts}"
            executor.submit(TxnSpec(
                proc="kv.rmw",
                args=("kv", key, "balance", 1, work),
                keys=(("kv", key),),
            ))


def _epoch_run(*, shards, txns, epochs, accounts, cross_every, work):
    """Run the mix through a fresh engine; returns the elapsed seconds."""
    from repro.db import Database
    from repro.parallel import EpochExecutor
    from repro.sim import Environment

    env = Environment(seed=7)
    db = Database(env, name="parallel-perf")
    db.create_table("kv", primary_key="id")
    db.load("kv", [{"id": f"acct-{i}", "balance": 0} for i in range(accounts)])
    executor = EpochExecutor(db, num_shards=shards)
    # One untimed warm-up epoch: first-touch costs are paid once per
    # process lifetime, not per epoch.
    _submit_mix(executor, min(txns, 32), accounts, cross_every, work=0)
    executor.flush()
    start = time.perf_counter()
    for _ in range(epochs):
        _submit_mix(executor, txns, accounts, cross_every, work)
        executor.flush()
    return time.perf_counter() - start


def _plan_run(*, txns, shards, accounts, cross_every, reps):
    """Time the planning phase alone over one sequenced batch."""
    from repro.parallel import TxnSpec, plan_epoch
    from repro.transactions.sequencer import Sequencer

    sequencer = Sequencer()
    for i in range(txns):
        if cross_every and i % cross_every == cross_every - 1:
            src, dst = f"acct-{i % accounts}", f"acct-{(i * 7 + 3) % accounts}"
            sequencer.submit(TxnSpec(
                proc="kv.transfer", args=("kv", src, dst, 1),
                keys=(("kv", src), ("kv", dst)),
            ))
        else:
            key = f"acct-{(i * 13 + 1) % accounts}"
            sequencer.submit(TxnSpec(
                proc="kv.rmw", args=("kv", key), keys=(("kv", key),),
            ))
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
