"""A2 (ablation) — conflict-free waves vs serial epochs in the txn dataflow.

Design choice under test (DESIGN.md §4): the Styx-like engine parallelizes
an epoch by splitting it into conflict-free waves
(:func:`repro.cluster.plan.conflict_waves`).  This ablation
disables the optimization by declaring every transaction's key set as one
shared key (forcing full serialization) and measures the cost at two skew
levels.

Expected shape: on low-skew workloads waves buy a large speedup (most
transactions are disjoint and share a wave); on extreme skew everything
conflicts anyway, so both variants converge.
"""

from repro.dataflow import TransactionalDataflow
from repro.harness import format_rows
from repro.sim import Environment
from repro.workloads import TransferWorkload

from benchmarks.common import report

OPS = 150


def run_engine(theta, parallel_waves, seed):
    env = Environment(seed=seed)
    workload = TransferWorkload(num_accounts=60, theta=theta)
    engine = TransactionalDataflow(env, epoch_interval=5.0,
                                   checkpoint_every=10_000)

    @engine.function("transfer")
    def transfer(ctx, key, payload):
        ctx.put(key, ctx.get(key, workload.initial_balance) - payload["amount"])
        dst = payload["dst"]
        ctx.put(dst, ctx.get(dst, workload.initial_balance) + payload["amount"])
        return None
        yield  # pragma: no cover

    engine.start()
    ops = list(workload.operations(env.stream("ops"), OPS))
    done = {"at": 0.0, "count": 0}

    def client(op):
        keys = [op.src, op.dst] if parallel_waves else ["GLOBAL"]
        future = engine.submit(
            "transfer", op.src, {"dst": op.dst, "amount": op.amount}, keys=keys
        )
        yield future
        done["count"] += 1
        done["at"] = env.now

    start = env.now
    for op in ops:
        env.process(client(op))
    env.run(until=1_000_000)
    label = f"waves={'on' if parallel_waves else 'off'}/theta={theta}"
    return {
        "label": label,
        "makespan": done["at"] - start,
        "completed": done["count"],
        "waves": engine.stats.waves,
    }


def run_all():
    return [
        run_engine(theta=0.2, parallel_waves=True, seed=171),
        run_engine(theta=0.2, parallel_waves=False, seed=171),
        run_engine(theta=0.95, parallel_waves=True, seed=172),
        run_engine(theta=0.95, parallel_waves=False, seed=172),
    ]


def test_a2_wave_parallelism_ablation(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(
        "A2", "deterministic waves vs fully serial epochs",
        format_rows(
            ["configuration", "makespan ms", "completed", "waves executed"],
            [[r["label"], f"{r['makespan']:.1f}", r["completed"], r["waves"]]
             for r in rows],
        ),
    )
    low_on, low_off, high_on, high_off = rows
    assert all(r["completed"] == OPS for r in rows)
    # Low skew: waves give a clear makespan win.
    assert low_off["makespan"] > 1.5 * low_on["makespan"]
    # High skew: the advantage shrinks (conflicts force serialization).
    low_gain = low_off["makespan"] / low_on["makespan"]
    high_gain = high_off["makespan"] / high_on["makespan"]
    assert high_gain < low_gain
