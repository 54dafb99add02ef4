"""C17 — the app matrix: kernel apps × runtime binders × fault classes.

The tentpole claim of the `repro.apps.core` kernel: declare an
application *once* (entities, generator stored procedures with declared
key sets, invariants) and it runs on every runtime paradigm with its
correctness story intact.  This benchmark operationalizes that in two
tables:

1. **Fault-free goodput** — the three kernel apps (double-entry payments
   ledger, gap-free invoicing, DeathStar-style hotel reservations)
   deployed through every registered binder under closed-loop
   contention.  Every sound deployment must commit its whole workload
   with zero invariant violations — a reserve that finds its hotel full
   is declined, which is a committed outcome, not an error; the
   intentionally unsound controls (uncoordinated microservices, plain
   actors, the transaction-per-step allocator split) run the *same spec*
   and show what each missing guarantee costs — some drift under pure
   concurrency, before any fault is injected.

2. **Chaos survival** — the spec-compiled oracles judging each app under
   the seeded nemesis, one fault class per cell plus a mixed column
   (the C13 discipline, now applied to apps the kernel registered rather
   than scenarios anyone hand-wrote).  Sound configurations survive every
   admissible class; the unsound controls are caught by the very oracles
   the spec compiled.
"""

import argparse
import os
import sys

if __package__ in (None, ""):  # direct script execution
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.apps.core import bind
from repro.chaos.mutants import SplitAllocatorDbBinder
from repro.chaos.scenarios import APPS
from repro.harness import format_rows
from repro.sim import Environment

from benchmarks.bench_c13_chaos_matrix import run_cell
from benchmarks.common import report

OPS = 40
SPACING_MS = 2.0
SEED = 11

#: (app, runtime — a registered name or a mutant binder class —, binder
#: opts, sound, label)
DEPLOYMENTS = (
    ("ledger", "db", {}, True, "ledger × db (serializable)"),
    ("ledger", "cluster", {"num_shards": 2}, True, "ledger × cluster (2 shards)"),
    ("ledger", "microservice", {}, True, "ledger × microservice (2pc)"),
    ("ledger", "actor", {}, True, "ledger × actors (txn)"),
    ("ledger", "dataflow", {}, True, "ledger × dataflow (epochs)"),
    ("ledger", "faas", {}, True, "ledger × faas (occ workflows)"),
    ("invoicing", "db", {}, True, "invoicing × db (serializable)"),
    ("invoicing", "cluster", {"num_shards": 2}, True, "invoicing × cluster (2 shards)"),
    ("invoicing", "microservice", {}, True, "invoicing × microservice (2pc)"),
    ("invoicing", "actor", {}, True, "invoicing × actors (txn)"),
    ("invoicing", "dataflow", {}, True, "invoicing × dataflow (epochs)"),
    ("invoicing", "faas", {}, True, "invoicing × faas (occ workflows)"),
    ("hotel", "db", {}, True, "hotel × db (serializable)"),
    ("hotel", "cluster", {"num_shards": 2}, True, "hotel × cluster (2 shards)"),
    ("hotel", "microservice", {}, True, "hotel × microservice (2pc)"),
    ("hotel", "actor", {}, True, "hotel × actors (txn)"),
    ("hotel", "dataflow", {}, True, "hotel × dataflow (epochs)"),
    ("hotel", "faas", {}, True, "hotel × faas (occ workflows)"),
    # Unsound controls: the same specs, minus one guarantee each.
    ("ledger", "microservice", {"mode": "none"}, False,
     "ledger × microservice (uncoordinated)"),
    ("ledger", "actor", {"mode": "plain"}, False, "ledger × actors (plain)"),
    ("invoicing", SplitAllocatorDbBinder, {}, False,
     "invoicing × db (split allocator)"),
    ("hotel", "microservice", {"mode": "none"}, False,
     "hotel × microservice (uncoordinated)"),
)

CHAOS_SEEDS = tuple(range(1, 5))
CHAOS_COLUMNS = ("crash", "kill_leader", "partition", "loss", "duplication", "mixed")
CHAOS_ROWS = (
    ("ledger", False, "ledger (2pc, spec oracles)"),
    ("invoicing", False, "invoicing (atomic, spec oracles)"),
    ("ledger", True, "ledger (uncoordinated)"),
    ("invoicing", True, "invoicing (split allocator)"),
)


def deploy(runtime, env: Environment, spec, opts: dict):
    """Bind ``spec`` onto a registered runtime, or build a mutant binder."""
    if isinstance(runtime, str):
        return bind(runtime, env, spec, **opts)
    return runtime(env, spec, **opts)


def drive(app: str, runtime: str, opts: dict, count: int = OPS) -> dict:
    """One fault-free closed-loop run; returns goodput + invariant verdict,
    and the run itself: per-op ``(start, end, outcome)`` (``"ok"`` or the
    exception's type name), the end time and the final snapshot."""
    env = Environment(seed=SEED)
    workload_of, spec_of = APPS[app]
    workload = workload_of()
    binder = deploy(runtime, env, spec_of(workload), opts)
    ops = list(workload.operations(env.stream(f"ops:{app}"), count))
    latencies: dict[str, tuple] = {}

    def one(op):
        start = env.now
        try:
            yield from binder.execute(op)
            outcome = "ok"
        except Exception as exc:  # noqa: BLE001 — any client-visible failure
            outcome = type(exc).__name__
        latencies[op.op_id] = (start, env.now, outcome)

    def main():
        pending = []
        for op in ops:
            yield env.timeout(SPACING_MS)
            pending.append(env.process(one(op)))
        for proc in pending:
            yield proc

    env.run_until(env.process(binder.setup()))
    env.run_until(env.process(main()))
    state = binder.snapshot()
    violated = sorted(
        invariant.name for invariant in binder.invariants()
        if invariant.check(state)
    )
    committed = sum(1 for *_, outcome in latencies.values() if outcome == "ok")
    return {
        "committed": committed,
        "errors": len(latencies) - committed,
        "violated": violated,
        "latencies": latencies,
        "end": env.now,
        "snapshot": state,
    }


def run_matrix(count: int = OPS, seeds=CHAOS_SEEDS, columns=CHAOS_COLUMNS):
    goodput = {
        label: drive(app, runtime, opts, count)
        for app, runtime, opts, _sound, label in DEPLOYMENTS
    }
    chaos = {
        (label, kind): run_cell(runtime, kind, broken, seeds)
        for runtime, broken, label in CHAOS_ROWS
        for kind in columns
    }
    return goodput, chaos


def render(goodput, chaos, count: int = OPS, seeds=CHAOS_SEEDS,
           columns=CHAOS_COLUMNS) -> str:
    goodput_rows = [
        [label,
         f"{cell['committed']}/{count}",
         str(cell["errors"]),
         ",".join(cell["violated"]) or "clean"]
        for _, _, _, _, label in DEPLOYMENTS
        for cell in [goodput[label]]
    ]

    def show(value):
        return "-" if value is None else f"{value}/{len(seeds)}"

    chaos_rows = [
        [label] + [show(chaos[(label, kind)]) for kind in columns]
        for _, _, label in CHAOS_ROWS
    ]
    return (
        format_rows(["deployment", "committed", "errors", "invariants"],
                    goodput_rows)
        + "\n\n"
        + format_rows(["configuration"] + list(columns), chaos_rows)
    )


def check_claims(goodput, chaos) -> None:
    # Every sound deployment commits the full workload, cleanly.
    for _, _, _, sound, label in DEPLOYMENTS:
        cell = goodput[label]
        if sound:
            assert cell["committed"] == OPS, (label, cell)
            assert not cell["violated"], (label, cell)

    # The controls run the same spec and the invariants see the damage —
    # uncoordinated writes drift under pure concurrency, no faults needed.
    for label in ("ledger × microservice (uncoordinated)",
                  "ledger × actors (plain)",
                  "hotel × microservice (uncoordinated)"):
        assert goodput[label]["violated"], (label, goodput[label])

    # The hotel is small enough that some reserves find it full: each
    # sound deployment declines some and confirms some, as committed
    # outcomes.
    for app, _, _, sound, label in DEPLOYMENTS:
        if app == "hotel" and sound:
            statuses = {row["status"]
                        for row in goodput[label]["snapshot"]["reservations"]}
            assert statuses == {"confirmed", "declined"}, (label, statuses)

    # Under chaos, every sound configuration survives every admissible
    # fault class with zero violating trials.
    for _, broken, label in CHAOS_ROWS:
        if broken:
            continue
        for kind in CHAOS_COLUMNS:
            value = chaos[(label, kind)]
            assert value is None or value == 0, (label, kind, value)

    # ... and the spec-compiled oracles catch both unsound controls: the
    # uncoordinated ledger somewhere in its budget, the split allocator
    # under the crash/failover schedules that kill it between its two
    # transactions.
    caught = sum(chaos[("ledger (uncoordinated)", kind)] or 0
                 for kind in CHAOS_COLUMNS)
    assert caught > 0, chaos
    caught = sum(chaos[("invoicing (split allocator)", kind)] or 0
                 for kind in ("crash", "kill_leader", "partition", "mixed"))
    assert caught > 0, chaos


def test_c17_app_matrix(benchmark):
    goodput, chaos = benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    report(
        "C17", "one app spec, every runtime: goodput and chaos survival",
        render(goodput, chaos),
    )
    check_claims(goodput, chaos)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-scale sanity run; skips the full claim checks")
    args = parser.parse_args(argv)
    if args.smoke:
        count, seeds, columns = 12, (1, 2), ("crash", "mixed")
        goodput, chaos = run_matrix(count, seeds, columns)
        print(render(goodput, chaos, count, seeds, columns))
        # Even at smoke scale, every sound deployment must finish clean.
        for _, _, _, sound, label in DEPLOYMENTS:
            cell = goodput[label]
            if sound:
                assert cell["committed"] == count, (label, cell)
                assert not cell["violated"], (label, cell)
        print("C17 smoke OK (full claim checks skipped)")
        return 0
    goodput, chaos = run_matrix()
    print(render(goodput, chaos))
    check_claims(goodput, chaos)
    report(
        "C17", "one app spec, every runtime: goodput and chaos survival",
        render(goodput, chaos),
    )
    print("C17 claims hold; wrote benchmarks/results/C17.txt")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
