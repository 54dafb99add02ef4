"""Queue-oriented deterministic execution (QueCC-style).

Following "A Queue-oriented Transaction Processing Paradigm" (QueCC, see
PAPERS.md), deterministic transaction processing is split into a
**planning phase** — a sequencer epoch is partitioned into per-shard
execution queues, with cross-shard transactions becoming multi-queue
entries settled at deterministic rendezvous points — an **execution
phase** that drains each round's independent queues with zero shared-lock
coordination, because the plan already encodes every conflict, and a
**merge phase** that re-applies every result into the authoritative
engines in the sequencer's seeded total order.

The governing invariant is serial equivalence: a planned epoch must leave
the engines in exactly the state that applying the same procedures one by
one in TID order would (``tests/test_parallel``).  The queues execute in
the calling process; docs/PERFORMANCE.md § "Parallel execution" records
why no OS-process pool drains them.
"""

from repro.parallel.executor import EpochExecutor, EpochResult
from repro.parallel.plan import (
    EpochPlan,
    PlannedTxn,
    PlanStats,
    Round,
    TxnSpec,
    plan_epoch,
)
from repro.parallel.procs import (
    PROC_REGISTRY,
    TxnView,
    UndeclaredKey,
    UnknownProcedure,
    execute_entries,
    procedure,
    spin,
)

__all__ = [
    "EpochExecutor",
    "EpochPlan",
    "EpochResult",
    "PlanStats",
    "PlannedTxn",
    "PROC_REGISTRY",
    "Round",
    "TxnSpec",
    "TxnView",
    "UndeclaredKey",
    "UnknownProcedure",
    "execute_entries",
    "plan_epoch",
    "procedure",
    "spin",
]
