"""Queue-oriented deterministic execution (QueCC-style) of app-kernel ops.

Following "A Queue-oriented Transaction Processing Paradigm" (QueCC, see
PAPERS.md), deterministic transaction processing is split into a
**planning phase** — a sequencer epoch of :class:`~repro.apps.core.AppSpec`
ops, each with its declared key set, is partitioned into per-shard
execution queues, with cross-shard transactions becoming multi-queue
entries settled at deterministic rendezvous points — an **execution
phase** that drains each round's independent queues with zero shared-lock
coordination, because the plan already encodes every conflict, running
each handler body through the app kernel's declared-access context
(:mod:`repro.apps.core.reference`), and a **merge phase** that re-applies
every result into the authoritative engines in the sequencer's seeded
total order.

The governing invariant is serial equivalence: a planned epoch must leave
the engines in exactly the state that running the same ops one by one in
TID order on a plain dict would (``tests/test_parallel``).  The queues
execute in the calling process; docs/PERFORMANCE.md § "Parallel execution"
records why no OS-process pool drains them.
"""

from repro.cluster.plan import EpochPlan, PlannedTxn, PlanStats, Round, plan_epoch
from repro.parallel.executor import EpochExecutor, EpochResult

__all__ = [
    "EpochExecutor",
    "EpochPlan",
    "EpochResult",
    "PlanStats",
    "PlannedTxn",
    "Round",
    "plan_epoch",
]
