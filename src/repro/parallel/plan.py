"""The planning phase: cut epoch → per-shard queues → rendezvous rounds.

QueCC's split ("A Queue-oriented Transaction Processing Paradigm", see
PAPERS.md) separates *planning* from *execution*: a planner thread walks
the epoch in the sequencer's total order and distributes transactions into
per-shard priority queues; executors then drain the queues in parallel
with zero shared-lock coordination, because the plan already encodes every
conflict.

Here the total order is the seeded Calvin-style order of
:class:`repro.transactions.sequencer.Sequencer` (TID order within an
epoch), a transaction is one application op with its
:class:`~repro.apps.core.spec.HandlerSpec` and declared
:class:`~repro.apps.core.spec.OpAccess`, key → shard routing goes through
the cluster layer's platform-stable hash (:func:`repro.cluster.stable_hash`,
the same formula the placement directory's rings use), and cross-shard
transactions become **multi-queue entries with deterministic rendezvous
points**: the planner slices the epoch into *rounds* — independent
per-shard queue segments followed by the cross-shard transactions that
must observe all of them — so the executor can run each round's queues
independently and settle the rendezvous transactions at the barrier, in
TID order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, NamedTuple, Optional

from repro.apps.core.spec import HandlerSpec, OpAccess
from repro.cluster import stable_hash
from repro.transactions.sequencer import SequencedTxn, partition_conflicts


class PlannedTxn(NamedTuple):
    """One sequenced op with its plan-time routing decision attached."""

    tid: int
    op: Any
    handler: HandlerSpec
    access: OpAccess
    #: sorted shard ids owning at least one declared key
    shards: tuple


@dataclass
class Round:
    """One barrier-free slice of an epoch.

    ``local`` queues contain only single-shard transactions and are
    independent of each other (their key sets are disjoint across shards
    by construction); ``rendezvous`` holds the cross-shard transactions that
    execute — serially, in TID order — once every local queue of the round
    has drained.
    """

    local: dict[int, list[PlannedTxn]] = field(default_factory=dict)
    rendezvous: list[PlannedTxn] = field(default_factory=list)


@dataclass
class PlanStats:
    txns: int = 0
    single_shard: int = 0
    cross_shard: int = 0
    rounds: int = 0
    #: conflict-free waves of the whole epoch (partition_conflicts): the
    #: theoretical serialization depth the queues must respect
    waves: int = 0
    #: largest per-shard queue — the critical path of the execution phase
    max_queue: int = 0


@dataclass
class EpochPlan:
    """The planner's output: queues for the satellite view, rounds for the
    executor, and the stats the planning-phase bench reports."""

    epoch: int
    num_shards: int
    #: shard -> full queue in TID order, ascending shard id (a cross-shard
    #: txn appears in every owning queue exactly once)
    queues: dict[int, list[PlannedTxn]]
    rounds: list[Round]
    stats: PlanStats


def plan_epoch(
    batch: list[SequencedTxn],
    *,
    num_shards: int,
    shard_of: Optional[Callable[[Hashable], int]] = None,
    epoch: Optional[int] = None,
) -> EpochPlan:
    """Partition one sequencer epoch into per-shard queues and rounds.

    ``batch`` is the output of :meth:`Sequencer.cut_epoch` whose payloads
    are ``(op, handler, access)`` triples
    (:meth:`~repro.parallel.EpochExecutor.submit` builds them).
    ``shard_of`` maps a *row key* to a shard id and defaults to the
    cluster layer's stable hash — pass ``sharded_db.router.shard_of`` to
    plan against a live placement.  Shards are routed, never iterated from
    an unordered set, so the plan is independent of ``PYTHONHASHSEED``.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    route = shard_of or (lambda key: stable_hash(key) % num_shards)

    queues: dict[int, list[PlannedTxn]] = {}
    stats = PlanStats(txns=len(batch))
    rounds: list[Round] = []
    current = Round()
    for txn in batch:  # TID order
        op, handler, access = txn.payload
        shards = tuple(sorted({route(key) for _entity, key in access.declared}))
        entry = PlannedTxn(txn.tid, op, handler, access, shards)
        for shard in shards:
            queues.setdefault(shard, []).append(entry)
        if len(shards) == 1:
            stats.single_shard += 1
            # A local txn ordered after a rendezvous txn belongs to the
            # next round: within a round, locals precede the barrier.
            if current.rendezvous:
                rounds.append(current)
                current = Round()
            current.local.setdefault(shards[0], []).append(entry)
        else:
            # Zero declared keys cannot be proven independent of anything:
            # such a txn settles at the barrier too.
            stats.cross_shard += 1
            current.rendezvous.append(entry)
    if current.local or current.rendezvous:
        rounds.append(current)

    stats.rounds = len(rounds)
    stats.max_queue = max((len(q) for q in queues.values()), default=0)
    stats.waves = len(partition_conflicts(
        batch, lambda payload: set(payload[2].declared)
    ))
    return EpochPlan(
        epoch=batch[0].epoch if epoch is None and batch else (epoch or 0),
        num_shards=num_shards,
        queues={shard: queues[shard] for shard in sorted(queues)},
        rounds=rounds,
        stats=stats,
    )
