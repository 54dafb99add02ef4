"""Declared-access planning: the one place work is ordered by key sets.

Deterministic execution orders transactions *before* running them, from
the keys each one declares (Calvin, Styx; the queue-oriented QueCC line in
PAPERS.md).  Every such decision in the repository is made here, and this
module depends on nothing but the stable hash:

- :func:`key_order` and :func:`by_partition` — the one acquisition order,
  ``(partition, table, repr(key))``.  ``Database.lock_and_fetch`` locks a
  partition's rows in it and ``ShardedDatabase.lock_and_fetch`` visits
  shards in it, so two transactions that both lock through them cannot
  close a waits-for cycle;
- :class:`Sequencer` — gap-free global TIDs grouped into epochs;
- :func:`conflict_waves` — a TID-ordered batch cut into conflict-free
  waves that may run in parallel, an undeclared item acting as a barrier
  (the transactional dataflow's epochs);
- :func:`plan_epoch` — the QueCC plan of one epoch: per-partition queues
  plus rendezvous rounds for cross-partition transactions
  (:class:`repro.parallel.EpochExecutor` runs it).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Hashable, Iterable, NamedTuple, Optional

from repro.cluster.hashing import stable_hash

#: ``(table, key)`` — the unit of declared access
Ref = tuple[str, Hashable]


def key_order(ref: Ref) -> tuple[str, str]:
    """The order one partition's rows are acquired in: ``(table, repr(key))``."""
    return ref[0], repr(ref[1])


def by_partition(
    refs: Iterable[Ref], partition_of: Callable[[Hashable], int]
) -> dict[int, list[Ref]]:
    """``{partition: refs in key order}``, partitions ascending.

    ``partition_of`` maps a row key to its partition.  Iterating the result
    walks ``refs`` in the global ``(partition, table, repr(key))`` order.
    """
    grouped: dict[int, list[Ref]] = {}
    for ref in refs:
        grouped.setdefault(partition_of(ref[1]), []).append(ref)
    return {part: sorted(grouped[part], key=key_order) for part in sorted(grouped)}


def conflict_waves(
    items: Iterable[Any], keys_of: Callable[[Any], Optional[Collection[Hashable]]]
) -> list[list[Any]]:
    """Split TID-ordered ``items`` into conflict-free waves.

    No two items of a wave share a key, and an item lands in the wave
    after the last one it conflicts with, so running the waves in order
    is equivalent to the serial order of ``items`` (Calvin/Styx's
    deterministic locking: parallelism without runtime deadlocks).
    ``keys_of(item)`` returns the item's declared keys; an empty set
    conflicts with nothing, while ``None`` means *undeclared*: the item
    runs alone in its wave, after every earlier item and before every
    later one.
    """
    waves: list[list[Any]] = []
    open_keys: list[set] = []  # key sets of the waves since the last barrier
    for item in items:
        keys = keys_of(item)
        if keys is None:
            waves.append([item])
            open_keys = []
            continue
        target = 0
        for index, taken in enumerate(open_keys):
            if not taken.isdisjoint(keys):
                target = index + 1
        if target == len(open_keys):
            waves.append([item])
            open_keys.append(set(keys))
        else:
            waves[len(waves) - len(open_keys) + target].append(item)
            open_keys[target].update(keys)
    return waves


@dataclass(frozen=True)
class SequencedTxn:
    """A transaction with its globally agreed position."""

    tid: int
    epoch: int
    payload: Any


class Sequencer:
    """Assigns global, gap-free transaction ids and groups them in epochs.

    ``cut_epoch`` closes the current epoch and returns its transactions in
    sequence order — the unit of deterministic execution downstream.
    """

    def __init__(self) -> None:
        self._tids = itertools.count(1)
        self._epoch = 0
        self._pending: list[SequencedTxn] = []

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def submit(self, payload: Any) -> SequencedTxn:
        """Order a transaction into the current epoch; returns its slot."""
        txn = SequencedTxn(tid=next(self._tids), epoch=self._epoch, payload=payload)
        self._pending.append(txn)
        return txn

    def cut_epoch(self) -> list[SequencedTxn]:
        """Close the epoch; returns its transactions in global order."""
        batch, self._pending = self._pending, []
        self._epoch += 1
        return batch


class PlannedTxn(NamedTuple):
    """One sequenced op with its plan-time routing decision attached."""

    tid: int
    op: Any
    #: the op's :class:`~repro.apps.core.spec.HandlerSpec`
    handler: Any
    #: the op's declared :class:`~repro.apps.core.spec.OpAccess`
    access: Any
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
    #: conflict-free waves of the whole epoch: the theoretical
    #: serialization depth the queues must respect
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
) -> EpochPlan:
    """Partition one sequencer epoch into per-shard queues and rounds.

    ``batch`` is the output of :meth:`Sequencer.cut_epoch` whose payloads
    are ``(op, handler, access)`` triples
    (:meth:`~repro.parallel.EpochExecutor.submit` builds them).
    ``shard_of`` maps a *row key* to a shard id and defaults to the stable
    hash — pass ``sharded_db.router.shard_of`` to plan against a live
    placement.  Cross-shard transactions become multi-queue entries
    settled at the round's rendezvous barrier, in TID order.  Shards are
    routed, never iterated from an unordered set, so the plan is
    independent of ``PYTHONHASHSEED``.
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
        shards = tuple(by_partition(access.declared, route))
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
    stats.waves = len(conflict_waves(batch, lambda txn: txn.payload[2].readable))
    return EpochPlan(
        epoch=batch[0].epoch if batch else 0,
        num_shards=num_shards,
        queues={shard: queues[shard] for shard in sorted(queues)},
        rounds=rounds,
        stats=stats,
    )
