"""The execution phase: run planned queues in process, merge in order.

One :class:`EpochExecutor` drives the full queue-oriented cycle per epoch
for one :class:`~repro.apps.core.spec.AppSpec`:

1. **snapshot** — export the authoritative engine's committed rows and
   slice them per shard;
2. **execute** — each round's per-shard queues run one after another, each
   transaction's handler body through
   :func:`~repro.apps.core.reference.run_op` (the app kernel's declared-
   access checks, no simulator); cross-shard transactions settle at each
   round's rendezvous barrier, in TID order, through a view that routes
   every access to the owning shard's store;
3. **merge** — every transaction's recorded writes are applied back into
   the authoritative engine(s) in the sequencer's seeded total (TID)
   order, one commit sequence per transaction, so the resulting state is
   byte-identical to serial execution.

Entities map to tables of the same name (the caller creates and loads
them).  Works against a single :class:`~repro.db.engine.Database` (logical
shards via the cluster hash) or a
:class:`~repro.db.sharding.ShardedDatabase` (planning follows its live
router, merging lands in each shard's own engine).  Everything runs in the
calling process: docs/PERFORMANCE.md ("Why there is no worker pool") has
the measurements that retired the OS-process variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

from repro.apps.core.reference import run_op
from repro.apps.core.spec import AppSpec
from repro.cluster import stable_hash
from repro.cluster.plan import EpochPlan, PlannedTxn, SequencedTxn, Sequencer, plan_epoch


class _MultiStore:
    """A cross-shard view over the executor's per-shard stores.

    Rendezvous transactions read and write through this: every access
    routes to the owning shard's store, so their effects are indistinguishable
    from having run on a single store.
    """

    __slots__ = ("stores", "route")

    def __init__(self, stores: dict[int, dict], route: Callable[[Hashable], int]) -> None:
        self.stores = stores
        self.route = route

    def get(self, ref: tuple, default: Any = None) -> Any:
        return self.stores[self.route(ref[1])].get(ref, default)

    def __setitem__(self, ref: tuple, row: dict) -> None:
        self.stores[self.route(ref[1])][ref] = row

    def pop(self, ref: tuple, default: Any = None) -> Any:
        return self.stores[self.route(ref[1])].pop(ref, default)


@dataclass
class EpochResult:
    """What one epoch's plan → execute → merge cycle did."""

    epoch: int
    txns: int
    rounds: int
    cross_shard: int
    #: committed write batches installed into authoritative engines
    applied: int
    plan: Optional[EpochPlan] = None


class EpochExecutor:
    """Deterministic queue-oriented execution of sequencer epochs (see module doc)."""

    def __init__(
        self,
        db: Any,
        spec: AppSpec,
        *,
        num_shards: Optional[int] = None,
        shard_of: Optional[Callable[[Hashable], int]] = None,
    ) -> None:
        self.db = db
        self.spec = spec
        self._sharded = hasattr(db, "export_shard_snapshot")
        if self._sharded:
            self.num_shards = len(db.shards)
            self._shard_of = shard_of or db.router.shard_of
        else:
            if num_shards is None or num_shards <= 0:
                raise ValueError("num_shards is required for a single engine")
            self.num_shards = num_shards
            self._shard_of = shard_of or (
                lambda key: stable_hash(key) % num_shards
            )
        self.sequencer = Sequencer()
        self.epochs_run = 0

    # -- submission convenience ----------------------------------------------

    def submit(self, op: Any) -> SequencedTxn:
        """Order an op into the current epoch; its declared access is
        evaluated here, once."""
        handler = self.spec.handler_for(op)
        return self.sequencer.submit((op, handler, handler.access(op)))

    def flush(self) -> EpochResult:
        """Cut the current epoch and run it end to end."""
        return self.run_epoch(self.sequencer.cut_epoch())

    # -- the epoch cycle -----------------------------------------------------

    def _export_stores(self) -> dict[int, dict]:
        stores: dict[int, dict] = {shard: {} for shard in range(self.num_shards)}
        if self._sharded:
            for shard in range(self.num_shards):
                stores[shard] = self.db.export_shard_snapshot(shard)
        else:
            for ref, row in self.db.export_snapshot().items():
                stores[self._shard_of(ref[1])][ref] = row
        return stores

    def run_epoch(self, batch: list[SequencedTxn]) -> EpochResult:
        """Plan, execute, and merge one epoch; returns what happened."""
        plan = plan_epoch(
            batch, num_shards=self.num_shards, shard_of=self._shard_of
        )
        stores = self._export_stores()
        multi = _MultiStore(stores, self._shard_of)
        txn_writes: list[tuple[int, list]] = []
        for rnd in plan.rounds:
            for shard in sorted(rnd.local):
                _execute(stores[shard], rnd.local[shard], txn_writes)
            _execute(multi, rnd.rendezvous, txn_writes)

        txn_writes.sort(key=lambda item: item[0])  # the seeded total order
        applied = self._merge(txn_writes, plan.epoch)
        self.epochs_run += 1
        return EpochResult(
            epoch=plan.epoch,
            txns=plan.stats.txns,
            rounds=plan.stats.rounds,
            cross_shard=plan.stats.cross_shard,
            applied=applied,
            plan=plan,
        )

    def _merge(self, txn_writes: list[tuple[int, list]], epoch: int) -> int:
        """Install results into the authoritative engine(s) in TID order."""
        if not self._sharded:
            return self.db.apply_epoch(txn_writes, epoch=epoch)
        per_shard: dict[int, list] = {}
        for tid, writes in txn_writes:
            split: dict[int, list] = {}
            for ref, row in writes:
                split.setdefault(self._shard_of(ref[1]), []).append((ref, row))
            for shard, shard_writes in split.items():
                per_shard.setdefault(shard, []).append((tid, shard_writes))
        applied = 0
        for shard in sorted(per_shard):
            applied += self.db.apply_shard_epoch(
                shard, per_shard[shard], epoch=epoch
            )
        return applied


def _execute(store: Any, entries: list[PlannedTxn], out: list) -> None:
    """Run planned transactions serially, in queue order, on ``store``."""
    for entry in entries:
        _result, writes = run_op(entry.handler, entry.op, entry.access, store)
        out.append((entry.tid, writes))
