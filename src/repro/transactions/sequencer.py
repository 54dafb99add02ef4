"""A deterministic transaction sequencer (Calvin-style, Styx's substrate).

Deterministic transaction processing fixes a global order *before*
execution: every worker then executes its share of each epoch in that
agreed order, so no runtime coordination (locks, 2PC votes) is needed and
the same input always yields the same state.  The Styx-like transactional
dataflow (:mod:`repro.dataflow.txn`) builds directly on this.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional


@dataclass(frozen=True)
class SequencedTxn:
    """A transaction with its globally agreed position."""

    tid: int
    epoch: int
    payload: Any


class Sequencer:
    """Assigns global, gap-free transaction ids and groups them in epochs.

    ``cut_epoch`` closes the current epoch and returns its transactions in
    sequence order — the unit of deterministic parallel execution and of
    atomic checkpointing downstream.
    """

    def __init__(self, epoch_size: Optional[int] = None) -> None:
        if epoch_size is not None and epoch_size <= 0:
            raise ValueError("epoch_size must be positive")
        self.epoch_size = epoch_size
        self._tids = itertools.count(1)
        self._epoch = 0
        self._pending: list[SequencedTxn] = []
        self.sequenced_total = 0

    @property
    def current_epoch(self) -> int:
        return self._epoch

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def submit(self, payload: Any) -> SequencedTxn:
        """Order a transaction into the current epoch; returns its slot."""
        txn = SequencedTxn(tid=next(self._tids), epoch=self._epoch, payload=payload)
        self._pending.append(txn)
        self.sequenced_total += 1
        return txn

    def epoch_full(self) -> bool:
        return self.epoch_size is not None and len(self._pending) >= self.epoch_size

    def cut_epoch(self) -> list[SequencedTxn]:
        """Close the epoch; returns its transactions in global order."""
        batch, self._pending = self._pending, []
        self._epoch += 1
        return batch


def partition_conflicts(
    batch: list[SequencedTxn],
    keys_of: Callable[[Any], set[Hashable]],
) -> list[list[SequencedTxn]]:
    """Split an epoch into *conflict-free waves* executable in parallel.

    Within a wave no two transactions touch a common key; waves run in
    order, so the execution is equivalent to the serial TID order — the
    deterministic-locking trick that lets Calvin/Styx parallelize without
    runtime deadlocks.
    """
    waves: list[list[SequencedTxn]] = []
    wave_keys: list[set[Hashable]] = []
    for txn in batch:  # batch is in TID order
        keys = keys_of(txn.payload)
        # A txn must run after its last conflicting wave; any earlier slot
        # would reorder conflicting transactions against the TID order.
        last_conflict = -1
        for index, existing in enumerate(wave_keys):
            if existing & keys:
                last_conflict = index
        target = last_conflict + 1
        if target == len(waves):
            waves.append([txn])
            wave_keys.append(set(keys))
        else:
            waves[target].append(txn)
            wave_keys[target] |= keys
    return waves
