"""A write-ahead log with LSNs, durability horizon, and truncation.

Used by the database engine (ARIES-lite recovery), the message broker
(durable partitions), and the transactional outbox.  The log survives node
crashes by construction — it models a durable device, so a crash loses only
records not yet flushed (``fsync`` moves the durability horizon).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional


class LogRecord:
    """A single durable log entry.

    A plain ``__slots__`` class rather than a frozen dataclass: the engine
    appends one record per write plus one per commit decision, and frozen-
    dataclass construction (``object.__setattr__`` per field) is measurable
    at that rate.  Records are immutable by convention.
    """

    __slots__ = ("lsn", "kind", "payload")

    def __init__(self, lsn: int, kind: str, payload: Any) -> None:
        self.lsn = lsn
        self.kind = kind
        self.payload = payload

    def __repr__(self) -> str:
        return f"LogRecord(lsn={self.lsn!r}, kind={self.kind!r}, payload={self.payload!r})"

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, LogRecord):
            return NotImplemented
        return (self.lsn, self.kind, self.payload) == (
            other.lsn, other.kind, other.payload
        )

    def __hash__(self) -> int:
        return hash((self.lsn, self.kind))


class WriteAheadLog:
    """Append-only log with explicit flush (fsync) semantics.

    ``append`` buffers a record; ``flush`` makes everything appended so far
    durable.  ``crash`` discards the unflushed tail — exactly the window a
    real machine loses on power failure.
    """

    def __init__(self, name: str = "wal") -> None:
        self.name = name
        self._records: list[LogRecord] = []
        self._flushed_lsn = 0
        self._next_lsn = 1
        self._truncated_before = 1
        self.flush_count = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record (0 if empty)."""
        return self._next_lsn - 1

    @property
    def flushed_lsn(self) -> int:
        """Highest LSN guaranteed durable."""
        return self._flushed_lsn

    def append(self, kind: str, payload: Any) -> int:
        """Buffer a record; returns its LSN.  Not durable until flush."""
        record = LogRecord(self._next_lsn, kind, payload)
        self._records.append(record)
        self._next_lsn += 1
        return record.lsn

    def flush(self) -> int:
        """Make all appended records durable; returns the flushed LSN."""
        self._flushed_lsn = self.last_lsn
        self.flush_count += 1
        return self._flushed_lsn

    def crash(self) -> None:
        """Discard the unflushed tail, as a power failure would."""
        self._records = [r for r in self._records if r.lsn <= self._flushed_lsn]
        self._next_lsn = self._flushed_lsn + 1

    def records(self, from_lsn: int = 0) -> Iterator[LogRecord]:
        """Iterate durable *and* buffered records with ``lsn >= from_lsn``."""
        for record in self._records:
            if record.lsn >= from_lsn:
                yield record

    def durable_records(self) -> Iterator[LogRecord]:
        """Iterate only records at or below the durability horizon."""
        for record in self._records:
            if record.lsn <= self._flushed_lsn:
                yield record

    def read(self, lsn: int) -> Optional[LogRecord]:
        """Random access by LSN (None if truncated or absent)."""
        if not self._records or lsn < self._records[0].lsn or lsn > self.last_lsn:
            return None
        return self._records[lsn - self._records[0].lsn]

    def truncate(self, before_lsn: int) -> int:
        """Drop records with ``lsn < before_lsn`` (checkpoint GC); returns count."""
        kept = [r for r in self._records if r.lsn >= before_lsn]
        dropped = len(self._records) - len(kept)
        self._records = kept
        self._truncated_before = max(self._truncated_before, before_lsn)
        return dropped
