"""The replicated log: 1-based entries above a compaction floor.

``snapshot_index``/``snapshot_term`` record the last entry folded into
the engine snapshot; ``term_at`` answers for the floor itself, returns
``None`` below it (compacted away) and beyond the tip (absent) — the
two cases AppendEntries consistency checks distinguish.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional


class LogEntry(NamedTuple):
    term: int
    index: int
    command: tuple[Any, ...]


class ReplicatedLog:
    __slots__ = ("entries", "snapshot_index", "snapshot_term")

    def __init__(self) -> None:
        self.entries: list[LogEntry] = []
        self.snapshot_index = 0
        self.snapshot_term = 0

    @property
    def last_index(self) -> int:
        if self.entries:
            return self.entries[-1].index
        return self.snapshot_index

    @property
    def last_term(self) -> int:
        if self.entries:
            return self.entries[-1].term
        return self.snapshot_term

    def term_at(self, index: int) -> Optional[int]:
        if index == self.snapshot_index:
            return self.snapshot_term
        offset = index - self.snapshot_index - 1
        if 0 <= offset < len(self.entries):
            return self.entries[offset].term
        return None

    def append(self, term: int, command: tuple[Any, ...]) -> int:
        """Append ``command`` at the tip; returns its index."""
        entries = self.entries
        index = (entries[-1].index if entries else self.snapshot_index) + 1
        entries.append(LogEntry(term, index, command))
        return index

    def append_entry(self, entry: LogEntry) -> None:
        if entry.index != self.last_index + 1:
            raise ValueError(
                f"non-contiguous append: {entry.index} after {self.last_index}"
            )
        self.entries.append(entry)

    def slice_from(self, index: int, limit: int) -> list[LogEntry]:
        offset = index - self.snapshot_index - 1
        if offset < 0:
            raise IndexError(f"log index {index} compacted away")
        return self.entries[offset : offset + limit]

    def truncate_from(self, index: int) -> list[LogEntry]:
        """Drop entries at ``index`` and above; return what was removed."""
        offset = index - self.snapshot_index - 1
        if offset < 0:
            raise IndexError(f"cannot truncate below snapshot floor ({index})")
        removed = self.entries[offset:]
        del self.entries[offset:]
        return removed

    def compact(self, upto: int) -> int:
        """Fold entries at-or-below ``upto`` into the snapshot floor."""
        if upto <= self.snapshot_index:
            return 0
        term = self.term_at(upto)
        if term is None:
            raise IndexError(f"cannot compact to absent index {upto}")
        drop = upto - self.snapshot_index
        del self.entries[:drop]
        self.snapshot_index = upto
        self.snapshot_term = term
        return drop

    def reset(self, index: int, term: int) -> None:
        """Replace the whole log with a snapshot floor (InstallSnapshot)."""
        self.entries.clear()
        self.snapshot_index = index
        self.snapshot_term = term


__all__ = ["LogEntry", "ReplicatedLog"]
