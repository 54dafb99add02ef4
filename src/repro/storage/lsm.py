"""An LSM-tree key-value store: memtable, SSTables, bloom filters, compaction.

Stands in for RocksDB as the *embedded, decentralized* state backend of
dataflow operators (paper §3.3): writes go to a sorted memtable that flushes
into immutable sorted runs; reads consult the memtable then runs newest to
oldest, skipping runs via bloom filters; leveled compaction bounds read
amplification.  Counters expose flush/compaction/bloom activity so tests and
benchmarks can assert on the mechanics, not just the mapping semantics.
"""

from __future__ import annotations

import bisect
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

_TOMBSTONE = object()


#: bloom filter bits per key
BLOOM_BITS_PER_KEY = 10
#: level-0 runs that trigger compaction into level 1
LEVEL0_LIMIT = 4
#: size multiplier between consecutive levels
LEVEL_RATIO = 10


class BloomFilter:
    """A classic k-hash bloom filter over a fixed bit array."""

    def __init__(self, capacity: int) -> None:
        self._num_bits = max(64, capacity * BLOOM_BITS_PER_KEY)
        self._bits = 0
        self._num_hashes = max(1, int(BLOOM_BITS_PER_KEY * 0.69))

    def _positions(self, key: Any) -> Iterator[int]:
        # Salted CRC32 of repr(key), as repro.cluster.hashing does: builtin
        # hash() of a str varies with PYTHONHASHSEED, and so did the filter.
        text = repr(key).encode("utf-8")
        h1 = zlib.crc32(b"bloom-a|" + text)
        h2 = zlib.crc32(b"bloom-b|" + text) | 1
        for i in range(self._num_hashes):
            yield (h1 + i * h2) % self._num_bits

    def add(self, key: Any) -> None:
        for pos in self._positions(key):
            self._bits |= 1 << pos

    def might_contain(self, key: Any) -> bool:
        return all(self._bits >> pos & 1 for pos in self._positions(key))


class SSTable:
    """An immutable sorted run of key-value pairs with a bloom filter."""

    def __init__(self, items: list[tuple[Any, Any]]) -> None:
        self._keys = [k for k, _ in items]
        self._values = [v for _, v in items]
        self.bloom = BloomFilter(max(1, len(items)))
        for key in self._keys:
            self.bloom.add(key)

    def __len__(self) -> int:
        return len(self._keys)

    def get(self, key: Any) -> Any:
        """Return the stored value, ``_TOMBSTONE``, or ``None`` if absent."""
        index = bisect.bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            return self._values[index]
        return None

    def items(self) -> Iterator[tuple[Any, Any]]:
        return zip(self._keys, self._values)


@dataclass
class LsmStats:
    """Operation counters for assertions and ablation benchmarks."""

    flushes: int = 0
    compactions: int = 0
    bloom_skips: int = 0


class LsmStore:
    """The store: one mutable memtable over leveled immutable runs.

    Parameters
    ----------
    memtable_limit:
        Number of entries that triggers a flush to level 0.

    ``LEVEL0_LIMIT`` level-0 runs trigger compaction into level 1, and each
    level holds ``LEVEL_RATIO`` times the one above it.
    """

    def __init__(self, memtable_limit: int = 1024) -> None:
        if memtable_limit <= 0:
            raise ValueError("invalid LSM configuration")
        self.memtable_limit = memtable_limit
        self._memtable: dict[Any, Any] = {}
        # levels[0] is a list of possibly-overlapping runs (newest last);
        # levels[i >= 1] each hold a single non-overlapping merged run.
        self._levels: list[list[SSTable]] = [[]]
        self.stats = LsmStats()

    # -- writes ----------------------------------------------------------------

    def put(self, key: Any, value: Any) -> None:
        """Insert or overwrite a key.  ``None`` values are not allowed
        (indistinguishable from absence, as in most KV stores)."""
        if value is None:
            raise ValueError("LsmStore does not support None values")
        self._memtable[key] = value
        if len(self._memtable) >= self.memtable_limit:
            self.flush()

    def delete(self, key: Any) -> None:
        """Delete via tombstone (reclaimed at the bottom level)."""
        self._memtable[key] = _TOMBSTONE
        if len(self._memtable) >= self.memtable_limit:
            self.flush()

    def flush(self) -> None:
        """Freeze the memtable into a new level-0 run."""
        if not self._memtable:
            return
        items = sorted(self._memtable.items())
        self._levels[0].append(SSTable(items))
        self._memtable = {}
        self.stats.flushes += 1
        if len(self._levels[0]) >= LEVEL0_LIMIT:
            self._compact(0)

    def _compact(self, level: int) -> None:
        """Merge all runs of ``level`` into the single run of ``level+1``."""
        self.stats.compactions += 1
        if level + 1 >= len(self._levels):
            self._levels.append([])
        sources = list(self._levels[level]) + list(self._levels[level + 1])
        merged: dict[Any, Any] = {}
        # Oldest first so newer runs overwrite: lower level runs are newer
        # than the level below's run; within level 0, later runs are newer.
        for run in list(self._levels[level + 1]) + list(self._levels[level]):
            for key, value in run.items():
                merged[key] = value
        bottom = level + 1 == len(self._levels) - 1
        items = sorted(
            (k, v)
            for k, v in merged.items()
            if not (bottom and v is _TOMBSTONE)
        )
        self._levels[level] = []
        self._levels[level + 1] = [SSTable(items)] if items else []
        del sources
        limit = self.memtable_limit * (LEVEL_RATIO ** (level + 1))
        if self._levels[level + 1] and len(self._levels[level + 1][0]) > limit:
            self._compact(level + 1)

    # -- reads -----------------------------------------------------------------

    def get(self, key: Any, default: Any = None) -> Any:
        """Point lookup: memtable, then runs newest to oldest."""
        if key in self._memtable:
            value = self._memtable[key]
            return default if value is _TOMBSTONE else value
        for run in self._runs_newest_first():
            if not run.bloom.might_contain(key):
                self.stats.bloom_skips += 1
                continue
            value = run.get(key)
            if value is not None:
                return default if value is _TOMBSTONE else value
        return default

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def _runs_newest_first(self) -> Iterator[SSTable]:
        for run in reversed(self._levels[0]):
            yield run
        for level in self._levels[1:]:
            for run in level:
                yield run

    def items(self) -> list[tuple[Any, Any]]:
        """All live items, sorted by key."""
        merged: dict[Any, Any] = {}
        for run in reversed(list(self._runs_newest_first())):
            for key, value in run.items():
                merged[key] = value
        merged.update(self._memtable)
        return sorted((k, v) for k, v in merged.items() if v is not _TOMBSTONE)

    def __len__(self) -> int:
        return len(self.items())

    # -- checkpointing -----------------------------------------------------------

    def snapshot(self) -> dict[Any, Any]:
        """Materialize current contents (for checkpoints)."""
        return dict(self.items())

    def restore(self, snapshot: dict[Any, Any]) -> None:
        """Reset to exactly the snapshot's contents."""
        self._memtable = {}
        self._levels = [[]]
        for key, value in snapshot.items():
            self.put(key, value)
