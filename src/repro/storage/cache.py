"""A look-aside cache (Redis/Hazelcast stand-in) with LRU + TTL eviction.

The paper notes (§3.4) that low-latency microservices embed caches to speed
up state retrieval, "blurring the line between embedded and external state
management" — and paying for it with staleness, which the cache exposes via
hit/stale counters that the consistency benchmarks read.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0


class LruCache:
    """Bounded mapping with least-recently-used eviction and optional TTL.

    ``clock`` supplies the current time (pass ``lambda: env.now`` to tie
    TTLs to virtual time); entries older than ``ttl`` are treated as misses.
    """

    def __init__(
        self,
        capacity: int,
        ttl: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock or (lambda: 0.0)
        self._entries: OrderedDict[Any, tuple[Any, float]] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def get(self, key: Any, default: Any = None) -> Any:
        """Return the cached value; counts a miss if absent or expired."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return default
        value, written_at = entry
        if self.ttl is not None and self._clock() - written_at > self.ttl:
            del self._entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            return default
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        """Insert or refresh a key, evicting the LRU entry if full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (value, self._clock())
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
