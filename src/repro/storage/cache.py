"""A look-aside cache (Redis/Hazelcast stand-in) with LRU eviction.

The paper notes (§3.4) that low-latency microservices embed caches to speed
up state retrieval, "blurring the line between embedded and external state
management" — and paying for it with staleness, which the cache exposes via
hit/stale counters that the consistency benchmarks read.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0


class LruCache:
    """Bounded mapping with least-recently-used eviction; an entry never
    expires, so a read may return a value the store has since replaced."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def get(self, key: Any, default: Any = None) -> Any:
        """Return the cached value; counts a miss if absent."""
        if key not in self._entries:
            self.stats.misses += 1
            return default
        value = self._entries[key]
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        """Insert or refresh a key, evicting the LRU entry if full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
