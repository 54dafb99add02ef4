"""Shared state for functions: remote KV with optional look-aside caching.

The two §3.3 FaaS state models:

- *remote* access charges a network round trip per operation (disaggregated
  storage — "operations on shared state necessarily incur network round
  trips");
- *cached* access serves reads from a per-worker cache, trading the round
  trip for staleness, which the consistency tests make observable.

Writes always go to the store and invalidate no cache (no entry expires),
so a cached read may be stale.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.net.latency import Latency, Sampler
from repro.sim import Environment
from repro.storage.cache import LruCache
from repro.storage.kv import KeyValueStore


#: entries each worker's look-aside cache holds
CACHE_CAPACITY = 4096


class SharedKv:
    """The platform's shared key-value state service."""

    def __init__(
        self,
        env: Environment,
        rtt: Optional[Sampler] = None,
    ) -> None:
        self.env = env
        self.store = KeyValueStore()
        self._rtt = rtt or Latency.intra_zone()
        self._rng = env.stream("faas-kv")
        self._caches: dict[str, LruCache] = {}
        self.remote_reads = 0
        self.cached_reads = 0

    def _cache_for(self, worker: str) -> LruCache:
        if worker not in self._caches:
            self._caches[worker] = LruCache(CACHE_CAPACITY)
        return self._caches[worker]

    def _trip(self) -> Generator:
        yield self.env.timeout(self._rtt(self._rng))

    # -- remote (uncached) ------------------------------------------------------

    def get(self, key: Any, default: Any = None) -> Generator:
        """Linearizable read straight from the store (one round trip)."""
        yield from self._trip()
        self.remote_reads += 1
        return self.store.get(key, default)

    def get_versioned(self, key: Any) -> Generator:
        yield from self._trip()
        self.remote_reads += 1
        return self.store.get_versioned(key)

    def put(self, key: Any, value: Any) -> Generator:
        yield from self._trip()
        return self.store.put(key, value)

    def delete(self, key: Any) -> Generator:
        yield from self._trip()
        return self.store.delete(key)

    # -- cached -------------------------------------------------------------------

    def cached_get(self, worker: str, key: Any, default: Any = None) -> Generator:
        """Read via the worker's cache.

        A hit costs nothing; a miss pays the round trip and populates the
        cache.  Hits can be *stale* relative to later writes.
        """
        cache = self._cache_for(worker)
        sentinel = object()
        hit = cache.get(key, sentinel)
        if hit is not sentinel:
            self.cached_reads += 1
            return hit
        yield from self._trip()
        self.remote_reads += 1
        value = self.store.get(key, default)
        cache.put(key, value)
        return value
