"""Key→node resolution: the one lookup every runtime performs.

``Router`` composes the key→shard formula
(:func:`~repro.cluster.hashing.shard_of`) with the placement directory
(shard→node).  Clients that cache routes model the real-world
"straggler" path: a request routed with a stale cache arrives at the old
owner after an ownership flip and must be *forwarded* — one extra hop,
visible in latency and counted in :class:`RouterStats`.

The router itself is pure metadata (no virtual time); callers charge the
network cost of any forward the lookup reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, NamedTuple

from repro.cluster.directory import PlacementDirectory
from repro.cluster.hashing import shard_of


@dataclass
class RouterStats:
    forwards: int = 0


class Route(NamedTuple):
    """One resolved route; ``forwarded`` means the cached owner was stale.

    Immutable and built once per shard per round of every sharded
    transaction, where a frozen dataclass costs twice the host time."""

    shard: int
    node: str
    epoch: int
    forwarded: bool = False


class Router:
    """Resolves keys to their owning node, with per-client route caching."""

    def __init__(self, num_shards: int, directory: PlacementDirectory) -> None:
        self.num_shards = num_shards
        self.directory = directory
        #: cached shard -> (node, epoch); stale entries cost one forward.
        self._cache: dict[int, tuple[str, int]] = {}
        self.stats = RouterStats()

    def shard_of(self, key: Hashable) -> int:
        return shard_of(key, self.num_shards)

    def resolve_shard(self, shard: int) -> Route:
        """Shard → node, tracking whether a stale cache forwarded.

        The first lookup of a shard populates the cache without a forward
        (a cold cache is resolved against the directory directly, as a
        client bootstrap would).  After an ownership flip, the next lookup
        per shard pays exactly one forward and repairs the cache.
        """
        owner = self.directory.owner_of(shard)
        epoch = self.directory.epoch(shard)
        cached = self._cache.get(shard)
        forwarded = cached is not None and cached != (owner, epoch)
        if forwarded:
            self.stats.forwards += 1
        self._cache[shard] = (owner, epoch)
        return Route(shard=shard, node=owner, epoch=epoch, forwarded=forwarded)
