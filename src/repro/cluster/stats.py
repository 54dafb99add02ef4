"""Per-shard load accounting that feeds the rebalancer.

Every routed operation records one unit (or an explicit cost) against its
shard; the :class:`~repro.cluster.rebalancer.Rebalancer` reads windowed
loads to find hot shards and imbalanced nodes.  An exponentially weighted
moving average smooths bursts: ``load = ALPHA * window + (1-ALPHA) * load``
at every window roll, so a single spike does not trigger a migration but
a sustained hot key does.
"""

from __future__ import annotations

from typing import Optional

#: the weight of the newest window in the smoothed load
ALPHA = 0.5


class ShardStats:
    """Windowed per-shard operation counts with an EWMA load signal."""

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.num_shards = num_shards
        self.window: list[float] = [0.0] * num_shards
        self.total: list[float] = [0.0] * num_shards
        self._ewma: list[float] = [0.0] * num_shards

    def record(self, shard: int, cost: float = 1.0) -> None:
        self.window[shard] += cost
        self.total[shard] += cost

    def roll_window(self) -> None:
        """Fold the current window into the EWMA and reset it."""
        alpha = ALPHA
        for shard in range(self.num_shards):
            self._ewma[shard] = (
                alpha * self.window[shard] + (1.0 - alpha) * self._ewma[shard]
            )
            self.window[shard] = 0.0

    def load_of(self, shard: int) -> float:
        """Smoothed load; includes the live window so cold starts see data."""
        return self._ewma[shard] + ALPHA * self.window[shard]

    def loads(self) -> list[float]:
        return [self.load_of(s) for s in range(self.num_shards)]

    def hottest(self, among: Optional[list[int]] = None) -> Optional[int]:
        """The highest-load shard (optionally restricted), ties to lowest id."""
        shards = range(self.num_shards) if among is None else among
        best: Optional[int] = None
        best_load = -1.0
        for shard in shards:
            load = self.load_of(shard)
            if load > best_load:
                best, best_load = shard, load
        return best
