"""The load-aware rebalancer: watches shard stats, plans live migrations.

A control loop for *stateful* capacity: every ``interval`` it rolls the
shard-stats window, computes per-node load as the sum of its shards' smoothed loads,
and — if the hottest node carries more than ``imbalance_factor`` times
the coldest node's load — migrates the hottest movable shard from the
hottest node to the coldest, through the live-migration protocol
(:func:`repro.cluster.migration.migrate_shard`).

One migration per cycle, never against a shard already migrating: the
point of a rebalancer is convergence, not thrash.  ``plan()`` is a pure
function of the current stats so tests (and operators) can see what the
loop *would* do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Protocol

from repro.cluster.directory import ClusterError, PlacementDirectory
from repro.cluster.stats import ShardStats
from repro.sim import Environment

#: below this smoothed load a node is too quiet to move anything off
MIN_LOAD = 1.0


class RebalanceTarget(Protocol):
    """What the rebalancer needs from a runtime: placement + migration."""

    directory: PlacementDirectory
    shard_stats: ShardStats

    def cluster_nodes(self) -> list[str]:
        """Nodes eligible to receive shards (alive members)."""

    def migrate_shard(
        self, shard: int, dest: str, dest_nodes: Optional[list[str]] = None
    ) -> Generator:
        """Live-migrate one shard's replica group, led by ``dest`` (the
        runtime's mover behind the protocol)."""


@dataclass
class RebalancerStats:
    completed: int = 0
    failed: int = 0


@dataclass(frozen=True)
class Move:
    shard: int
    source: str
    dest: str
    #: full membership of the relocated replica group, ``dest`` first
    #: (empty: too few nodes to plan it, the target chooses)
    dest_nodes: tuple[str, ...] = ()


class Rebalancer:
    """Periodically migrates hot shards toward cold nodes."""

    def __init__(
        self,
        env: Environment,
        target: RebalanceTarget,
        interval: float = 50.0,
        imbalance_factor: float = 2.0,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if imbalance_factor < 1.0:
            raise ValueError("imbalance_factor must be >= 1")
        self.env = env
        self.target = target
        self.interval = interval
        self.imbalance_factor = imbalance_factor
        self.stats = RebalancerStats()
        self._running = False

    # -- planning -----------------------------------------------------------

    def node_loads(self) -> dict[str, float]:
        """Per-node load: the sum of its owned shards' smoothed loads."""
        directory = self.target.directory
        stats = self.target.shard_stats
        loads = {node: 0.0 for node in self.target.cluster_nodes()}
        for shard, owner in directory.owners().items():
            loads[owner] = loads.get(owner, 0.0) + stats.load_of(shard)
        return loads

    def plan(self) -> Optional[Move]:
        """The single move this cycle would make, or ``None`` if balanced."""
        loads = self.node_loads()
        if len(loads) < 2:
            return None
        hot_node = max(loads, key=lambda n: (loads[n], n))
        cold_node = min(loads, key=lambda n: (loads[n], n))
        if hot_node == cold_node:
            return None
        if loads[hot_node] < MIN_LOAD:
            return None  # nothing meaningful to move
        if loads[hot_node] <= self.imbalance_factor * max(loads[cold_node], MIN_LOAD):
            return None
        directory = self.target.directory
        movable = [
            s for s in directory.shards_on(hot_node) if not directory.is_migrating(s)
        ]
        shard = self.target.shard_stats.hottest(among=movable)
        if shard is None:
            return None
        return Move(
            shard=shard,
            source=hot_node,
            dest=cold_node,
            dest_nodes=self._plan_dest_nodes(shard, cold_node, loads),
        )

    def _plan_dest_nodes(
        self, shard: int, dest: str, loads: dict[str, float]
    ) -> tuple[str, ...]:
        """New replica-group membership for a group-backed shard.

        The coldest node leads the new group; the rest of the membership
        is filled coldest-first from the remaining nodes so the follower
        load spreads too.  Empty when there are too few nodes.
        """
        current = self.target.directory.group_of(shard)
        if not current:
            return ()
        members = [dest]
        for node in sorted(
            (n for n in loads if n != dest), key=lambda n: (loads[n], n)
        ):
            if len(members) == len(current):
                break
            members.append(node)
        if len(members) < len(current):
            return ()  # not enough nodes to rebuild the group elsewhere
        return tuple(members)

    # -- the control loop ---------------------------------------------------

    def start(self) -> None:
        if self._running:
            raise RuntimeError("rebalancer already running")
        self._running = True
        self.env.process(self._loop(), label="cluster.rebalancer")

    def stop(self) -> None:
        self._running = False

    def _loop(self) -> Generator:
        while self._running:
            yield self.env.timeout(self.interval)
            if not self._running:
                return
            yield from self.run_cycle()

    def run_cycle(self) -> Generator:
        """One observe→plan→migrate cycle (public for tests and benches)."""
        self.target.shard_stats.roll_window()
        move = self.plan()
        if move is None:
            return None
        try:
            yield from self.target.migrate_shard(
                move.shard, move.dest, list(move.dest_nodes) or None
            )
            self.stats.completed += 1
        except ClusterError:
            self.stats.failed += 1  # raced another migration or a topology change
        return move
