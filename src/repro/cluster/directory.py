"""The placement directory: who owns which shard (and which activation).

The directory is the cluster's single source of routing truth, the
generalization of the actor runtime's silo directory.  It records two
kinds of placement:

- **shard ownership** — ``shard -> node`` with a monotone *epoch* per
  shard.  A live migration bumps the epoch exactly once, at the atomic
  ownership flip; routers that cached the old owner detect the stale
  epoch and forward (see :class:`~repro.cluster.router.Router`).
- **activations** — ``ident -> node`` for single-activation entities
  (virtual actors).  The stale-duplicate-activation hazard found by
  chaos fuzzing (a silo serving a cached activation after placement
  moved away and back) is resolved by consulting this table; see
  ``repro.actors.runtime``.

The directory is modeled as a highly available metadata service (as etcd
or the Orleans membership table would be); reads and writes are
zero-latency — the interesting latency lives in the *data* movement the
directory coordinates, not the metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from repro.sim import Environment


class ClusterError(RuntimeError):
    """Raised for invalid placement or migration operations."""


@dataclass
class MigrationRecord:
    """One in-flight shard migration, begin to flip/abort."""

    shard: int
    source: str
    dest: str
    started_at: float
    phase: str = "drain"  # drain | copy | flip


class PlacementDirectory:
    """Authoritative shard→node and ident→node placement records."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._owners: dict[int, str] = {}
        self._epochs: dict[int, int] = {}
        self._groups: dict[int, tuple[str, ...]] = {}
        self._migrating: dict[int, MigrationRecord] = {}
        self._activations: dict[Hashable, str] = {}

    # -- shard ownership ----------------------------------------------------

    def assign(self, shard: int, node: str) -> None:
        """Initial (or administrative) ownership assignment."""
        self._owners[shard] = node
        self._epochs.setdefault(shard, 0)

    def owner_of(self, shard: int) -> str:
        try:
            return self._owners[shard]
        except KeyError:
            raise ClusterError(f"shard {shard} has no owner") from None

    def epoch(self, shard: int) -> int:
        return self._epochs.get(shard, 0)

    def owners(self) -> dict[int, str]:
        """A copy of the full shard→node map."""
        return dict(self._owners)

    def shards_on(self, node: str) -> list[int]:
        return sorted(s for s, n in self._owners.items() if n == node)

    def nodes(self) -> list[str]:
        return sorted(set(self._owners.values()))

    # -- replica groups -----------------------------------------------------

    def assign_group(self, shard: int, nodes: tuple[str, ...]) -> None:
        """Record the replica-group membership backing ``shard``.

        The shard's *owner* remains the single routing target — under
        replication it is the group's current leader, maintained via
        :meth:`set_group_leader`.
        """
        self._groups[shard] = tuple(nodes)

    def group_of(self, shard: int) -> tuple[str, ...]:
        """Replica-group membership of ``shard`` (empty if none recorded)."""
        return self._groups.get(shard, ())

    def set_group_leader(self, shard: int, node: str) -> None:
        """Point the shard's ownership at its group's new leader.

        An election is an ownership flip like any other: the epoch bumps
        so routers with the old leader cached detect staleness and
        forward, exactly as after a migration.
        """
        if self._owners.get(shard) == node:
            return
        self._owners[shard] = node
        self._epochs[shard] = self._epochs.get(shard, 0) + 1

    # -- migration lifecycle ------------------------------------------------

    def is_migrating(self, shard: int) -> bool:
        return shard in self._migrating

    def begin_migration(self, shard: int, dest: str) -> MigrationRecord:
        """Mark a shard as migrating; rejects concurrent double-migration."""
        source = self.owner_of(shard)
        if shard in self._migrating:
            record = self._migrating[shard]
            raise ClusterError(
                f"shard {shard} is already migrating "
                f"({record.source} -> {record.dest}, phase={record.phase})"
            )
        if source == dest:
            raise ClusterError(f"shard {shard} already lives on {dest!r}")
        record = MigrationRecord(
            shard=shard, source=source, dest=dest, started_at=self.env.now
        )
        self._migrating[shard] = record
        return record

    def complete_migration(self, shard: int) -> None:
        """Atomically flip ownership to the migration's destination."""
        record = self._migrating.pop(shard, None)
        if record is None:
            raise ClusterError(f"shard {shard} is not migrating")
        self._owners[shard] = record.dest
        self._epochs[shard] = self._epochs.get(shard, 0) + 1

    def abort_migration(self, shard: int) -> None:
        """Cancel an in-flight migration; ownership is unchanged."""
        self._migrating.pop(shard, None)

    # -- activation registry (virtual actors) -------------------------------

    def record_activation(self, ident: Hashable, node: str) -> Optional[str]:
        """Record that ``ident`` activated on ``node``; returns the previous
        host (``None`` for a first activation)."""
        previous = self._activations.get(ident)
        self._activations[ident] = node
        return previous

    def last_host(self, ident: Hashable) -> Optional[str]:
        return self._activations.get(ident)
