"""The unsound controls: named mutants of sound protocol steps.

A chaos control is a deliberately broken deployment the oracles must
catch.  Each one here overrides one step of a sound class in a
subclass, so the sound classes carry no switch for it.  A mutant is
named after the :data:`~repro.chaos.scenarios.DEPLOYMENTS` entry it
breaks, and that entry names it as its control.  :data:`MUTANTS` maps
each name to a builder taking the entry's sound binder options.

- ``replication.unfenced`` — a :class:`~repro.replication.Replica`
  whose leader commits at local append, whose deposed leader ignores
  higher terms, and which never raises the engine's fence, so no ack is
  ever fenced: an isolated or about-to-die leader keeps acking writes a
  failover erases.
- ``invoicing.split_allocator`` — a db binder running a handler's
  ``steps`` as separate transactions sharing one scratch dict: a crash
  between them burns an invoice number.
- ``cluster.flip_without_drain`` — a shard migration that flips
  ownership to a copy of a stale snapshot without draining: writes that
  land during or after the copy are lost.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.apps.core.binders.db import DbBinder, ShardedDbBinder
from repro.db.sharding import ShardedDatabase
from repro.replication import Replica, ReplicaGroup


class UnfencedReplica(Replica):
    """``replication.unfenced``: a leader that is its own quorum."""

    def _fence(self, term: int) -> None:
        """Never raised, so no ack is ever fenced."""

    def _observe_term(self, term: int) -> None:
        # a deposed leader keeps acting on its stale term
        if self.role != "leader":
            super()._observe_term(term)

    def _advance_commit(self) -> None:
        # every entry commits as soon as the leader has appended it
        if self.role == "leader" and self.commit_index < self.log.last_index:
            self.commit_index = self.log.last_index
            self._apply_committed()


class _UnfencedGroup(ReplicaGroup):
    replica_class = UnfencedReplica


class UnfencedShardedDatabase(ShardedDatabase):
    """``replication.unfenced``: every shard a group of unfenced replicas."""

    group_class = _UnfencedGroup


class FlipWithoutDrainDatabase(ShardedDatabase):
    """``cluster.flip_without_drain``: migration with no quiesce."""

    def migrate_shard(
        self, shard: int, dest: str, dest_nodes: Optional[list[str]] = None
    ) -> Generator:
        """Snapshot the shard, stream the copy while transactions keep
        committing against the source group, then flip to a new group on
        ``dest`` built from the snapshot, leaving the source group serving
        the branches already open on it: every write that landed during
        the copy window, or lands after it, is silently lost."""
        self.directory.begin_migration(shard, dest)
        try:
            old_engine = self.leader_engine(shard)
            snapshot = {name: old_engine.all_rows(name) for name in self._primary_keys}
            yield self.env.timeout(25.0)  # the copy window — writes continue
            self.install_group(shard, [dest], snapshot)
        except BaseException:
            self.directory.abort_migration(shard)
            raise
        self.directory.complete_migration(shard)


class _SplitSteps:
    """``invoicing.split_allocator``: one transaction per handler step."""

    sound = False

    def execute(self, op: Any) -> Generator:
        handler = self.handler_for(op)
        access = handler.access(op)
        scratch: dict = {}
        result = None
        for step in handler.steps or (handler.body,):
            result = yield from self._run_txn(handler, op, access, step, scratch)
        self.record_effect(op)
        return result


class SplitAllocatorDbBinder(_SplitSteps, DbBinder):
    """``invoicing.split_allocator`` on the monolith (C17's control row)."""


class SplitAllocatorShardedDbBinder(_SplitSteps, ShardedDbBinder):
    """``invoicing.split_allocator`` on the cluster (the chaos control)."""


def _on_database(db_class: type):
    """A cluster binder over a ``db_class`` database, built with the
    options and name the binder gives its own."""

    def build(env, spec, num_shards: int = 2, **db_opts) -> ShardedDbBinder:
        db = db_class(
            env, num_shards=num_shards, name=f"{spec.name}-cluster", **db_opts
        )
        binder = ShardedDbBinder(env, spec, db=db)
        binder.sound = False
        return binder

    return build


#: mutant name -> ``(env, spec, **sound binder options) -> Binder``
MUTANTS = {
    "replication.unfenced": _on_database(UnfencedShardedDatabase),
    "invoicing.split_allocator": SplitAllocatorShardedDbBinder,
    "cluster.flip_without_drain": _on_database(FlipWithoutDrainDatabase),
}
