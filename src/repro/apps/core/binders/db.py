"""Database binders: the monolith baseline and the sharded cluster.

Entities map to tables; a handler body runs inside one serializable
local (or distributed) transaction.  Running a handler's ``steps`` as
transactions of their own — the unsound allocate-then-insert pattern
the gap-free oracle must catch — is the mutant
``invoicing.split_allocator`` (:mod:`repro.chaos.mutants`), which
overrides :meth:`DbBinder.execute`; both binders run one transaction
per op through ``_run_txn``.

Neither binder lets the body choose its lock order.  Before the body
runs, one lock-and-fetch request takes every declared key in the global
order of :mod:`repro.cluster.plan` — partitions ascending, keys in
``(table, repr(key))`` order inside one, X for declared writes and S for
read-only keys — and returns the rows: on the monolith
:meth:`~repro.db.server.DatabaseServer.lock_and_fetch`, one charged
operation; on the cluster
:meth:`~repro.db.sharding.ShardedDatabase.lock_and_fetch`, one round
trip to every touched shard, where a shard whose lock is busy ends the
round and the next round re-sends the requests to the shards above it.
The body then reads those rows (overlaid with its own writes) and
buffers its writes, issuing no request; the writes ride on the commit
(the one-phase commit's log entry or the 2PC prepare's).
Because :class:`~repro.apps.core.base.KernelContext` rejects any key
outside the declared sets, every lock a transaction takes is in that one
order, so no waits-for cycle can form — across shards included, where
no single lock manager could see it.  Deadlock freedom holds by
construction, with no lock-wait timeout.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.apps.core.base import (
    AppUncertain,
    Binder,
    BufferedContext,
    register_binder,
)
from repro.apps.core.retry import with_txn
from repro.apps.core.spec import AppSpec, HandlerSpec, OpAccess
from repro.db import DatabaseServer, IsolationLevel
from repro.db.errors import FencedOut, TransactionAborted
from repro.db.sharding import ShardedDatabase
from repro.replication.errors import NoLeader, NotLeader, ReplicationError
from repro.sim import Environment

SER = IsolationLevel.SERIALIZABLE
#: attempts per transaction before an op fails
_RETRIES = 16


class _FetchedCtx(BufferedContext):
    """Entity access over rows locked and fetched before the body ran.

    Reads see the fetched rows overlaid with the body's own writes; writes
    buffer here until they ride on the commit, so the body itself issues
    no request.
    """

    def __init__(self, env, op, handler, access, rows, scratch) -> None:
        super().__init__(env, op, handler, access, scratch)
        self.rows = rows

    def _fetch(self, ref: tuple) -> Generator:
        return self.rows[ref]
        yield  # pragma: no cover


@register_binder
class DbBinder(Binder):
    """One app on the monolith database server (the §3 baseline).

    Each attempt locks and fetches the op's declared keys in one request
    before the body runs (module docstring), so attempts never deadlock.
    """

    runtime = "db"

    def __init__(self, env: Environment, spec: AppSpec) -> None:
        super().__init__(env, spec)
        self.db = DatabaseServer(env, name=f"{spec.name}-db")
        for entity in spec.entities.values():
            self.db.create_table(entity.name, primary_key=entity.key)
        for entity_name, rows in spec.initial_rows.items():
            self.db.load(entity_name, [dict(row) for row in rows])

    def setup(self) -> Generator:
        return
        yield  # pragma: no cover

    def execute(self, op: Any) -> Generator:
        handler = self.handler_for(op)
        result = yield from self._run_txn(
            handler, op, handler.access(op), handler.body, {}
        )
        self.record_effect(op)
        return result

    def _run_txn(self, handler: HandlerSpec, op: Any, access: OpAccess, body,
                 scratch: dict) -> Generator:
        """One serializable transaction running ``body``, with retries."""

        def run(txn):
            rows = yield from self.db.lock_and_fetch(
                txn, access.declared, access.writable
            )
            ctx = _FetchedCtx(self.env, op, handler, access, rows, scratch)
            result = yield from body(ctx, op)
            for (table, key), row in ctx.writes.items():
                self.db.engine.buffer_write(txn, table, key, row)
            return result

        return with_txn(self, run, retries=_RETRIES)

    def snapshot(self) -> dict[str, list[dict]]:
        return {
            entity: self.sorted_rows(
                (dict(row) for row in self.db.engine.all_rows(entity)), entity
            )
            for entity in self.spec.entities
        }


@register_binder
class ShardedDbBinder(Binder):
    """One app on the sharded (optionally quorum-replicated) database.

    Rows route by key across shards; cross-entity handlers become 2PC
    across the touched shards.  Each attempt locks and fetches the
    op's declared keys in global order before the body runs and ships
    the body's writes with the commit messages (module docstring), so
    attempts never deadlock.  Each shard is a replica group (one replica
    unless ``replication`` asks for more); a larger group is a quorum
    group with fenced leadership — so the binder surfaces
    the cluster's full outcome vocabulary: clean aborts retry, lost
    leadership retries after re-election, and an undeliverable commit
    decision raises :class:`AppUncertain` (the Jepsen ``info`` class).
    """

    runtime = "cluster"

    def __init__(
        self,
        env: Environment,
        spec: AppSpec,
        db: Optional[ShardedDatabase] = None,
        num_shards: int = 2,
        **db_opts,
    ) -> None:
        super().__init__(env, spec)
        if db is None:
            db = ShardedDatabase(
                env, num_shards=num_shards, name=f"{spec.name}-cluster",
                **db_opts,
            )
        self.db = db
        for entity in spec.entities.values():
            self.db.create_table(entity.name, primary_key=entity.key)
        for entity_name, rows in spec.initial_rows.items():
            self.db.load(entity_name, [dict(row) for row in rows])

    def setup(self) -> Generator:
        return
        yield  # pragma: no cover

    # one transaction per op, run by this class's ``_run_txn``
    execute = DbBinder.execute

    def _run_txn(self, handler: HandlerSpec, op: Any, access: OpAccess, body,
                 scratch: dict) -> Generator:
        op_id = getattr(op, "op_id", op)
        for attempt in range(_RETRIES):
            txn = self.db.begin(SER)
            try:
                rows = yield from self.db.lock_and_fetch(
                    txn, access.declared, access.writable
                )
                ctx = _FetchedCtx(self.env, op, handler, access, rows, scratch)
                result = yield from body(ctx, op)
                yield from self.db.commit(txn, ctx.writes)
                return result
            except TransactionAborted:
                self.db.abort(txn)
                yield self.env.timeout(1.0 * (attempt + 1))
            except (NotLeader, NoLeader):
                # Definite clean abort: leadership moved (or an election is
                # in flight) before anything replicated.  Back off long
                # enough for a new leader to emerge, then retry.
                self.db.abort(txn)
                yield self.env.timeout(5.0 * (attempt + 1))
            except (ReplicationError, FencedOut) as exc:
                if getattr(txn, "status", None) == "uncertain":
                    raise AppUncertain(
                        f"{op_id}: commit outcome unknown: {exc!r}"
                    ) from exc
                # The abort decision replicated (2PC prepare failure) or the
                # pinned replica died mid-transaction: definitely not
                # committed, safe to retry on whatever leader emerges.
                self.db.abort(txn)
                yield self.env.timeout(5.0 * (attempt + 1))
            except Exception as exc:
                if getattr(txn, "status", None) == "uncertain":
                    raise AppUncertain(
                        f"{op_id}: commit outcome unknown: {exc!r}"
                    ) from exc
                self.db.abort(txn)
                raise
        raise RuntimeError(f"{op_id}: retries exhausted")

    def snapshot(self) -> dict[str, list[dict]]:
        return {
            entity: self.sorted_rows(
                (dict(row) for row in self.db.all_rows(entity)), entity
            )
            for entity in self.spec.entities
        }
