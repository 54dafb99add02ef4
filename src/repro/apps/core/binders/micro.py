"""The microservice binder: one service per entity, three coordination modes.

Each entity becomes a service owning its own database (database-per-
service, §3.3).  The handler body runs at the coordinator edge: reads go
over RPC (returning the row *and* its version), writes are buffered, and
the commit discipline is the mode:

- ``"2pc"`` (sound) — optimistic two-phase commit: every touched service
  re-reads the coordinator's read set inside a serializable local
  transaction, validates the versions, applies that service's writes,
  and durably *prepares*; the decision round commits (or aborts) every
  participant.  Locks are held from prepare to decision — exactly the
  §4.2 blocking cost — and a validation conflict retries the whole
  handler with fresh reads.
- ``"saga"`` — apply each service's writes as independent local
  transactions; on failure, compensate the already-applied services
  (the spec's ``compensate`` body when given, else pre-image restore).
  Eventually consistent, non-blocking, honest about its window.
- ``"none"`` (unsound control) — the fire-and-hope anti-pattern: apply
  services sequentially with no cleanup, so a mid-flight crash tears
  the application across services.  The invariants must catch it.
"""

from __future__ import annotations

from typing import Any, Generator, Hashable, Optional

from repro.apps.core.base import AppUncertain, Binder, KernelContext, register_binder
from repro.apps.core.retry import with_prepared_txn, with_txn
from repro.apps.core.spec import AppSpec, EntitySpec, HandlerSpec, OpAccess
from repro.microservices import Microservice
from repro.sim import Environment


class _OccConflict(Exception):
    """A prepare-time version validation failed (retry with fresh reads)."""


def _apply_writes(db, txn, table: str, writes: list) -> Generator:
    """Install buffered writes, bumping each row's version."""
    for key, row in writes:
        current = yield from db.get(txn, table, key)
        if row is None:
            if current is not None:
                yield from db.delete(txn, table, key)
            continue
        version = 0 if current is None else current.get("_v", 0)
        yield from db.put(txn, table, key, dict(row, _v=version + 1))


class _MicroCtx(KernelContext):
    """Coordinator-side context: RPC reads with versions, buffered writes."""

    def __init__(self, env, op, handler, access, binder: "MicroserviceBinder",
                 attempt: int) -> None:
        super().__init__(env, op, handler, access)
        self.binder = binder
        self.attempt = attempt
        #: (entity, key) -> row-or-None as first read (the OCC pre-image)
        self.read_rows: dict[tuple, Optional[dict]] = {}
        #: (entity, key) -> version observed at first read
        self.read_versions: dict[tuple, int] = {}
        #: (entity, key) -> row-or-None (None = delete), in write order
        self.writes: dict[tuple, Optional[dict]] = {}

    def _get(self, entity: str, key: Hashable) -> Generator:
        ref = (entity, key)
        if ref in self.writes:  # read-your-writes
            row = self.writes[ref]
            return dict(row) if row is not None else None
        if ref in self.read_rows:
            row = self.read_rows[ref]
            return dict(row) if row is not None else None
        op_id = getattr(self.op, "op_id", id(self.op))
        reply = yield from self.binder.request(
            entity, "read", {"key": key},
            f"{op_id}#{self.attempt}/r/{entity}/{key}",
        )
        self.read_rows[ref] = reply["row"]
        self.read_versions[ref] = reply["version"]
        return dict(reply["row"]) if reply["row"] is not None else None

    def _put(self, entity: str, key: Hashable, row: dict) -> Generator:
        self.writes[(entity, key)] = dict(row)
        return
        yield  # pragma: no cover

    def _delete(self, entity: str, key: Hashable) -> Generator:
        self.writes[(entity, key)] = None
        return
        yield  # pragma: no cover

    def touched_entities(self) -> list[str]:
        """Entities with reads or writes, in first-touch order."""
        seen: dict[str, None] = {}
        for entity, _key in list(self.read_versions) + list(self.writes):
            seen[entity] = None
        return list(seen)

    def entity_writes(self, entity: str) -> list:
        return [
            [key, row] for (e, key), row in self.writes.items() if e == entity
        ]

    def entity_reads(self, entity: str) -> list:
        return [
            [key, version]
            for (e, key), version in self.read_versions.items()
            if e == entity
        ]

    def pre_images(self, entity: str) -> list:
        """Undo writes for this entity: restore read pre-images.

        A written key never read is an insert — its pre-image is absence.
        """
        return [
            [key, self.read_rows.get((e, key))]
            for (e, key) in self.writes
            if e == entity
        ]


@register_binder
class MicroserviceBinder(Binder):
    """One app as entity-per-service microservices."""

    runtime = "microservice"

    def __init__(
        self,
        env: Environment,
        spec: AppSpec,
        mode: str = "2pc",
        shared_database: bool = False,
        request_timeout: float = 400.0,
        attempts: int = 24,
    ) -> None:
        if mode not in ("2pc", "saga", "none"):
            raise ValueError(f"unknown mode {mode!r}")
        super().__init__(env, spec)
        self.mode = mode
        self.sound = mode != "none"
        self.request_timeout = request_timeout
        self.attempts = attempts
        from repro.microservices import MicroserviceApp

        self.app = MicroserviceApp(
            env, shared_database=shared_database, dedup_requests=True
        )
        self._rng = env.stream(f"micro-binder-{spec.name}")
        for entity in spec.entities.values():
            self.app.add_service(self._entity_service(entity))

    # -- deployment ---------------------------------------------------------

    def _entity_service(self, entity: EntitySpec) -> Microservice:
        table = entity.name
        seed_rows = [dict(row, _v=0) for row in self.spec.initial_rows.get(table, [])]

        def init_db(db):
            db.create_table(table, primary_key=entity.key)
            db.load(table, seed_rows)

        service = Microservice(table, init_db=init_db)
        prepared: dict[str, object] = {}

        @service.handler("read")
        def read(ctx, payload):
            def body(txn):
                row = yield from ctx.db.get(txn, table, payload["key"])
                return row

            row = yield from with_txn(ctx, body)
            if row is None:
                return {"row": None, "version": 0}
            row = dict(row)
            version = row.pop("_v", 0)
            return {"row": row, "version": version}

        @service.handler("apply")
        def apply(ctx, payload):
            def body(txn):
                yield from _apply_writes(ctx.db, txn, table, payload["writes"])
                return "applied"

            result = yield from with_txn(ctx, body)
            return result

        @service.handler("prepare")
        def prepare(ctx, payload):
            if payload["txn_id"] in prepared:
                return "prepared"  # redelivered phase-1 request

            def body(txn):
                for key, version in payload["reads"]:
                    row = yield from ctx.db.get(txn, table, key)
                    current = 0 if row is None else row.get("_v", 0)
                    if current != version:
                        raise _OccConflict(f"{table}/{key}")
                yield from _apply_writes(ctx.db, txn, table, payload["writes"])

            try:
                txn = yield from with_prepared_txn(ctx, body)
            except _OccConflict:
                return "conflict"
            prepared[payload["txn_id"]] = txn
            return "prepared"

        @service.handler("commit_txn")
        def commit_txn(ctx, payload):
            txn = prepared.pop(payload["txn_id"], None)
            if txn is not None:
                yield from ctx.db.commit_prepared(txn)
            return "committed"

        @service.handler("abort_txn")
        def abort_txn(ctx, payload):
            txn = prepared.pop(payload["txn_id"], None)
            if txn is not None:
                yield from ctx.db.abort_prepared(txn)
            return "aborted"

        return service

    # -- client edge --------------------------------------------------------

    def request(self, service: str, method: str, payload: dict, key: str,
                retries: int = 2) -> Generator:
        result = yield from self.app.request(
            service, method, payload,
            timeout=self.request_timeout, retries=retries, idempotency_key=key,
        )
        return result

    # -- lifecycle ----------------------------------------------------------

    def setup(self) -> Generator:
        return
        yield  # pragma: no cover

    def execute(self, op: Any) -> Generator:
        handler = self.handler_for(op)
        access = handler.access(op)
        op_id = getattr(op, "op_id", id(op))
        for attempt in range(self.attempts):
            ctx = _MicroCtx(self.env, op, handler, access, self, attempt)
            result = yield from handler.body(ctx, op)
            if self.mode == "2pc":
                outcome = yield from self._commit_2pc(f"{op_id}#{attempt}", ctx)
                if outcome == "committed":
                    self.record_effect(op)
                    return result
                # Jittered backoff decorrelates OCC conflict partners on a
                # hot key (otherwise they re-validate in lock step forever).
                yield self.env.timeout(
                    2.0 * (attempt + 1) * self._rng.uniform(0.5, 1.5)
                )
                continue
            yield from self._apply_groups(
                f"{op_id}#{attempt}", handler, op, access, ctx
            )
            self.record_effect(op)
            return result
        raise RuntimeError(f"{op_id}: validation retries exhausted")

    # -- 2PC ----------------------------------------------------------------

    def _commit_2pc(self, txn_id: str, ctx: _MicroCtx) -> Generator:
        """Phase 1 prepares (validate + stage) every touched service; phase
        2 delivers the decision.  Read-only participants prepare too — the
        validation inside their prepared transaction is what closes the
        cross-service read-skew window."""
        # Sorted participant order: concurrent transactions prepare the
        # services in the same sequence, so they block rather than deadlock.
        entities = sorted(ctx.touched_entities())
        prepared: list[str] = []
        try:
            for entity in entities:
                status = yield from self.request(
                    entity, "prepare",
                    {"txn_id": txn_id,
                     "writes": ctx.entity_writes(entity),
                     "reads": ctx.entity_reads(entity)},
                    f"{txn_id}/p/{entity}",
                )
                if status == "conflict":
                    yield from self._decide(txn_id, prepared, "abort_txn")
                    return "conflict"
                prepared.append(entity)
        except Exception:
            # Phase-1 outcome on the failed participant is unknown, but no
            # commit decision exists yet, so abort is always safe; push it
            # to every possibly-prepared participant.
            yield from self._decide(txn_id, entities, "abort_txn")
            raise
        try:
            yield from self._decide(txn_id, prepared, "commit_txn")
        except Exception as exc:
            raise AppUncertain(
                f"{txn_id}: commit decision undeliverable: {exc!r}"
            ) from exc
        return "committed"

    def _decide(self, txn_id: str, entities: list[str], decision: str) -> Generator:
        for entity in entities:
            yield from self.request(
                entity, decision, {"txn_id": txn_id},
                f"{txn_id}/{decision}/{entity}", retries=4,
            )

    # -- saga / uncoordinated ----------------------------------------------

    def _apply_groups(self, txn_id: str, handler: HandlerSpec, op: Any,
                      access: OpAccess, ctx: _MicroCtx) -> Generator:
        applied: list[str] = []
        try:
            for entity in ctx.touched_entities():
                writes = ctx.entity_writes(entity)
                if not writes:
                    continue
                yield from self.request(
                    entity, "apply", {"writes": writes}, f"{txn_id}/apply/{entity}"
                )
                applied.append(entity)
        except Exception:
            if self.mode == "none":
                raise  # fire-and-hope: a torn application is the point
            yield from self._compensate(txn_id, handler, op, access, ctx, applied)
            raise

    def _compensate(self, txn_id: str, handler: HandlerSpec, op: Any,
                    access: OpAccess, ctx: _MicroCtx, applied: list[str]) -> Generator:
        if handler.compensate is not None:
            undo_ctx = _MicroCtx(self.env, op, handler, access, self, 0)
            yield from handler.compensate(undo_ctx, op)
            groups = [
                (entity, undo_ctx.entity_writes(entity))
                for entity in undo_ctx.touched_entities()
            ]
        else:
            groups = [(entity, ctx.pre_images(entity)) for entity in applied]
        for entity, writes in groups:
            if not writes:
                continue
            try:
                yield from self.request(
                    entity, "apply", {"writes": writes},
                    f"{txn_id}/undo/{entity}", retries=4,
                )
            except Exception:
                continue  # best-effort; the invariants judge the residue

    # -- state --------------------------------------------------------------

    def snapshot(self) -> dict[str, list[dict]]:
        state = {}
        for entity in self.spec.entities:
            rows = [
                {k: v for k, v in row.items() if k != "_v"}
                for row in self.app.database_of(entity).engine.all_rows(entity)
            ]
            state[entity] = self.sorted_rows(rows, entity)
        return state
