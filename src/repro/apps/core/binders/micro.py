"""The microservice binder: one service per entity, three coordination modes.

Each entity becomes a service owning its own database (database-per-
service, §3.3).  The handler body runs at the coordinator edge against
rows fetched over RPC (each with its version), writes are buffered, and
the commit discipline is the mode:

- ``"2pc"`` (sound) — optimistic two-phase commit in **three sequential
  rounds**, each one scatter-gather over every service it concerns
  (:meth:`MicroserviceApp.gather`), so a commit costs three round trips
  however many services it touches — the bound of Didona et al. is in
  sequential message delays, not in messages:

  1. *read* — the handler's declared read set is fetched at once, before
     the body runs; the body then reads from that cache (a key declared
     only as a write but read by the body is fetched when first read);
  2. *prepare* — every touched service, at once, re-reads the
     coordinator's read set inside a serializable local transaction,
     validates the versions, applies that service's writes (reusing the
     versions it has just validated) and durably *prepares*.  Read-only
     participants prepare too — the validation inside their prepared
     transaction is what closes the cross-service read-skew window;
  3. *decide* — ``commit_txn`` (or ``abort_txn``) goes to every
     participant at once.  Rounds 2 and 3 are
     :func:`~repro.transactions.commit.two_phase`, which owns who hears
     the abort and when an error may surface; a service that answered
     ``"conflict"`` votes refused.

  Locks are held from prepare to decision — exactly the §4.2 blocking
  cost — and a conflict retries the whole handler with fresh reads after
  a jittered backoff.

  Inside a round, a service's ``read``, ``prepare`` or ``apply`` ships its
  whole local transaction to its database as one request
  (:meth:`~repro.db.server.DatabaseServer.ship`): one database round trip
  per attempt, then each statement's service time — a one-row read is
  ``rtt + 3 × service`` (begin, get, commit), a two-key prepare
  ``rtt + 6 × service``.  The decisions are single statements already.

  **No-wait prepare.**  Preparing the services one after another in
  sorted order is what used to make this deadlock-free; preparing them
  all at once would let two transactions each hold one service and wait
  for the other.  So a prepare never waits for another coordinated
  transaction.  Each service keeps a *claim table*: key -> the undecided
  transaction whose prepare reads or writes it.  A prepare takes all its
  claims synchronously on arrival, or, if any key is already claimed,
  answers ``"conflict"`` at once and touches nothing.  Claims are
  released when the transaction is decided there (``commit_txn`` /
  ``abort_txn``) and on every path on which its prepare does not end
  prepared (version conflict, body exception, a crash of the service
  mid-prepare).  A claim holder therefore waits on nothing but its own
  database and its coordinator's decision, the waits-for graph between
  coordinated transactions has no edges, and no participant order is
  needed.

- ``"saga"`` — after the same read round, apply each service's writes as
  independent local transactions, one after another; on failure,
  compensate the already-applied services (the spec's ``compensate``
  body when given, else pre-image restore).  Eventually consistent,
  non-blocking, honest about its window.
- ``"none"`` (unsound control) — the fire-and-hope anti-pattern: apply
  services sequentially with no cleanup, so a mid-flight crash tears
  the application across services.  The invariants must catch it.
"""

from __future__ import annotations

from typing import Any, Generator, Hashable, Optional

from repro.apps.core.base import AppUncertain, Binder, BufferedContext, register_binder
from repro.apps.core.retry import with_shipped_txn
from repro.apps.core.spec import AppSpec, EntitySpec, HandlerSpec, OpAccess
from repro.microservices import Microservice
from repro.sim import Environment
from repro.transactions.commit import PREPARED, REFUSED, two_phase

#: handler attempts per op (each after a refused prepare or a saga failure)
OP_ATTEMPTS = 24


class _OccConflict(Exception):
    """A prepare-time version validation failed (retry with fresh reads)."""


def _apply_writes(request, table: str, writes: list, known: dict) -> Generator:
    """Install buffered writes in a shipped local transaction
    (:meth:`~repro.db.server.DatabaseServer.ship`), bumping each row's
    version.

    ``known`` maps keys this transaction has already read to their rows;
    only the others are fetched.
    """
    for key, row in writes:
        if key in known:
            current = known[key]
        else:
            current = yield from request.get(table, key)
        if row is None:
            if current is not None:
                yield from request.delete(table, key)
            continue
        version = 0 if current is None else current.get("_v", 0)
        yield from request.put(table, key, dict(row, _v=version + 1))


class _MicroCtx(BufferedContext):
    """Coordinator-side context: RPC reads with versions, buffered writes,
    and the 2PC transport of its transaction's commit."""

    def __init__(self, env, op, handler, access, binder: "MicroserviceBinder",
                 txn_id: str) -> None:
        super().__init__(env, op, handler, access)
        self.binder = binder
        #: names this execution in every idempotency key it sends
        self.txn_id = txn_id
        #: (entity, key) -> row-or-None as first read (the OCC pre-image)
        self.read_rows: dict[tuple, Optional[dict]] = {}
        #: (entity, key) -> version observed at first read
        self.read_versions: dict[tuple, int] = {}

    def _read_request(self, entity: str, key: Hashable) -> tuple:
        return entity, "read", {"key": key}, f"{self.txn_id}/r/{entity}/{key}"

    def _record_read(self, ref: tuple, reply: dict) -> None:
        self.read_rows[ref] = reply["row"]
        self.read_versions[ref] = reply["version"]

    def prefetch(self, refs: tuple) -> Generator:
        """The read round: fetch ``refs`` from their services all at once."""
        outcomes = yield from self.binder.gather(
            [self._read_request(entity, key) for entity, key in refs]
        )
        for ref, outcome in zip(refs, outcomes):
            self._record_read(ref, outcome.result())

    def _fetch(self, ref: tuple) -> Generator:
        if ref not in self.read_rows:  # readable, but not a declared read
            reply = yield from self.binder.request(*self._read_request(*ref))
            self._record_read(ref, reply)
        return self.read_rows[ref]

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

    # -- the two_phase transport (repro.transactions.commit) ---------------

    def prepare(self, entities: list[str]) -> Generator:
        """The prepare round, to every service at once.  A service that
        answered ``"conflict"`` took no claim: it votes refused."""
        outcomes = yield from self.binder.gather([
            (entity, "prepare",
             {"txn_id": self.txn_id,
              "writes": self.entity_writes(entity),
              "reads": self.entity_reads(entity)},
             f"{self.txn_id}/p/{entity}")
            for entity in entities
        ])
        votes = {"prepared": PREPARED, "conflict": REFUSED}
        return [
            outcome.error if outcome.error is not None else votes.get(outcome.value)
            for outcome in outcomes
        ]

    def decide(self, entities: list[str], commit: bool) -> Generator:
        """The decision round, to every service at once, each retried."""
        decision = "commit_txn" if commit else "abort_txn"
        outcomes = yield from self.binder.gather(
            [(entity, decision, {"txn_id": self.txn_id},
              f"{self.txn_id}/{decision}/{entity}")
             for entity in entities],
            retries=4,
        )
        return [outcome.error for outcome in outcomes]


@register_binder
class MicroserviceBinder(Binder):
    """One app as entity-per-service microservices."""

    runtime = "microservice"

    def __init__(
        self,
        env: Environment,
        spec: AppSpec,
        mode: str = "2pc",
        request_timeout: float = 400.0,
    ) -> None:
        if mode not in ("2pc", "saga", "none"):
            raise ValueError(f"unknown mode {mode!r}")
        super().__init__(env, spec)
        self.mode = mode
        self.sound = mode != "none"
        self.request_timeout = request_timeout
        from repro.microservices import MicroserviceApp

        self.app = MicroserviceApp(env, dedup_requests=True)
        self._rng = env.stream(f"micro-binder-{spec.name}")
        #: per service: txn_id -> (prepared local transaction, claimed keys),
        #: and the claim table key -> txn_id (see the module docstring)
        self.prepared: dict[str, dict] = {}
        self.claims: dict[str, dict] = {}
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
        #: txn_id -> (prepared local transaction, the keys it claimed)
        prepared: dict[str, tuple] = {}
        #: key -> txn_id of the undecided transaction preparing it
        claims: dict[Hashable, str] = {}
        self.prepared[table] = prepared
        self.claims[table] = claims

        def release(keys) -> None:
            for key in keys:
                del claims[key]

        @service.handler("read")
        def read(ctx, payload):
            def body(request):
                row = yield from request.get(table, payload["key"])
                return row

            row = yield from with_shipped_txn(ctx, body)
            if row is None:
                return {"row": None, "version": 0}
            row = dict(row)
            version = row.pop("_v", 0)
            return {"row": row, "version": version}

        @service.handler("apply")
        def apply(ctx, payload):
            def body(request):
                yield from _apply_writes(request, table, payload["writes"], {})
                return "applied"

            result = yield from with_shipped_txn(ctx, body)
            return result

        @service.handler("prepare")
        def prepare(ctx, payload):
            txn_id = payload["txn_id"]
            if txn_id in prepared:
                return "prepared"  # redelivered phase-1 request
            keys = dict.fromkeys(
                key for key, _ in payload["reads"] + payload["writes"]
            )
            # No-wait: between this check and the last claim nothing yields,
            # so two prepares can never each hold part of what the other
            # needs.
            if not claims.keys().isdisjoint(keys):
                return "conflict"
            for key in keys:
                claims[key] = txn_id

            def body(request):
                validated = {}
                for key, version in payload["reads"]:
                    row = yield from request.get(table, key)
                    current = 0 if row is None else row.get("_v", 0)
                    if current != version:
                        raise _OccConflict(f"{table}/{key}")
                    validated[key] = row
                yield from _apply_writes(
                    request, table, payload["writes"], validated
                )

            try:
                txn = yield from with_shipped_txn(ctx, body, prepare=True)
            except _OccConflict:
                release(keys)
                return "conflict"
            except BaseException:  # incl. Interrupted: the service crashed
                release(keys)
                raise
            prepared[txn_id] = (txn, keys)
            return "prepared"

        # A decision forgets its transaction only after the db call returns:
        # a crash mid-call must leave the entry and its claims for the
        # redelivered decision, or that decision finds nothing and
        # acknowledges a commit the db never installed.
        @service.handler("commit_txn")
        def commit_txn(ctx, payload):
            txn, keys = prepared.get(payload["txn_id"], (None, ()))
            if txn is not None:
                yield from ctx.db.commit_prepared(txn)
                del prepared[payload["txn_id"]]
                release(keys)
            return "committed"

        @service.handler("abort_txn")
        def abort_txn(ctx, payload):
            txn, keys = prepared.get(payload["txn_id"], (None, ()))
            if txn is not None:
                yield from ctx.db.abort_prepared(txn)
                del prepared[payload["txn_id"]]
                release(keys)
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

    def gather(self, requests: list, retries: int = 2) -> Generator:
        """One round: ``(service, method, payload, key)`` requests sent at
        once; returns their outcomes in request order."""
        outcomes = yield from self.app.gather(
            requests, timeout=self.request_timeout, retries=retries
        )
        return outcomes

    # -- lifecycle ----------------------------------------------------------

    def setup(self) -> Generator:
        return
        yield  # pragma: no cover

    def execute(self, op: Any) -> Generator:
        handler = self.handler_for(op)
        access = handler.access(op)
        op_id = getattr(op, "op_id", id(op))
        for attempt in range(OP_ATTEMPTS):
            txn_id = f"{op_id}#{attempt}"
            ctx = _MicroCtx(self.env, op, handler, access, self, txn_id)
            yield from ctx.prefetch(access.reads)
            result = yield from handler.body(ctx, op)
            if self.mode == "2pc":
                outcome = yield from self._commit_2pc(ctx)
                if outcome == "committed":
                    self.record_effect(op)
                    return result
                # Jittered backoff decorrelates OCC conflict partners on a
                # hot key (otherwise they re-validate in lock step forever).
                yield self.env.timeout(
                    2.0 * (attempt + 1) * self._rng.uniform(0.5, 1.5)
                )
                continue
            yield from self._apply_groups(txn_id, handler, op, access, ctx)
            self.record_effect(op)
            return result
        raise RuntimeError(f"{op_id}: validation retries exhausted")

    # -- 2PC ----------------------------------------------------------------

    def _commit_2pc(self, ctx: _MicroCtx) -> Generator:
        """:func:`~repro.transactions.commit.two_phase` over the touched
        services, with ``ctx`` as the transport; returns ``"committed"``
        or ``"conflict"`` (a definite abort, safe to retry)."""
        committed, error = yield from two_phase(ctx, ctx.touched_entities())
        if committed and error is not None:
            raise AppUncertain(
                f"{ctx.txn_id}: commit decision undeliverable: {error!r}"
            ) from error
        if error is not None:
            raise error
        return "committed" if committed else "conflict"

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
            undo_ctx = _MicroCtx(
                self.env, op, handler, access, self, f"{txn_id}/undo"
            )
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
