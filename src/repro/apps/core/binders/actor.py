"""The actor binder: every (entity, key) row lives in a virtual actor.

``mode="transaction"`` (sound) runs each handler through the
Orleans-style coordinator's dynamic path in four rounds, each one
reaching every actor it concerns at once: with locks held on the whole
declared actor set, the declared reads are fetched (*read*), the body
runs on them with its writes buffered behind a read-your-writes overlay,
the buffered writes are applied to tentative state (*write*), then
durable *prepare* and *commit* — ACID at the documented §4.2 performance
penalty.  ``mode="plain"`` (unsound control) runs the same handler but
applies each buffered write as an independent actor call: atomic per
actor, torn across them.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.actors import (
    Actor,
    ActorRuntime,
    ActorTransactionCoordinator,
    CommitUncertain,
    TransactionFailed,
    TxnSession,
    transactional,
)
from repro.apps.core.base import (
    AppUncertain,
    Binder,
    BufferedContext,
    register_binder,
    storage_key,
)
from repro.apps.core.spec import AppSpec
from repro.sim import Environment


#: coordinator attempts per op before a definite abort is surfaced
TXN_ATTEMPTS = 12


@transactional
class KernelEntityActor(Actor):
    """A generic row-holder actor: one activation per (entity, key)."""

    initial_state = {"row": None}

    def k_load(self, row):
        """Seed the row durably (setup path)."""
        self.state["row"] = row
        yield from self.save_state()

    def k_get(self):
        """Transactional read (runs against tentative state, no save)."""
        row = self.state.get("row")
        return dict(row) if row is not None else None
        yield  # pragma: no cover

    def k_set(self, row):
        """Transactional write: tentative until the coordinator commits."""
        self.state["row"] = row
        return True
        yield  # pragma: no cover

    def k_delete(self):
        self.state["row"] = None
        return True
        yield  # pragma: no cover

    def k_put(self, row):
        """Uncoordinated durable write (the ``plain`` mode's anti-pattern)."""
        self.state["row"] = row
        yield from self.save_state()
        return True


def _row_op(ref: tuple, method: str, args: tuple = ()) -> tuple:
    """The participant op on ``ref``'s row actor."""
    entity, key = ref
    return "KernelEntityActor", storage_key(entity, key), method, args


class _ActorTxnCtx(BufferedContext):
    """Handler context over a dynamic coordinator session, in rounds.

    :meth:`prefetch` reads the declared read set in one round before the
    body runs; the body reads those rows overlaid with its own buffered
    writes, and :meth:`flush` ships every write in one round after it
    returns.  A key declared only as a write but read by the body costs
    one call when first read.
    """

    def __init__(self, env, op, handler, access, session: TxnSession) -> None:
        super().__init__(env, op, handler, access)
        self.session = session
        #: (entity, key) -> row-or-None as read
        self.rows: dict[tuple, Optional[dict]] = {}

    def prefetch(self, refs: tuple) -> Generator:
        rows = yield from self.session.call_many([_row_op(ref, "k_get") for ref in refs])
        self.rows.update(zip(refs, rows))

    def flush(self) -> Generator:
        yield from self.session.call_many([
            _row_op(ref, "k_delete") if row is None else _row_op(ref, "k_set", (row,))
            for ref, row in self.writes.items()
        ])

    def _fetch(self, ref: tuple) -> Generator:
        if ref not in self.rows:  # readable, but not a declared read
            self.rows[ref] = yield from self.session.call(*_row_op(ref, "k_get"))
        return self.rows[ref]


class _PlainActorCtx(BufferedContext):
    """Uncoordinated context: direct reads, buffered writes."""

    def __init__(self, env, op, handler, access, runtime: ActorRuntime) -> None:
        super().__init__(env, op, handler, access)
        self.actors = runtime

    def _fetch(self, ref: tuple) -> Generator:
        row = yield from self.actors.ref(
            "KernelEntityActor", storage_key(*ref)
        ).call("k_get", retries=2)
        return row


@register_binder
class ActorBinder(Binder):
    """One app on the virtual-actor runtime."""

    runtime = "actor"

    def __init__(
        self,
        env: Environment,
        spec: AppSpec,
        mode: str = "transaction",
    ) -> None:
        if mode not in ("transaction", "plain"):
            raise ValueError(f"unknown mode {mode!r}")
        super().__init__(env, spec)
        self.mode = mode
        self.sound = mode == "transaction"
        self.actors = ActorRuntime(env)
        self.actors.register(KernelEntityActor)
        self.coordinator = ActorTransactionCoordinator(self.actors)
        #: every key that may hold a row, for the state snapshot
        self._keys: dict[str, set] = {name: set() for name in spec.entities}

    def setup(self) -> Generator:
        for entity, key, row in self.initial_rows():
            self._keys[entity].add(key)
            yield from self.actors.ref(
                "KernelEntityActor", storage_key(entity, key)
            ).call("k_load", dict(row))

    def execute(self, op: Any) -> Generator:
        handler = self.handler_for(op)
        access = handler.access(op)
        for entity, key in access.writable:
            self._keys[entity].add(key)
        if self.mode == "transaction":
            idents = [
                ("KernelEntityActor", storage_key(entity, key))
                for entity, key in access.declared
            ]

            def driver(session):
                ctx = _ActorTxnCtx(self.env, op, handler, access, session)
                yield from ctx.prefetch(access.reads)
                result = yield from handler.body(ctx, op)
                yield from ctx.flush()
                return result

            # Lock timeouts and participant failures surface as
            # TransactionFailed — definite aborts, safe to retry.  Only
            # CommitUncertain (decision may have landed) must not be.
            last: Exception = TransactionFailed("transaction never attempted")
            for attempt in range(TXN_ATTEMPTS):
                try:
                    result = yield from self.coordinator.execute_dynamic(
                        idents, driver
                    )
                except CommitUncertain as exc:
                    raise AppUncertain(str(exc)) from exc
                except TransactionFailed as exc:
                    last = exc
                    yield self.env.timeout(2.0 * (attempt + 1))
                    continue
                self.record_effect(op)
                return result
            raise last
        # plain: run the body against live state, then write each row
        # independently — the crash window between calls is the anomaly.
        ctx = _PlainActorCtx(self.env, op, handler, access, self.actors)
        result = yield from handler.body(ctx, op)
        for (entity, key), row in ctx.writes.items():
            yield from self.actors.ref(
                "KernelEntityActor", storage_key(entity, key)
            ).call("k_put", row, retries=2)
        self.record_effect(op)
        return result

    def snapshot(self) -> dict[str, list[dict]]:
        state: dict[str, list[dict]] = {}
        for entity, keys in self._keys.items():
            rows = []
            for key in keys:
                peeked = self.actors.provider.peek(
                    "KernelEntityActor", storage_key(entity, key)
                )
                if peeked is not None and peeked.get("row") is not None:
                    rows.append(dict(peeked["row"]))
            state[entity] = self.sorted_rows(rows, entity)
        return state
