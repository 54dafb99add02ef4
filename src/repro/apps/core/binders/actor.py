"""The actor binder: every (entity, key) row lives in a virtual actor.

``mode="transaction"`` (sound) runs each handler through the
Orleans-style coordinator's dynamic path: locks on the declared actor
set, reads and writes against tentative state, durable prepare, commit —
ACID at the documented §4.2 performance penalty.  ``mode="plain"``
(unsound control) runs the same handler but applies each buffered write
as an independent actor call: atomic per actor, torn across them.
"""

from __future__ import annotations

from typing import Any, Generator, Hashable

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
    KernelContext,
    register_binder,
    storage_key,
)
from repro.apps.core.spec import AppSpec
from repro.sim import Environment


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


class _ActorTxnCtx(KernelContext):
    """Handler context over a dynamic coordinator session."""

    def __init__(self, env, op, handler, access, session: TxnSession) -> None:
        super().__init__(env, op, handler, access)
        self.session = session

    def _get(self, entity: str, key: Hashable) -> Generator:
        row = yield from self.session.call(
            "KernelEntityActor", storage_key(entity, key), "k_get"
        )
        return row

    def _put(self, entity: str, key: Hashable, row: dict) -> Generator:
        yield from self.session.call(
            "KernelEntityActor", storage_key(entity, key), "k_set", (dict(row),)
        )

    def _delete(self, entity: str, key: Hashable) -> Generator:
        yield from self.session.call(
            "KernelEntityActor", storage_key(entity, key), "k_delete"
        )


class _PlainActorCtx(KernelContext):
    """Uncoordinated context: direct reads, buffered writes."""

    def __init__(self, env, op, handler, access, runtime: ActorRuntime) -> None:
        super().__init__(env, op, handler, access)
        self.actors = runtime
        #: (entity, key) -> row-or-None, in write order
        self.writes: dict[tuple, Any] = {}

    def _get(self, entity: str, key: Hashable) -> Generator:
        ref = (entity, key)
        if ref in self.writes:
            row = self.writes[ref]
            return dict(row) if row is not None else None
        row = yield from self.actors.ref(
            "KernelEntityActor", storage_key(entity, key)
        ).call("k_get", retries=2)
        return row

    def _put(self, entity: str, key: Hashable, row: dict) -> Generator:
        self.writes[(entity, key)] = dict(row)
        return
        yield  # pragma: no cover

    def _delete(self, entity: str, key: Hashable) -> Generator:
        self.writes[(entity, key)] = None
        return
        yield  # pragma: no cover


@register_binder
class ActorBinder(Binder):
    """One app on the virtual-actor runtime."""

    runtime = "actor"

    def __init__(
        self,
        env: Environment,
        spec: AppSpec,
        mode: str = "transaction",
        num_silos: int = 3,
        retries: int = 12,
    ) -> None:
        if mode not in ("transaction", "plain"):
            raise ValueError(f"unknown mode {mode!r}")
        super().__init__(env, spec)
        self.mode = mode
        self.retries = retries
        self.sound = mode == "transaction"
        self.actors = ActorRuntime(env, num_silos=num_silos)
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
                result = yield from handler.body(ctx, op)
                return result

            # Lock timeouts and participant failures surface as
            # TransactionFailed — definite aborts, safe to retry.  Only
            # CommitUncertain (decision may have landed) must not be.
            last: Exception = TransactionFailed("transaction never attempted")
            for attempt in range(self.retries):
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
