"""The transactional-dataflow binder (the Styx programming model).

Handlers become registered dataflow functions; an operation is submitted
with its declared key set, executes inside one epoch transaction, and
the future resolves at epoch commit — serializable, exactly-once, and
the closest existing runtime to the kernel's own programming model
(which is the Styx thesis: declare once, compile onto the dataflow).
"""

from __future__ import annotations

from typing import Any, Generator, Hashable

from repro.apps.core.base import (
    AppFailure,
    Binder,
    KernelContext,
    register_binder,
    storage_key,
)
from repro.apps.core.spec import AppSpec, HandlerSpec
from repro.dataflow import TransactionalDataflow, TxnAbort
from repro.sim import Environment


class _DataflowCtx(KernelContext):
    """Entity access over the engine's per-transaction write buffer."""

    def __init__(self, env, op, handler, access, txn) -> None:
        super().__init__(env, op, handler, access)
        self.txn = txn

    def _get(self, entity: str, key: Hashable) -> Generator:
        row = self.txn.get(storage_key(entity, key))
        return dict(row) if row is not None else None
        yield  # pragma: no cover

    def _put(self, entity: str, key: Hashable, row: dict) -> Generator:
        self.txn.put(storage_key(entity, key), dict(row))
        return
        yield  # pragma: no cover

    def _delete(self, entity: str, key: Hashable) -> Generator:
        self.txn.delete(storage_key(entity, key))
        return
        yield  # pragma: no cover


@register_binder
class DataflowBinder(Binder):
    """One app on the transactional dataflow engine."""

    runtime = "dataflow"

    def __init__(self, env: Environment, spec: AppSpec, **engine_kwargs) -> None:
        super().__init__(env, spec)
        engine_kwargs.setdefault("epoch_interval", 5.0)
        self.engine = TransactionalDataflow(env, **engine_kwargs)
        for handler in spec.handlers.values():
            self.engine.register(handler.name, self._bind_handler(handler))
        self.engine.register("_load", self._load_fn)
        self._started = False

    def _bind_handler(self, handler: HandlerSpec):
        def fn(txn, key, payload):
            op, access = payload
            ctx = _DataflowCtx(self.env, op, handler, access, txn)
            try:
                result = yield from handler.body(ctx, op)
            except AppFailure as exc:
                # Abort the epoch transaction; the buffer is discarded and
                # the submitter sees the failure.
                raise TxnAbort(str(exc)) from exc
            return result

        return fn

    @staticmethod
    def _load_fn(txn, key, row):
        txn.put(key, row)
        return True
        yield  # pragma: no cover

    def start(self) -> None:
        if not self._started:
            self.engine.start()
            self._started = True

    def setup(self) -> Generator:
        self.start()
        futures = [
            self.engine.submit(
                "_load", storage_key(entity, key), dict(row),
                keys=[storage_key(entity, key)],
            )
            for entity, key, row in self.initial_rows()
        ]
        for future in futures:
            yield future

    def execute(self, op: Any) -> Generator:
        handler = self.handler_for(op)
        access = handler.access(op)
        keys = [storage_key(entity, key) for entity, key in access.declared]
        root = keys[0] if keys else None  # an empty key set conflicts with nothing
        future = self.engine.submit(handler.name, root, (op, access), keys=keys)
        result = yield future
        self.record_effect(op)
        return result

    def snapshot(self) -> dict[str, list[dict]]:
        state: dict[str, list[dict]] = {name: [] for name in self.spec.entities}
        for skey, value in self.engine.all_state().items():
            entity, _sep, _key = str(skey).partition("/")
            if entity in state and value is not None:
                state[entity].append(dict(value))
        return {
            entity: self.sorted_rows(rows, entity)
            for entity, rows in state.items()
        }
