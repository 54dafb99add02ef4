"""The FaaS binder: handlers as Beldi-style serializable OCC workflows.

Each handler registers as a transactional workflow over the shared KV;
reads build a snapshot, writes buffer, and commit validates the read set
— conflicts retry the whole body automatically (the engine's OCC loop),
so handler bodies must be pure functions of their reads, which the
kernel's programming model already guarantees.
"""

from __future__ import annotations

from typing import Any, Generator, Hashable

from repro.apps.core.base import Binder, KernelContext, register_binder, storage_key
from repro.apps.core.spec import AppSpec, HandlerSpec
from repro.faas import SharedKv, TransactionalWorkflows
from repro.net.latency import Latency
from repro.sim import Environment


class _FaasCtx(KernelContext):
    """Entity access over a workflow's OCC read/write sets."""

    def __init__(self, env, op, handler, access, wctx) -> None:
        super().__init__(env, op, handler, access)
        self.wctx = wctx

    def _get(self, entity: str, key: Hashable) -> Generator:
        value = yield from self.wctx.read(storage_key(entity, key), None)
        return dict(value) if value is not None else None

    def _put(self, entity: str, key: Hashable, row: dict) -> Generator:
        self.wctx.write(storage_key(entity, key), dict(row))
        return
        yield  # pragma: no cover

    def _delete(self, entity: str, key: Hashable) -> Generator:
        # The KV has no tombstone-free delete; absence is modeled as None
        # and filtered out of reads and snapshots.
        self.wctx.write(storage_key(entity, key), None)
        return
        yield  # pragma: no cover


@register_binder
class FaasBinder(Binder):
    """One app as transactional workflows over a shared KV."""

    runtime = "faas"

    def __init__(self, env: Environment, spec: AppSpec, **workflow_kwargs) -> None:
        super().__init__(env, spec)
        self.kv = SharedKv(env, rtt=Latency.intra_zone())
        self.workflows = TransactionalWorkflows(env, kv=self.kv, **workflow_kwargs)
        for handler in spec.handlers.values():
            self.workflows.register(handler.name, self._bind_handler(handler))

    def _bind_handler(self, handler: HandlerSpec):
        def workflow(wctx, payload):
            # One OCC attempt; every attempt shares the access sets that
            # execute() evaluated.
            op, access = payload
            ctx = _FaasCtx(self.env, op, handler, access, wctx)
            result = yield from handler.body(ctx, op)
            return result

        return workflow

    def setup(self) -> Generator:
        for entity, key, row in self.initial_rows():
            yield from self.kv.put(storage_key(entity, key), dict(row))

    def execute(self, op: Any) -> Generator:
        handler = self.handler_for(op)
        op_id = getattr(op, "op_id", None)
        result = yield from self.workflows.run(
            handler.name, (op, handler.access(op)), workflow_id=op_id
        )
        self.record_effect(op)
        return result

    def snapshot(self) -> dict[str, list[dict]]:
        state: dict[str, list[dict]] = {name: [] for name in self.spec.entities}
        for skey, value in self.kv.store.items():
            entity, _sep, _key = str(skey).partition("/")
            if entity in state and value is not None:
                state[entity].append(dict(value))
        return {
            entity: self.sorted_rows(rows, entity)
            for entity, rows in state.items()
        }
