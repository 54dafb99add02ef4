"""Run one handler body synchronously against a plain dict.

The same :class:`~repro.apps.core.base.KernelContext` checks every binder
uses — an undeclared read or write raises
:class:`~repro.apps.core.base.UndeclaredAccess` — but the backend is a
``(entity, key) -> row`` mapping and there is no simulator: a body that
yields a simulator event has no event loop to resume it, so it fails
instead of being silently dropped.  :class:`repro.parallel.EpochExecutor`
runs every planned transaction through :func:`run_op`, and its serial
oracle is the same function applied op by op in TID order.
"""

from __future__ import annotations

from typing import Any, Generator, Hashable, Optional

from repro.apps.core.base import KernelContext
from repro.apps.core.spec import HandlerSpec, OpAccess

__all__ = ["ReferenceContext", "run_op"]


class ReferenceContext(KernelContext):
    """Entity access over a ``(entity, key) -> row`` store.

    Reads return copies; writes apply to the store at once (a later
    transaction on the same store sees them) and are recorded in order in
    :attr:`writes` for a deterministic merge elsewhere.
    """

    def __init__(self, op: Any, handler: HandlerSpec, access: OpAccess,
                 store: Any) -> None:
        super().__init__(None, op, handler, access)
        self.store = store
        #: ordered ``((entity, key), row_or_None)`` pairs; ``None`` deletes
        self.writes: list[tuple[tuple[str, Hashable], Optional[dict]]] = []

    def _get(self, entity: str, key: Hashable) -> Generator:
        row = self.store.get((entity, key))
        return dict(row) if row is not None else None
        yield  # pragma: no cover

    def _put(self, entity: str, key: Hashable, row: dict) -> Generator:
        ref = (entity, key)
        self.store[ref] = row
        self.writes.append((ref, row))
        return
        yield  # pragma: no cover

    def _delete(self, entity: str, key: Hashable) -> Generator:
        ref = (entity, key)
        self.store.pop(ref, None)
        self.writes.append((ref, None))
        return
        yield  # pragma: no cover


def run_op(handler: HandlerSpec, op: Any, access: OpAccess,
           store: Any) -> tuple[Any, list]:
    """Run ``handler``'s body for ``op`` on ``store``; returns
    ``(result, writes)``.  Raises ``RuntimeError`` if the body yields."""
    ctx = ReferenceContext(op, handler, access, store)
    body = handler.body(ctx, op)
    try:
        event = body.send(None)
    except StopIteration as done:
        return done.value, ctx.writes
    body.close()
    raise RuntimeError(
        f"handler {handler.name!r} yielded {event!r}: a body run without "
        "a simulator may only wait on its context's accessors"
    )
