"""Kernel base classes: apps own a ledger, binders deploy a spec.

Three pieces every runtime shares:

- :class:`KernelApp` — owns the :class:`~repro.transactions.anomalies`
  effect ledger, so no app wires its own (every app used to construct and
  thread one by hand);
- :class:`KernelContext` — the access-checked generator protocol a
  handler body runs against (``get``/``put``/``delete`` over
  ``(entity, key)``), enforcing the spec's declared read/write sets;
- :class:`Binder` — the deployment adapter: takes one
  :class:`~repro.apps.core.spec.AppSpec` and runs it on a concrete
  runtime, exposing the uniform ``setup() / execute(op) / snapshot() /
  invariants() / oracles()`` surface the harness, benchmarks, and chaos
  scenarios consume.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Hashable, Iterable, Optional

from repro.apps.core.spec import AppSpec, HandlerSpec, KeyRef, OpAccess
from repro.transactions.anomalies import EffectLedger, Invariant

__all__ = [
    "AppFailure",
    "AppUncertain",
    "Binder",
    "KernelApp",
    "KernelContext",
    "UndeclaredAccess",
    "bind",
    "register_binder",
    "registered_runtimes",
    "storage_key",
]


class AppFailure(Exception):
    """The operation definitely did not take effect (safe to retry)."""


class AppUncertain(Exception):
    """The operation's outcome is unknown (it may or may not have applied)."""


class UndeclaredAccess(Exception):
    """A handler touched a key outside its declared read/write sets."""


def storage_key(entity: str, key: Hashable) -> str:
    """Namespace an ``(entity, key)`` pair into one flat storage keyspace."""
    return f"{entity}/{key}"


class KernelApp:
    """Anything that executes operations and records effects.

    Owning the ledger here is the point: binders (and the hand-tuned
    native apps) inherit it instead of each constructing and threading
    an :class:`EffectLedger` by hand, so effect accounting is uniform —
    the driver acknowledges, the state owner applies, reconcile reports
    lost/duplicate effects the same way for every runtime.
    """

    def __init__(self, env) -> None:
        self.env = env
        self.ledger = EffectLedger()


class KernelContext:
    """The state-access protocol a handler body runs against.

    All accessors are generators (``yield from ctx.get(...)``) so one
    handler body runs unchanged whether the binder's backend answers from
    a local transaction, an RPC, an actor mailbox, or a workflow step.
    Every access is checked against the handler's declared sets: an
    access the binder cannot see up front is an access it cannot route,
    lock, or partition.
    """

    def __init__(
        self,
        env,
        op: Any,
        handler: HandlerSpec,
        access: OpAccess,
        scratch: Optional[dict] = None,
    ) -> None:
        self.env = env
        self.op = op
        self.handler = handler
        #: survives across steps of a transaction-per-step execution.
        self.scratch: dict = scratch if scratch is not None else {}
        self._readable = access.readable
        self._writable = access.writable

    # -- declared-access checks ---------------------------------------------

    def _check_read(self, entity: str, key: Hashable) -> None:
        if (entity, key) not in self._readable:
            raise UndeclaredAccess(
                f"handler {self.handler.name!r} read undeclared key "
                f"({entity!r}, {key!r})"
            )

    def _check_write(self, entity: str, key: Hashable) -> None:
        if (entity, key) not in self._writable:
            raise UndeclaredAccess(
                f"handler {self.handler.name!r} wrote undeclared key "
                f"({entity!r}, {key!r})"
            )

    # -- the handler-facing API ---------------------------------------------

    def get(self, entity: str, key: Hashable) -> Generator:
        """Read one row (a dict) or ``None``."""
        self._check_read(entity, key)
        row = yield from self._get(entity, key)
        return row

    def put(self, entity: str, key: Hashable, row: dict) -> Generator:
        """Insert or replace one row."""
        self._check_write(entity, key)
        yield from self._put(entity, key, dict(row))

    def delete(self, entity: str, key: Hashable) -> Generator:
        self._check_write(entity, key)
        yield from self._delete(entity, key)

    # -- backend hooks (one per binder) -------------------------------------

    def _get(self, entity: str, key: Hashable) -> Generator:
        raise NotImplementedError

    def _put(self, entity: str, key: Hashable, row: dict) -> Generator:
        raise NotImplementedError

    def _delete(self, entity: str, key: Hashable) -> Generator:
        raise NotImplementedError


#: runtime name -> Binder subclass.
_BINDERS: dict[str, type] = {}


def register_binder(cls: type) -> type:
    """Class decorator: make a binder reachable through :func:`bind`."""
    _BINDERS[cls.runtime] = cls
    return cls


def registered_runtimes() -> list[str]:
    return sorted(_BINDERS)


def bind(runtime: str, env, spec: AppSpec, **opts) -> "Binder":
    """Deploy ``spec`` onto ``runtime``."""
    try:
        cls = _BINDERS[runtime]
    except KeyError:
        raise KeyError(
            f"no binder registered for runtime {runtime!r} "
            f"(have {registered_runtimes()})"
        ) from None
    return cls(env, spec, **opts)


class Binder(KernelApp):
    """One deployment of one app spec onto one runtime.

    The uniform adapter surface:

    - ``setup()`` — generator; provision the runtime and load
      ``spec.initial_rows``;
    - ``execute(op)`` — generator; route the op to its handler, run it
      with the runtime's transaction discipline, record the effect;
    - ``snapshot()`` — generator; read committed state back as
      ``{entity: [rows]}`` for invariants and probes;
    - ``invariants()`` / ``oracles()`` — the spec's correctness story,
      as final-state checkers and as history-aware chaos oracles.
    """

    #: the runtime this binder deploys onto (registry key).
    runtime = "abstract"
    #: False marks an intentionally-unsound control variant.
    sound = True

    def __init__(self, env, spec: AppSpec) -> None:
        super().__init__(env)
        self.spec = spec

    # -- lifecycle ----------------------------------------------------------

    def setup(self) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover

    def execute(self, op: Any) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover

    def snapshot(self) -> dict[str, list[dict]]:
        """Committed state as ``{entity: [rows]}`` (rows sorted by key).

        Synchronous: every backend exposes a committed-state peek
        (engine rows, KV store, actor provider) that reads no locks —
        call it at quiescence for invariant checks, or mid-run for probes.
        """
        raise NotImplementedError

    # -- correctness --------------------------------------------------------

    def invariants(self) -> list[Invariant]:
        return self.spec.state_invariants()

    def oracles(self) -> list:
        from repro.apps.core.oracles import compile_oracles

        return compile_oracles(self.spec)

    def probe(self, state: dict[str, list[dict]]) -> dict[str, Any]:
        """Live in-workload observation: invariant name -> probe value."""
        values = {}
        for invariant in self.spec.invariants:
            value = invariant.probe_value(state)
            if value is not None:
                values[invariant.name] = value
        return values

    # -- shared helpers -----------------------------------------------------

    def handler_for(self, op: Any) -> HandlerSpec:
        return self.spec.handler_for(op)

    def initial_rows(self) -> Iterable[tuple[str, Hashable, dict]]:
        """``(entity, key, row)`` triples for every seed row, in spec order."""
        for entity, rows in self.spec.initial_rows.items():
            key_field = self.spec.entity(entity).key
            for row in rows:
                yield entity, row[key_field], row

    def record_effect(self, op: Any) -> None:
        """Count one application of ``op``'s effect into committed state."""
        op_id = getattr(op, "op_id", None)
        if op_id is not None:
            self.ledger.apply(op_id)

    def sorted_rows(self, rows: Iterable[dict], entity: str) -> list[dict]:
        key_field = self.spec.entity(entity).key
        return sorted(rows, key=lambda row: repr(row.get(key_field)))
