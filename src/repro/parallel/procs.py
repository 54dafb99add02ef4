"""Deterministic stored procedures: the only code planned queues execute.

Queue-oriented execution plans *transaction descriptors*, never closures:
a :class:`~repro.parallel.plan.TxnSpec` names a procedure registered here
plus its arguments and its declared key set, so execution is a pure
function of ``(snapshot slice, queue)``.

Procedures must be deterministic: no wall clock, no unseeded randomness,
no iteration over unordered containers whose order leaks into writes.
Every key a procedure touches must be declared in its spec — the
:class:`TxnView` enforces this, because an undeclared access would have
been invisible to the planner and could silently break the conflict-free
partitioning.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Optional

#: name -> procedure; populated by :func:`procedure` at import time.
PROC_REGISTRY: dict[str, Callable] = {}


class UnknownProcedure(KeyError):
    """A spec named a procedure that was never registered."""


class UndeclaredKey(RuntimeError):
    """A procedure touched a key absent from its spec's declared key set."""


def procedure(name: str) -> Callable[[Callable], Callable]:
    """Register ``fn`` as the stored procedure called ``name``."""

    def register(fn: Callable) -> Callable:
        if name in PROC_REGISTRY:
            raise ValueError(f"procedure {name!r} is already registered")
        PROC_REGISTRY[name] = fn
        return fn

    return register


def resolve(name: str) -> Callable:
    try:
        return PROC_REGISTRY[name]
    except KeyError:
        raise UnknownProcedure(
            f"procedure {name!r} is not registered; import the module "
            "that defines it before running the epoch"
        ) from None


class TxnView:
    """One transaction's window onto a shard store.

    ``store`` maps ``(table, key) -> row dict`` (absent = no row).  Reads
    and writes are restricted to the declared key set; writes apply to the
    store immediately (later transactions in the same queue see them) and
    are recorded in order for the deterministic merge back into the
    authoritative engine.
    """

    __slots__ = ("_store", "_allowed", "writes")

    def __init__(self, store: Any, allowed: frozenset) -> None:
        self._store = store
        self._allowed = allowed
        #: ordered ``((table, key), row_or_None)`` pairs; ``None`` deletes.
        self.writes: list[tuple[tuple[str, Hashable], Optional[dict]]] = []

    def _check(self, table: str, key: Hashable) -> tuple[str, Hashable]:
        ref = (table, key)
        if ref not in self._allowed:
            raise UndeclaredKey(
                f"access to {table}[{key!r}] was not declared in the "
                "transaction's key set — the planner cannot partition "
                "undeclared accesses"
            )
        return ref

    def get(self, table: str, key: Hashable) -> Optional[dict]:
        """The current row (or ``None``); sees this txn's own writes."""
        return self._store.get(self._check(table, key))

    def put(self, table: str, key: Hashable, row: dict) -> None:
        """Install a full row (copied, so callers may reuse the dict)."""
        ref = self._check(table, key)
        frozen = dict(row)
        self._store[ref] = frozen
        self.writes.append((ref, frozen))

    def update(self, table: str, key: Hashable, changes: dict) -> dict:
        """Merge ``changes`` into the existing row; raises if absent."""
        ref = self._check(table, key)
        current = self._store.get(ref)
        if current is None:
            raise KeyError(f"{table}[{key!r}] does not exist")
        merged = dict(current)
        merged.update(changes)
        self._store[ref] = merged
        self.writes.append((ref, merged))
        return merged

    def delete(self, table: str, key: Hashable) -> None:
        ref = self._check(table, key)
        self._store.pop(ref, None)
        self.writes.append((ref, None))


def spin(rounds: int, salt: int = 0) -> int:
    """Deterministic CPU work (a linear-congruential chain).

    Models the compute cost of real transaction logic; benches use it to
    make the execution phase CPU-bound without touching the clock.
    """
    value = (salt * 2654435761 + 1) & 0x7FFFFFFF
    for _ in range(rounds):
        value = (value * 1103515245 + 12345) & 0x7FFFFFFF
    return value


# -- built-in procedures ------------------------------------------------------
#
# The KV family mirrors the YCSB operation shapes the benches use; apps can
# register richer procedures from their own modules.


@procedure("kv.read")
def _kv_read(ctx: TxnView, table: str, key: Hashable) -> Optional[dict]:
    return ctx.get(table, key)


@procedure("kv.put")
def _kv_put(ctx: TxnView, table: str, key: Hashable, row: dict) -> None:
    ctx.put(table, key, row)


@procedure("kv.rmw")
def _kv_rmw(
    ctx: TxnView,
    table: str,
    key: Hashable,
    field: str = "counter",
    delta: int = 1,
    work: int = 0,
) -> int:
    """Read-modify-write: increment ``field``, optionally burning CPU."""
    row = ctx.get(table, key)
    if row is None:
        row = {"id": key, field: 0}
    value = row.get(field, 0) + delta
    if work:
        value += spin(work, salt=value) % 1  # burns cycles, adds nothing
    ctx.put(table, key, {**row, field: value})
    return value


@procedure("kv.transfer")
def _kv_transfer(
    ctx: TxnView,
    table: str,
    src: Hashable,
    dst: Hashable,
    amount: float,
    field: str = "balance",
    work: int = 0,
) -> None:
    """Move ``amount`` between two rows — the canonical cross-shard txn."""
    src_row = ctx.get(table, src) or {"id": src, field: 0}
    dst_row = ctx.get(table, dst) or {"id": dst, field: 0}
    if work:
        spin(work, salt=hash(amount) & 0xFFFF)
    ctx.put(table, src, {**src_row, field: src_row.get(field, 0) - amount})
    ctx.put(table, dst, {**dst_row, field: dst_row.get(field, 0) + amount})


def execute_entries(store: Any, entries: list) -> list:
    """Run planned transactions serially, in queue order, against a store.

    The single execution kernel: local queues run it against their
    shard's store, rendezvous transactions against the cross-shard view.
    Returns ``(tid, writes)`` per entry.
    """
    out = []
    for entry in entries:
        spec = entry.spec
        ctx = TxnView(store, frozenset(spec.keys))
        resolve(spec.proc)(ctx, *spec.args)
        out.append((entry.tid, ctx.writes))
    return out
