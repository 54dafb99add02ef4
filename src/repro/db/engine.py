"""The transactional engine: tables, MVCC, isolation levels, WAL, recovery.

Updates are *deferred*: a transaction buffers writes privately and installs
them at commit, so aborts need no undo and recovery is redo-only
("ARIES-lite").  Three isolation levels exhibit their textbook behaviour:

- ``READ_COMMITTED`` — reads see the latest committed version; lost updates
  are possible (the developer-visible anomaly of paper §3.1's microservice
  frameworks, which inherit "the configured isolation level").
- ``SNAPSHOT`` — MVCC reads as of transaction begin plus first-committer-
  wins validation; prevents lost updates, permits write skew.
- ``SERIALIZABLE`` — strict two-phase locking with intention locks and
  table-granularity scan locks (phantom protection) plus deadlock
  detection.

The XA-style ``prepare``/``commit_prepared``/``abort_prepared`` methods make
any database instance a two-phase-commit participant; between prepare and
the decision the transaction's locks remain held — the blocking window the
paper blames for 2PC's performance cost (§4.2).

Each durable format is written down once.  ``_redo`` appends the
``write`` records of every path that installs rows (commits, prepares,
replicated entries, bulk load); ``_decide`` logs, fsyncs and applies the
decision on an in-doubt write set (XA phase two,
:meth:`~Database.resolve_in_doubt`, a replicated ``decide``) and
``_hold`` re-takes such a set's locks where no open transaction holds
them.  :meth:`~Database.image` is the checkpoint format:
:meth:`~Database.checkpoint` logs it, a replica ships it as an
InstallSnapshot payload, and ``_restore`` reads it back (recovery,
:meth:`~Database.install_snapshot`).  :meth:`~Database.apply_replicated`
is the one reader of a replicated log command.

Four storage fast paths ride under the engine's semantics (see
``docs/PERFORMANCE.md`` § "Storage engine").  The environment's
``fast_path`` switch selects them all at once: on an
``Environment(fast_path=False)`` the engine runs every reference mode,
and the golden-equivalence suite proves both produce identical results:

- **version-chain GC**: versions superseded at-or-below the oldest active
  snapshot's ``begin_seq`` are pruned, bounding chain length on hot keys.
  The newest version at-or-below the horizon is always kept, and keys are
  never dropped, so heap iteration order is identical with GC on or off.
- **group commit**: commits landing in the same virtual instant share one
  WAL ``flush()`` — the physical fsync is deferred to an end-of-instant
  callback and the whole group rides on one shared flush future
  (:meth:`Database.flush_barrier`).  A crash before the group fsync loses
  the *whole* group (prefix-consistent), never an interior subset.
- **copy elision**: reads return the committed row object itself instead
  of a defensive ``dict()`` copy.  Committed rows are frozen as
  :class:`Row` at install time; callers must not mutate returned rows
  (mutation raises ``TypeError``).
- **read-only commit elision**: a transaction with no writes has no redo
  to log, so its commit record, group-flush membership and fsync are
  skipped.

An already-granted lock is consumed without suspending the process; that
is the model, not a fast path (yielding a done grant hands the turn to
every other process ready at the same instant, a different schedule).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Container, Generator, Hashable, Iterable, KeysView, Optional,
)

from repro.cluster.plan import key_order
from repro.db.errors import (
    DuplicateKey,
    FencedOut,
    InvalidTransactionState,
    NoSuchTable,
    TransactionAborted,
    WriteConflict,
)
from repro.db.locks import LockManager, LockMode
from repro.sim import Environment, Future
from repro.storage.wal import WriteAheadLog

_DELETED = None  # a version with row=None is a deletion marker
#: chain length past which a commit prunes the key's chain inline
GC_CHAIN_THRESHOLD = 8


class Row(dict):
    """A committed row: logically immutable once installed in the heap.

    Installing frozen rows is what makes read-path copy elision safe — the
    same object can be handed to every reader (and shared with the WAL
    record that logged it) because nobody can change it in place.  Writers
    are unaffected: ``put``/``update``/``insert`` already buffer fresh
    dicts, and any caller who wants a mutable view takes ``dict(row)``.
    """

    __slots__ = ()

    def _immutable(self, *args: Any, **kwargs: Any) -> Any:
        raise TypeError(
            "committed rows are immutable; copy with dict(row) before mutating"
        )

    __setitem__ = _immutable  # type: ignore[assignment]
    __delitem__ = _immutable  # type: ignore[assignment]
    __ior__ = _immutable  # type: ignore[assignment]
    clear = _immutable  # type: ignore[assignment]
    pop = _immutable  # type: ignore[assignment]
    popitem = _immutable  # type: ignore[assignment]
    setdefault = _immutable  # type: ignore[assignment]
    update = _immutable  # type: ignore[assignment]

    def __reduce__(self) -> tuple:
        # Pickle/deepcopy as a plain dict: copies are for mutating.
        return (dict, (dict(self),))


class IsolationLevel(enum.Enum):
    READ_COMMITTED = "read_committed"
    SNAPSHOT = "snapshot"
    SERIALIZABLE = "serializable"


class TxnStatus(enum.Enum):
    ACTIVE = "active"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Transaction:
    """Handle for an in-flight transaction."""

    tid: int
    isolation: IsolationLevel
    begin_seq: int
    status: TxnStatus = TxnStatus.ACTIVE
    writes: dict[tuple[str, Hashable], Optional[dict]] = field(default_factory=dict)
    reads: set[tuple[str, Hashable]] = field(default_factory=set)

    def require(self, *statuses: TxnStatus) -> None:
        if self.status not in statuses:
            raise InvalidTransactionState(
                f"txn {self.tid} is {self.status.value}, "
                f"needs {[s.value for s in statuses]}"
            )


class _Table:
    """Versioned heap with primary key and secondary indexes.

    Secondary indexes come in two flavours: hash (equality lookups) and
    ordered (range lookups over a sorted column directory).
    """

    def __init__(self, name: str, primary_key: str) -> None:
        self.name = name
        self.primary_key = primary_key
        self.versions: dict[Hashable, list[tuple[int, Optional[dict]]]] = {}
        self.indexes: dict[str, dict[Any, set[Hashable]]] = {}
        self.ordered_indexes: set[str] = set()  # columns with sorted access
        self._sorted_values: dict[str, list[Any]] = {}

    def latest(self, key: Hashable) -> Optional[dict]:
        chain = self.versions.get(key)
        return chain[-1][1] if chain else None

    def latest_seq(self, key: Hashable) -> int:
        chain = self.versions.get(key)
        return chain[-1][0] if chain else 0

    def read_at(self, key: Hashable, seq: int) -> Optional[dict]:
        chain = self.versions.get(key)
        if not chain:
            return None
        for version_seq, row in reversed(chain):
            if version_seq <= seq:
                return row
        return None

    def install(self, key: Hashable, row: Optional[dict], seq: int) -> None:
        if row is not None and row.__class__ is not Row:
            row = Row(row)
        old = self.latest(key)
        self.versions.setdefault(key, []).append((seq, row))
        for column, index in self.indexes.items():
            if old is not None and column in old:
                old_value = old[column]
                bucket = index.get(old_value, set())
                bucket.discard(key)
                if not bucket and column in self.ordered_indexes:
                    self._sorted_remove(column, old_value)
                    index.pop(old_value, None)
            if row is not None and column in row:
                value = row[column]
                if value not in index and column in self.ordered_indexes:
                    self._sorted_insert(column, value)
                index.setdefault(value, set()).add(key)

    def prune(self, key: Hashable, horizon: int) -> int:
        """Drop versions superseded at-or-below ``horizon`` (MVCC GC).

        Keeps the newest version at-or-below the horizon — exactly what the
        oldest live snapshot reads — plus everything newer.  The key itself
        is never dropped (even when only a tombstone remains), so heap
        iteration order is identical with GC on or off.  Returns the number
        of versions dropped.
        """
        chain = self.versions.get(key)
        if not chain or len(chain) == 1:
            return 0
        cut = 0
        for index, (version_seq, _row) in enumerate(chain):
            if version_seq <= horizon:
                cut = index
            else:
                break
        if not cut:
            return 0
        del chain[:cut]
        return cut

    def _sorted_insert(self, column: str, value: Any) -> None:
        import bisect

        directory = self._sorted_values.setdefault(column, [])
        bisect.insort(directory, value)

    def _sorted_remove(self, column: str, value: Any) -> None:
        import bisect

        directory = self._sorted_values.get(column, [])
        position = bisect.bisect_left(directory, value)
        if position < len(directory) and directory[position] == value:
            del directory[position]

    def range_values(self, column: str, low: Any, high: Any) -> list[Any]:
        """Index values in ``[low, high)`` (ordered index required)."""
        import bisect

        directory = self._sorted_values.get(column, [])
        start = bisect.bisect_left(directory, low)
        stop = bisect.bisect_left(directory, high)
        return directory[start:stop]

    def keys(self) -> KeysView[Hashable]:
        """Live key view (don't mutate the table while iterating)."""
        return self.versions.keys()

    def version_count(self) -> int:
        """Total retained versions across every chain (GC accounting)."""
        return sum(len(chain) for chain in self.versions.values())

    def create_index(self, column: str, ordered: bool = False) -> None:
        index: dict[Any, set[Hashable]] = {}
        for key in self.versions:
            row = self.latest(key)
            if row is not None and column in row:
                index.setdefault(row[column], set()).add(key)
        self.indexes[column] = index
        if ordered:
            self.ordered_indexes.add(column)
            self._sorted_values[column] = sorted(index)


@dataclass
class DbStats:
    begun: int = 0
    committed: int = 0
    aborted: int = 0
    conflicts: int = 0
    reads: int = 0
    writes: int = 0
    #: mirror of ``wal.flush_count`` — physical fsyncs issued by this engine
    flush_count: int = 0
    #: group-commit batches fsynced (each saved ``size - 1`` flushes)
    group_flushes: int = 0
    #: commits that rode a shared group fsync
    grouped_commits: int = 0
    #: versions dropped by the MVCC chain GC (inline + explicit passes)
    gc_pruned_versions: int = 0
    #: explicit :meth:`Database.gc` sweeps
    gc_passes: int = 0
    #: retained version tuples across all tables (gauge)
    live_versions: int = 0
    #: replicated-apply acks refused because the proposal term was fenced
    fenced_acks: int = 0
    #: replicated commands (commit/prepare/decide entries) applied
    replicated_applies: int = 0


class _CommitGroup:
    """Commits from one virtual instant sharing a single WAL fsync."""

    __slots__ = ("future", "size", "last_lsn", "crashed")

    def __init__(self, future: Any) -> None:
        self.future = future
        self.size = 0
        self.last_lsn = 0
        self.crashed = False


class Database:
    """A single-node transactional database instance.

    All data-access methods are generators (they may block on locks) and are
    meant to be driven with ``yield from`` inside simulation processes::

        txn = db.begin(IsolationLevel.SERIALIZABLE)
        row = yield from db.get(txn, "accounts", "alice")
        yield from db.put(txn, "accounts", "alice", {**row, "balance": 0})
        yield from db.commit(txn)

    ``env.fast_path`` selects the storage fast paths (see the module
    docstring); ``False`` is the reference engine the golden-equivalence
    suite compares against.
    """

    def __init__(self, env: Environment, name: str = "db") -> None:
        self.env = env
        self.name = name
        self.locks = LockManager(env)
        self.wal = WriteAheadLog(name=f"{name}.wal")
        self._tables: dict[str, _Table] = {}
        self._txn_ids = itertools.count(1)
        self._commit_seq = 0
        self._active: dict[int, Transaction] = {}
        self._in_doubt: dict[int, dict[tuple[str, Hashable], Optional[dict]]] = {}
        self._fast_path = env.fast_path
        #: chain length past which a commit prunes inline; 0 = never
        self._gc_chain_threshold = GC_CHAIN_THRESHOLD if env.fast_path else 0
        self._group: Optional[_CommitGroup] = None
        #: highest replication term observed (fencing token watermark)
        self._fence = 0
        #: replicated proposals staged on this engine, awaiting their log
        #: entry's fate; keyed by the globally unique gid
        self._repl_pending: dict[Hashable, Transaction] = {}
        self.stats = DbStats()

    # -- schema ---------------------------------------------------------------

    def create_table(self, name: str, primary_key: str = "id") -> None:
        """Define a table (idempotent re-creation is an error)."""
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        self._tables[name] = _Table(name, primary_key)
        self.wal.append("create_table", (name, primary_key))
        self._flush_wal()

    def create_index(self, table: str, column: str, ordered: bool = False) -> None:
        """Build a secondary index on ``column``.

        ``ordered=True`` additionally maintains a sorted value directory,
        enabling :meth:`range_lookup`.
        """
        self._table(table).create_index(column, ordered=ordered)
        self.wal.append("create_index", (table, column, ordered))
        self._flush_wal()

    def _table(self, name: str) -> _Table:
        try:
            return self._tables[name]
        except KeyError:
            raise NoSuchTable(name) from None

    @property
    def tables(self) -> list[str]:
        return list(self._tables)

    # -- transaction lifecycle ---------------------------------------------------

    def begin(self, isolation: IsolationLevel = IsolationLevel.SERIALIZABLE) -> Transaction:
        """Start a transaction at the current snapshot."""
        txn = Transaction(
            tid=next(self._txn_ids),
            isolation=isolation,
            begin_seq=self._commit_seq,
        )
        self._active[txn.tid] = txn
        self.stats.begun += 1
        return txn

    def _lock(
        self, txn: Transaction, resource: Hashable, mode: LockMode
    ) -> Optional[Generator]:
        """Request a lock for ``txn``.

        Returns ``None`` when the lock is granted in place — the
        uncontended case costs no generator and no future — and otherwise
        the generator the caller must ``yield from`` to wait for it.
        """
        locks = self.locks
        grant = locks.acquire(txn.tid, resource, mode)
        if grant is locks.granted:
            return None
        return self._lock_wait(txn, grant, resource, mode)

    def _lock_wait(
        self, txn: Transaction, grant: Future, resource: Hashable, mode: LockMode
    ) -> Generator:
        """Wait for a request the lock manager did not grant in place.

        This is the 2PL wait the paper blames for 2PC's cost (§4.2),
        surfaced as a ``db.lock_wait`` span only when it happens.  A
        deadlock victim — refused at once because its own request closed
        the waits-for cycle, or later while it waited — ends the span with
        ``outcome="deadlock"`` and aborts ``txn``.
        """
        tracer = self.env.tracer
        span = tracer.begin(
            "db.lock_wait",
            resource=repr(resource),
            mode=mode.value,
            tid=txn.tid,
        )
        try:
            try:
                yield grant
            except TransactionAborted:
                span.annotate(outcome="deadlock")
                raise
            finally:
                tracer.end(span)
        except TransactionAborted:
            self.abort(txn)
            raise

    def _then_lock(
        self, wait: Generator, txn: Transaction, resource: Hashable, mode: LockMode
    ) -> Generator:
        """Finish a blocked lock request, then request the next one."""
        yield from wait
        wait = self._lock(txn, resource, mode)
        if wait is not None:
            yield from wait

    def _read_locks(self, txn: Transaction, table: str, key: Hashable) -> Optional[Generator]:
        """IS on the table, then S on the row (see :meth:`_lock`)."""
        wait = self._lock(txn, ("table", table), LockMode.IS)
        if wait is None:
            return self._lock(txn, ("row", table, key), LockMode.S)
        return self._then_lock(wait, txn, ("row", table, key), LockMode.S)

    def _write_locks(self, txn: Transaction, table: str, key: Hashable) -> Optional[Generator]:
        """IX on the table, then X on the row (see :meth:`_lock`)."""
        wait = self._lock(txn, ("table", table), LockMode.IX)
        if wait is None:
            return self._lock(txn, ("row", table, key), LockMode.X)
        return self._then_lock(wait, txn, ("row", table, key), LockMode.X)

    # -- reads --------------------------------------------------------------------

    def _out(self, row: Optional[dict]) -> Optional[dict]:
        """Hand a row to the caller: a defensive copy only in reference mode."""
        if row is None:
            return None
        return row if self._fast_path else dict(row)

    def get(self, txn: Transaction, table: str, key: Hashable) -> Generator:
        """Read one row (or ``None``); blocks only under SERIALIZABLE."""
        txn.require(TxnStatus.ACTIVE)
        tbl = self._table(table)
        self.stats.reads += 1
        if (table, key) in txn.writes:
            return self._out(txn.writes[(table, key)])
        txn.reads.add((table, key))
        if txn.isolation is IsolationLevel.SERIALIZABLE:
            wait = self._read_locks(txn, table, key)
            if wait is not None:
                yield from wait
            row = tbl.latest(key)
        elif txn.isolation is IsolationLevel.SNAPSHOT:
            row = tbl.read_at(key, txn.begin_seq)
        else:  # READ_COMMITTED
            row = tbl.latest(key)
        return self._out(row)

    def scan(
        self,
        txn: Transaction,
        table: str,
        predicate: Optional[Callable[[dict], bool]] = None,
    ) -> Generator:
        """Return all visible rows (optionally filtered); table-locked
        under SERIALIZABLE for phantom protection."""
        txn.require(TxnStatus.ACTIVE)
        tbl = self._table(table)
        self.stats.reads += 1
        if txn.isolation is IsolationLevel.SERIALIZABLE:
            wait = self._lock(txn, ("table", table), LockMode.S)
            if wait is not None:
                yield from wait
        snapshot = txn.isolation is IsolationLevel.SNAPSHOT
        begin_seq = txn.begin_seq
        out = self._out
        result: list[dict] = []
        overrides: Optional[dict[Hashable, Optional[dict]]] = None
        if txn.writes:
            overrides = {
                wkey: wrow
                for (wtable, wkey), wrow in txn.writes.items()
                if wtable == table
            }
        if overrides:
            for key, chain in tbl.versions.items():
                if key in overrides:
                    row = overrides.pop(key)
                elif snapshot:
                    row = tbl.read_at(key, begin_seq)
                else:
                    row = chain[-1][1]
                if row is not None:
                    result.append(out(row))
            for wrow in overrides.values():
                if wrow is not None:
                    result.append(out(wrow))
        else:
            for chain in tbl.versions.values():
                if snapshot:
                    for version_seq, row in reversed(chain):
                        if version_seq <= begin_seq:
                            break
                    else:
                        row = None
                else:
                    row = chain[-1][1]
                if row is not None:
                    result.append(out(row))
        if predicate is not None:
            result = [r for r in result if predicate(r)]
        return result

    def lookup(self, txn: Transaction, table: str, column: str, value: Any) -> Generator:
        """Equality lookup through a secondary index.

        The index reflects the *latest committed* state; under SNAPSHOT
        isolation a key whose indexed value changed after this
        transaction's snapshot may be missed (a standard limitation of
        latest-state indexes over MVCC heaps).
        """
        txn.require(TxnStatus.ACTIVE)
        tbl = self._table(table)
        if column not in tbl.indexes:
            raise ValueError(f"no index on {table}.{column}")
        if txn.isolation is IsolationLevel.SERIALIZABLE:
            wait = self._lock(txn, ("table", table), LockMode.S)
            if wait is not None:
                yield from wait
        keys = set(tbl.indexes[column].get(value, set()))
        rows = []
        for key in sorted(keys, key=repr):
            row = yield from self.get(txn, table, key)
            if row is not None and row.get(column) == value:
                rows.append(row)
        for (wtable, wkey), wrow in txn.writes.items():
            if wtable == table and wrow is not None and wrow.get(column) == value:
                if wkey not in keys:
                    rows.append(self._out(wrow))
        return rows

    def range_lookup(
        self, txn: Transaction, table: str, column: str, low: Any, high: Any
    ) -> Generator:
        """Rows with ``low <= row[column] < high`` via an ordered index.

        Same visibility caveats as :meth:`lookup` (latest-state index over
        the MVCC heap); SERIALIZABLE takes a table lock for phantom
        protection, matching :meth:`scan`.
        """
        txn.require(TxnStatus.ACTIVE)
        tbl = self._table(table)
        if column not in tbl.ordered_indexes:
            raise ValueError(f"no ordered index on {table}.{column}")
        if txn.isolation is IsolationLevel.SERIALIZABLE:
            wait = self._lock(txn, ("table", table), LockMode.S)
            if wait is not None:
                yield from wait
        rows: list[dict] = []
        seen_keys: set[Hashable] = set()
        for value in tbl.range_values(column, low, high):
            for key in sorted(tbl.indexes[column].get(value, set()), key=repr):
                row = yield from self.get(txn, table, key)
                if row is not None and low <= row.get(column) < high:
                    rows.append(row)
                    seen_keys.add(key)
        for (wtable, wkey), wrow in txn.writes.items():
            if (wtable == table and wkey not in seen_keys and wrow is not None
                    and column in wrow and low <= wrow[column] < high):
                rows.append(self._out(wrow))
        return rows

    # -- writes -------------------------------------------------------------------

    def insert(self, txn: Transaction, table: str, row: dict) -> Generator:
        """Insert a new row; raises :class:`DuplicateKey` if visible."""
        txn.require(TxnStatus.ACTIVE)
        tbl = self._table(table)
        key = row[tbl.primary_key]
        wait = self._write_locks(txn, table, key)
        if wait is not None:
            yield from wait
        if (table, key) in txn.writes:
            existing = txn.writes[(table, key)]
        else:
            existing = tbl.latest(key)
        if existing is not None:
            self.abort(txn)
            raise DuplicateKey(table, key)
        txn.writes[(table, key)] = dict(row)
        self.stats.writes += 1

    def put(self, txn: Transaction, table: str, key: Hashable, row: dict) -> Generator:
        """Insert-or-overwrite a full row."""
        txn.require(TxnStatus.ACTIVE)
        tbl = self._table(table)
        row = dict(row)
        row.setdefault(tbl.primary_key, key)
        wait = self._write_locks(txn, table, key)
        if wait is not None:
            yield from wait
        txn.writes[(table, key)] = row
        self.stats.writes += 1

    def update(self, txn: Transaction, table: str, key: Hashable, changes: dict) -> Generator:
        """Merge ``changes`` into an existing row; returns the new row.

        Raises ``KeyError`` if the row is not visible to this transaction.
        """
        current = yield from self.get(txn, table, key)
        wait = self._write_locks(txn, table, key)
        if wait is not None:
            yield from wait
        if current is None:
            self.abort(txn)
            raise KeyError(f"{table}[{key!r}] does not exist")
        merged = dict(current)
        merged.update(changes)
        txn.writes[(table, key)] = merged
        self.stats.writes += 1
        return self._out(merged)

    def delete(self, txn: Transaction, table: str, key: Hashable) -> Generator:
        """Delete a row (no-op if absent)."""
        txn.require(TxnStatus.ACTIVE)
        self._table(table)
        wait = self._write_locks(txn, table, key)
        if wait is not None:
            yield from wait
        txn.writes[(table, key)] = _DELETED
        self.stats.writes += 1

    # -- declared access: lock everything first, in one order --------------------

    def lock_and_fetch(
        self,
        txn: Transaction,
        refs: Iterable[tuple[str, Hashable]],
        writable: Container[tuple[str, Hashable]],
    ) -> Generator:
        """Lock every ``(table, key)`` in ``refs`` and return their rows.

        Locks are taken in ``(table, repr(key))`` order
        (:func:`~repro.cluster.plan.key_order`): IX+X for refs in
        ``writable``, IS+S for the rest.  Taking X up front means a later
        write needs no S→X upgrade, and two transactions that both lock
        through here acquire in the same order, so they cannot close a
        waits-for cycle.  Returns ``{(table, key): row or None}``: the
        transaction's own buffered write if it has one, else the latest
        committed row.
        """
        txn.require(TxnStatus.ACTIVE)
        rows: dict[tuple[str, Hashable], Optional[dict]] = {}
        writes = txn.writes
        for ref in sorted(refs, key=key_order):
            table, key = ref
            tbl = self._table(table)
            if ref in writable:
                wait = self._write_locks(txn, table, key)
            else:
                txn.reads.add(ref)
                wait = self._read_locks(txn, table, key)
            if wait is not None:
                yield from wait
            self.stats.reads += 1
            rows[ref] = self._out(writes[ref] if ref in writes else tbl.latest(key))
        return rows

    def buffer_write(
        self, txn: Transaction, table: str, key: Hashable, row: Optional[dict]
    ) -> None:
        """Buffer a put (``row``) or delete (``None``) whose X lock
        :meth:`lock_and_fetch` already took; raises if it did not."""
        txn.require(TxnStatus.ACTIVE)
        tbl = self._table(table)
        if self.locks.mode_of(txn.tid, ("row", table, key)) is not LockMode.X:
            raise InvalidTransactionState(
                f"txn {txn.tid} holds no X lock on {table}[{key!r}]"
            )
        if row is not None:
            row = dict(row)
            row.setdefault(tbl.primary_key, key)
        txn.writes[(table, key)] = row
        self.stats.writes += 1

    # -- commit / abort ---------------------------------------------------------

    def _validate(self, txn: Transaction) -> None:
        """Snapshot isolation: first committer wins on each written key."""
        if txn.isolation is not IsolationLevel.SNAPSHOT:
            return
        for (table, key) in txn.writes:
            if self._table(table).latest_seq(key) > txn.begin_seq:
                self.stats.conflicts += 1
                error = WriteConflict(txn.tid, table, key)
                self.abort(txn)
                raise error

    def _flush_wal(self) -> int:
        """Physical fsync, mirrored into :class:`DbStats`."""
        lsn = self.wal.flush()
        self.stats.flush_count = self.wal.flush_count
        return lsn

    def _redo(
        self, tid: Hashable, writes: dict[tuple[str, Hashable], Optional[dict]]
    ) -> dict[tuple[str, Hashable], Optional[dict]]:
        """Append one ``write`` record per row of ``writes``; returns it.

        Rows are frozen (:class:`Row`) in place, so the WAL record and the
        heap version installed from ``writes`` share one immutable object.
        """
        append = self.wal.append
        for ref, row in writes.items():
            if row is not None and row.__class__ is not Row:
                row = writes[ref] = Row(row)
            append("write", (tid, *ref, row))
        return writes

    def _log_writes(self, txn: Transaction, decision: str) -> None:
        """Append the redo records; fsync now, or join the instant's group."""
        self._redo(txn.tid, txn.writes)
        last_lsn = self.wal.append(decision, (txn.tid,))
        if decision == "commit" and self._fast_path:
            group = self._group
            if group is None:
                group = _CommitGroup(
                    self.env.future(label=f"{self.name}.group-flush")
                )
                self._group = group
                self.env.schedule(0.0, self._flush_group, group)
            group.size += 1
            group.last_lsn = last_lsn
        else:
            # Prepares (2PC votes) and reference mode fsync synchronously:
            # a vote must be durable before it reaches the coordinator.
            self._flush_wal()

    def _flush_group(self, group: _CommitGroup) -> None:
        """End-of-instant callback: one fsync for every commit that joined."""
        if self._group is group:
            self._group = None
        if group.crashed:
            return  # the crash already resolved the future; records are gone
        if self.wal.flushed_lsn < group.last_lsn:
            self._flush_wal()
        if group.size > 1:
            self.env.tracer.event(
                "db.wal.group_flush",
                db=self.name,
                batch=group.size,
                lsn=group.last_lsn,
            )
        self.stats.group_flushes += 1
        self.stats.grouped_commits += group.size
        group.future.succeed(group.last_lsn)

    def flush_barrier(self):
        """A future resolved once every acknowledged commit is durable.

        With group commit, commits acknowledged in the current virtual
        instant may still be waiting on the shared group fsync; all callers
        in that instant park on the *same* future (the broker's shared-
        wakeup-future pattern).  Resolves with the durable LSN, or ``None``
        if a crash destroyed the pending group first.
        """
        if self._group is not None:
            return self._group.future
        done = self.env.future(label=f"{self.name}.group-flush")
        done.succeed(self.wal.flushed_lsn)
        return done

    def _install(self, writes: dict[tuple[str, Hashable], Optional[dict]]) -> int:
        self._commit_seq += 1
        seq = self._commit_seq
        retained = len(writes)
        threshold = self._gc_chain_threshold
        horizon = -1
        for (table, key), row in writes.items():
            tbl = self._table(table)
            tbl.install(key, row, seq)
            if threshold:
                chain = tbl.versions[key]
                if len(chain) > threshold:
                    if horizon < 0:
                        horizon = self.gc_horizon()
                    dropped = tbl.prune(key, horizon)
                    if dropped:
                        self.stats.gc_pruned_versions += dropped
                        retained -= dropped
        self.stats.live_versions += retained
        return seq

    def commit(self, txn: Transaction) -> Generator:
        """Validate, log durably, install, and release locks."""
        txn.require(TxnStatus.ACTIVE)
        self._validate(txn)
        if txn.writes or not self._fast_path:
            self._log_writes(txn, "commit")
            self._install(txn.writes)
        # A read-only transaction has nothing to redo, so the commit record
        # and its share of the group fsync are pure overhead.  The commit
        # sequence does not advance either — no version was installed, and
        # every visibility check compares seq *order*, not values.
        txn.status = TxnStatus.COMMITTED
        self._finish(txn.tid)
        self.stats.committed += 1
        return
        yield  # pragma: no cover - generator protocol only

    def abort(self, txn: Transaction) -> None:
        """Roll back: buffered writes are simply discarded."""
        if txn.status in (TxnStatus.COMMITTED, TxnStatus.ABORTED):
            return
        self.wal.append("abort", (txn.tid,))
        txn.status = TxnStatus.ABORTED
        self._finish(txn.tid)
        self.stats.aborted += 1

    def _finish(self, tid: Hashable) -> None:
        self.locks.release_all(tid)
        self._active.pop(tid, None)

    # -- version-chain GC ---------------------------------------------------------

    def gc_horizon(self) -> int:
        """Oldest ``begin_seq`` any live snapshot can read at.

        Prepared (in-doubt) transactions stay in ``_active`` until decided,
        so their snapshots are covered too.
        """
        active = self._active
        if active:
            return min(txn.begin_seq for txn in active.values())
        return self._commit_seq

    def gc(self) -> int:
        """Prune every version chain against the snapshot horizon.

        Never collects a version visible to the oldest active snapshot:
        the newest version at-or-below the horizon is always kept.  Returns
        the number of versions dropped.  No-op in the reference engine.
        """
        if not self._fast_path:
            return 0
        horizon = self.gc_horizon()
        dropped = 0
        for tbl in self._tables.values():
            for key in tbl.versions:
                dropped += tbl.prune(key, horizon)
        if dropped:
            self.stats.gc_pruned_versions += dropped
            self.stats.live_versions -= dropped
        self.stats.gc_passes += 1
        self.env.tracer.event(
            "db.gc", db=self.name, horizon=horizon, pruned=dropped
        )
        return dropped

    def version_count(self) -> int:
        """Retained versions across all tables (tests cross-check the gauge)."""
        return sum(tbl.version_count() for tbl in self._tables.values())

    # -- XA participant interface (used by cross-shard 2PC) -----------------------

    def prepare(self, txn: Transaction) -> Generator:
        """Phase one: validate and make the writes durable; keep locks."""
        txn.require(TxnStatus.ACTIVE)
        self._validate(txn)
        self._log_writes(txn, "prepare")
        txn.status = TxnStatus.PREPARED
        # The write set is shared by reference: _log_writes froze the rows,
        # and a prepared transaction can never buffer another write.
        self._in_doubt[txn.tid] = txn.writes
        return
        yield  # pragma: no cover

    def commit_prepared(self, txn: Transaction) -> None:
        """Phase two, commit decision."""
        txn.require(TxnStatus.PREPARED)
        self._decide(txn.tid, True, txn)

    def abort_prepared(self, txn: Transaction) -> None:
        """Phase two, abort decision."""
        txn.require(TxnStatus.PREPARED)
        self._decide(txn.tid, False, txn)

    def _decide(
        self, tid: Hashable, commit: bool, txn: Optional[Transaction] = None
    ) -> None:
        """Log and fsync the decision on in-doubt set ``tid``, install it
        on commit, and release the locks its holder kept (``txn`` if it is
        still open here, else ``tid`` itself).  A set already decided is
        left alone, so a retried decision is a no-op."""
        writes = self._in_doubt.pop(tid, None)
        if writes is None:
            return
        self.wal.append("commit" if commit else "abort", (tid,))
        self._flush_wal()
        if commit:
            self._install(writes)
            self.stats.committed += 1
        else:
            self.stats.aborted += 1
        if txn is not None:
            txn.status = TxnStatus.COMMITTED if commit else TxnStatus.ABORTED
            tid = txn.tid
        self._finish(tid)

    def _hold(
        self, tid: Hashable, writes: Iterable[tuple[str, Hashable]]
    ) -> None:
        """Take a prepared set's IX+X locks under ``tid``.

        Used where no open transaction holds them: after recovery or a
        snapshot install, and for a prepare applied on a follower.  Keeps
        later writers off rows the set will install at decision time.
        """
        acquire = self.locks.acquire
        for table, key in writes:
            acquire(tid, ("table", table), LockMode.IX)
            acquire(tid, ("row", table, key), LockMode.X)

    def in_doubt(self) -> list[int]:
        """Transaction ids prepared but not yet decided (blocking!)."""
        return list(self._in_doubt)

    # -- checkpoint / crash / recovery ---------------------------------------------

    def checkpoint(self) -> dict:
        """Snapshot committed state into the WAL and truncate the prefix.

        The checkpoint record carries the schema, the latest committed row
        per key, and the in-doubt write sets, so recovery needs nothing
        older than the record itself — the WAL prefix is dropped, bounding
        log memory on long runs.  Old MVCC versions are *not* carried over:
        a crash kills every active snapshot reader anyway.
        """
        self.gc()
        lsn = self.wal.append("checkpoint", self.image())
        self._flush_wal()
        dropped = self.wal.truncate(before_lsn=lsn)
        self.env.tracer.event(
            "db.checkpoint", db=self.name, lsn=lsn, dropped_records=dropped
        )
        return {"lsn": lsn, "wal_records_dropped": dropped}

    def crash(self) -> None:
        """Lose all volatile state; the WAL keeps its flushed prefix.

        A commit group still waiting on its shared fsync dies whole: its
        records sit above the durability horizon, so recovery sees none of
        them — the group is lost atomically, never an interior subset.
        """
        self.wal.crash()
        self._reset()

    def _reset(self) -> None:
        """Drop every volatile structure: the pending commit group (its
        barrier waiters learn durability failed), tables, open and staged
        transactions, in-doubt sets and locks."""
        group = self._group
        if group is not None:
            self._group = None
            group.crashed = True
            group.future.succeed(None)
        self._tables.clear()
        self._active.clear()
        self._in_doubt.clear()
        self._repl_pending.clear()
        self.locks = LockManager(self.env)
        self.stats.live_versions = 0

    def recover(self) -> None:
        """Redo recovery: replay the durable WAL into fresh tables.

        Committed transactions are re-installed in log order; prepared-but-
        undecided transactions become in-doubt again, awaiting their
        coordinator (:meth:`resolve_in_doubt`).  A checkpoint record resets
        the slate to its snapshot before the tail replays.
        """
        pending: dict[int, dict[tuple[str, Hashable], Optional[dict]]] = {}
        self._restore({"tables": {}, "in_doubt": {}})
        for record in self.wal.durable_records():
            if record.kind == "create_table":
                name, primary_key = record.payload
                self._tables[name] = _Table(name, primary_key)
            elif record.kind == "create_index":
                table, column, *rest = record.payload
                ordered = rest[0] if rest else False
                self._table(table).create_index(column, ordered=ordered)
            elif record.kind == "write":
                tid, table, key, row = record.payload
                pending.setdefault(tid, {})[(table, key)] = row
            elif record.kind == "commit":
                (tid,) = record.payload
                writes = pending.pop(tid, None)
                if writes is None:
                    writes = self._in_doubt.pop(tid, {})
                self._install(writes)
            elif record.kind == "abort":
                (tid,) = record.payload
                pending.pop(tid, None)
                self._in_doubt.pop(tid, None)
            elif record.kind == "prepare":
                (tid,) = record.payload
                self._in_doubt[tid] = pending.pop(tid, {})
            elif record.kind == "checkpoint":
                pending.clear()
                self._restore(record.payload)
        # A prepared transaction voted yes: its writes stay latent and its
        # locks stay held until the coordinator's decision.  The lock table
        # died with the crash, so re-acquire here — otherwise a conflicting
        # writer could commit over rows the in-doubt transaction will
        # install at resolve time (a lost update).  Prepared transactions
        # held compatible locks before the crash, so every grant is
        # immediate against the fresh lock manager.
        for tid, writes in self._in_doubt.items():
            self._hold(tid, writes)

    def _restore(self, image: dict) -> None:
        """Replace the tables, rows and in-doubt sets with ``image``'s
        (:meth:`image` format); takes no locks."""
        self._tables.clear()
        self._in_doubt.clear()
        self._commit_seq = 0
        self.stats.live_versions = 0
        restored: dict[tuple[str, Hashable], Optional[dict]] = {}
        for name, meta in image["tables"].items():
            tbl = self._tables[name] = _Table(name, meta["primary_key"])
            for column, ordered in meta["indexes"]:
                tbl.create_index(column, ordered=ordered)
            for key, row in meta["rows"].items():
                restored[(name, key)] = row
        if restored:
            self._install(restored)
        for tid, writes in image["in_doubt"].items():
            self._in_doubt[tid] = dict(writes)

    def resolve_in_doubt(self, tid: int, commit: bool) -> None:
        """Coordinator's decision for a recovered in-doubt transaction."""
        self._decide(tid, commit)

    # -- replication entry points (repro.replication) -------------------------------

    @property
    def fence_token(self) -> int:
        """Highest replication term this engine has observed."""
        return self._fence

    def raise_fence(self, token: int) -> None:
        """Monotonically raise the fencing watermark (survives crashes:
        the replica re-raises its durable term on recovery)."""
        if token > self._fence:
            self._fence = token

    def stage_replicated(
        self, txn: Transaction, gid: Hashable, *, prepared: bool = False
    ) -> tuple:
        """Freeze a transaction's writes for proposal to a replicated log.

        Validates (snapshot first-committer-wins; aborts and raises on
        conflict), freezes the write set, and parks the transaction in
        ``_repl_pending`` — *keeping its locks held* — until the log entry
        carrying the writes either applies here (:meth:`apply_replicated`
        settles it) or is discarded (:meth:`discard_replicated`).  Holding
        the locks across the quorum round is what keeps a concurrent
        writer from sneaking between validation and install.
        """
        txn.require(TxnStatus.ACTIVE)
        self._validate(txn)
        writes = txn.writes
        for (table, key), row in writes.items():
            if row is not None and row.__class__ is not Row:
                writes[(table, key)] = Row(row)
        self._repl_pending[gid] = txn
        if prepared:
            txn.status = TxnStatus.PREPARED
        return tuple(writes.items())

    def apply_replicated(
        self,
        command: tuple,
        token: int,
        ack: Optional[Any] = None,
        ack_value: Optional[int] = None,
    ) -> None:
        """Apply one committed log entry; the fencing check lives here.

        ``command`` is the log entry's command: ``("commit", gid,
        writes)``, ``("prepare", gid, writes)`` or ``("decide", gid,
        commit)``, with ``writes`` the ``((table, key), row)`` pairs
        :meth:`stage_replicated` returned.  A committed entry ALWAYS
        installs — committedness was decided by the quorum, not by this
        engine — but the *acknowledgement* is refused when the entry's
        proposal term (``token``) is below the engine's fence: the
        proposing leader was deposed before it could learn the outcome,
        so it must not report success (:class:`FencedOut`).

        Synchronous and WAL-durable per entry, so a replica's
        ``applied_index`` and its engine's recovered state always agree.
        """
        kind, gid, body = command
        if kind == "decide":
            # a duplicate decide (idempotent retry) finds nothing to do
            self._decide(gid, body, self._repl_pending.pop(gid, None))
        elif kind in ("commit", "prepare"):
            pending = self._repl_pending.get(gid)
            # the proposer's staged write set is the entry's, rows frozen
            writes = self._redo(gid, dict(body) if pending is None else pending.writes)
            self.wal.append(kind, (gid,))
            self._flush_wal()
            if kind == "prepare":
                self._in_doubt[gid] = writes
                if pending is None:
                    # Follower apply: no interactive branch holds these
                    # locks, so the gid takes them (recovery-style) to
                    # keep post-failover writers off the in-doubt rows.
                    self._hold(gid, writes)
            else:
                self._install(writes)
                self.stats.committed += 1
                if pending is not None:
                    del self._repl_pending[gid]
                    pending.status = TxnStatus.COMMITTED
                    self._finish(pending.tid)
        else:
            raise ValueError(f"unknown replicated command kind {kind!r}")
        self.stats.replicated_applies += 1
        if ack is not None:
            if token < self._fence:
                self.stats.fenced_acks += 1
                ack.try_succeed(("err", FencedOut(gid, token, self._fence)))
            else:
                ack.try_succeed(("ok", ack_value))

    def discard_replicated(self, gid: Hashable) -> None:
        """A staged proposal's entry will never commit: roll it back."""
        txn = self._repl_pending.pop(gid, None)
        if txn is not None and txn.status in (
            TxnStatus.ACTIVE, TxnStatus.PREPARED
        ):
            self.wal.append("abort", (txn.tid,))
            txn.status = TxnStatus.ABORTED
            self._finish(txn.tid)
            self.stats.aborted += 1
        if self._in_doubt.pop(gid, None) is not None:
            self.locks.release_all(gid)

    def image(self) -> dict:
        """Committed state in the durable checkpoint format.

        ``{"tables": {name: {"primary_key", "indexes", "rows"}},
        "in_doubt": {tid: writes}}``: the schema, the latest committed
        row per key and the in-doubt write sets.  :meth:`checkpoint` logs
        it; a replica ships it as an InstallSnapshot payload, which the
        receiver makes durable (:meth:`install_snapshot`).  Old MVCC
        versions are not carried over.
        """
        return {
            "tables": {
                name: {
                    "primary_key": tbl.primary_key,
                    "indexes": [
                        (column, column in tbl.ordered_indexes)
                        for column in tbl.indexes
                    ],
                    "rows": {
                        key: chain[-1][1]
                        for key, chain in tbl.versions.items()
                        if chain[-1][1] is not None
                    },
                }
                for name, tbl in self._tables.items()
            },
            "in_doubt": {tid: dict(w) for tid, w in self._in_doubt.items()},
        }

    def install_snapshot(self, payload: dict) -> None:
        """Replace all state with a leader's :meth:`image`, durably.

        Used when the log alone cannot catch a replica up (compaction, or
        broken-mode divergence below the applied prefix).  The snapshot is
        logged as a checkpoint record and the WAL truncated behind it, so
        a later crash recovers to exactly the installed state.  Any state
        the snapshot does not contain — including writes a broken leader
        applied without quorum — is erased.
        """
        for txn in self._repl_pending.values():
            # Stale staged proposals cannot survive a resync.
            txn.status = TxnStatus.ABORTED
        self._reset()
        lsn = self.wal.append("checkpoint", payload)
        self._flush_wal()
        self.wal.truncate(before_lsn=lsn)
        self._restore(payload)
        for tid, writes in self._in_doubt.items():
            self._hold(tid, writes)
        self.env.tracer.event(
            "db.install_snapshot", db=self.name, lsn=lsn
        )

    # -- non-transactional helpers (test/bench setup) -------------------------------

    def load(self, table: str, rows: Iterable[dict]) -> None:
        """Bulk-load committed rows outside any transaction (setup only)."""
        primary_key = self._table(table).primary_key
        writes = self._redo(0, {(table, row[primary_key]): row for row in rows})
        self.wal.append("commit", (0,))
        self._flush_wal()
        self._install(writes)

    def read_latest(self, table: str, key: Hashable) -> Optional[dict]:
        """Dirty read of the latest committed version (metrics/invariants)."""
        return self._out(self._table(table).latest(key))

    def all_rows(self, table: str) -> list[dict]:
        """All live committed rows (invariant checking)."""
        tbl = self._table(table)
        out = self._out
        return [
            out(chain[-1][1])
            for chain in tbl.versions.values()
            if chain[-1][1] is not None
        ]
