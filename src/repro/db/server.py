"""A database deployed as a network service with realistic costs.

Wraps a :class:`~repro.db.engine.Database` behind per-operation service time
and a connection-pool semaphore, so that *shared database* deployments show
the resource contention the paper warns about (§3.3: "sharing database
resources ... jeopardizing performance isolation") and every remote access
costs a round trip.
"""

from __future__ import annotations

from typing import Any, Callable, Container, Generator, Hashable, Iterable, Optional

from repro.db.engine import Database, IsolationLevel, Transaction
from repro.net.latency import Latency, Sampler
from repro.sim import Environment, Semaphore


class DatabaseServer:
    """Latency- and concurrency-charging facade over an engine.

    Parameters
    ----------
    connections:
        Size of the connection pool.  Every transaction holds a connection
        from ``begin`` to ``commit``/``abort`` — the contention point that
        a noisy tenant saturates in a shared-database deployment.
    op_service_time:
        Sampler for per-operation processing time (CPU + disk of the
        database node).
    network_rtt:
        Sampler for the client's round trip to the database.  An
        interactive client (the statement methods below) pays it once per
        operation, as for a remote (external-state) database; a local
        transaction shipped whole (:meth:`ship`) pays it once per attempt.

    The engine takes its fast-path mode from ``env``.  An already-granted
    pool connection is consumed without a suspension round trip, as an
    engine lock is.
    """

    def __init__(
        self,
        env: Environment,
        name: str = "db",
        connections: int = 32,
        op_service_time: Optional[Sampler] = None,
        network_rtt: Optional[Sampler] = None,
    ) -> None:
        self.env = env
        self.engine = Database(env, name=name)
        self.name = name
        self._pool = Semaphore(env, connections, label=f"{name}.pool")
        self._service = op_service_time or Latency.local_disk()
        self._rtt = network_rtt or Latency.intra_zone()
        self._rng = env.stream(f"dbserver:{name}")

    # -- schema (instant, setup-time) -----------------------------------------

    def create_table(self, name: str, primary_key: str = "id") -> None:
        self.engine.create_table(name, primary_key)

    def create_index(self, table: str, column: str, ordered: bool = False) -> None:
        self.engine.create_index(table, column, ordered=ordered)

    def load(self, table: str, rows: list[dict]) -> None:
        self.engine.load(table, rows)

    # -- transactional API ------------------------------------------------------

    # The public operations below are plain functions returning the inner
    # generator (callers drive them with ``yield from`` either way), so an
    # untraced run pays neither the span bookkeeping nor the extra
    # delegating generator frame per operation — the per-op overhead this
    # facade adds is exactly one timeout yield plus two RNG draws.

    def _traced(self, name: str, gen: Generator, **tags: Any) -> Generator:
        """Run ``gen`` under a causal span (one span per client-visible op)."""
        tracer = self.env.tracer
        span = tracer.begin(name, db=self.name, **tags)
        try:
            return (yield from gen)
        finally:
            tracer.end(span)

    def begin(self, isolation: IsolationLevel = IsolationLevel.SERIALIZABLE) -> Generator:
        """Open a transaction, waiting for a pooled connection."""
        gen = self._begin(isolation)
        if self.env.tracer.enabled:
            return self._traced("db.begin", gen, isolation=isolation.value)
        return gen

    def _begin(self, isolation: IsolationLevel) -> Generator:
        grant = self._pool.acquire()
        if not grant.done:
            # Pool exhausted: surface the queueing delay as its own span —
            # the §3.3 performance-isolation contention made visible.
            tracer = self.env.tracer
            wait = tracer.begin("db.pool_wait", db=self.name)
            try:
                yield grant
            finally:
                tracer.end(wait)
        yield self.env.timeout(self._rtt(self._rng) + self._service(self._rng))
        return self.engine.begin(isolation)

    def get(self, txn: Transaction, table: str, key: Hashable) -> Generator:
        gen = self._get(txn, table, key)
        if self.env.tracer.enabled:
            return self._traced("db.get", gen, table=table)
        return gen

    def _get(self, txn: Transaction, table: str, key: Hashable) -> Generator:
        yield self.env.timeout(self._rtt(self._rng) + self._service(self._rng))
        return (yield from self.engine.get(txn, table, key))

    def lock_and_fetch(
        self,
        txn: Transaction,
        refs: Iterable[tuple[str, Hashable]],
        writable: Container[tuple[str, Hashable]],
    ) -> Generator:
        """Lock and read a declared key set in one request, charged as one
        operation (:meth:`~repro.db.engine.Database.lock_and_fetch`)."""
        gen = self._lock_and_fetch(txn, refs, writable)
        if self.env.tracer.enabled:
            return self._traced("db.lock_and_fetch", gen)
        return gen

    def _lock_and_fetch(
        self, txn: Transaction, refs: Iterable, writable: Container
    ) -> Generator:
        yield self.env.timeout(self._rtt(self._rng) + self._service(self._rng))
        return (yield from self.engine.lock_and_fetch(txn, refs, writable))

    def scan(self, txn: Transaction, table: str, predicate=None) -> Generator:
        gen = self._scan(txn, table, predicate)
        if self.env.tracer.enabled:
            return self._traced("db.scan", gen, table=table)
        return gen

    def _scan(self, txn: Transaction, table: str, predicate) -> Generator:
        yield self.env.timeout(self._rtt(self._rng) + self._service(self._rng))
        rows = yield from self.engine.scan(txn, table, predicate)
        # Result-set transfer cost: scans are not free the way gets are.
        yield self.env.timeout(0.002 * len(rows))
        return rows

    def lookup(self, txn: Transaction, table: str, column: str, value: Any) -> Generator:
        gen = self._lookup(txn, table, column, value)
        if self.env.tracer.enabled:
            return self._traced("db.lookup", gen, table=table)
        return gen

    def _lookup(self, txn: Transaction, table: str, column: str, value: Any) -> Generator:
        yield self.env.timeout(self._rtt(self._rng) + self._service(self._rng))
        return (yield from self.engine.lookup(txn, table, column, value))

    def range_lookup(
        self, txn: Transaction, table: str, column: str, low: Any, high: Any
    ) -> Generator:
        gen = self._range_lookup(txn, table, column, low, high)
        if self.env.tracer.enabled:
            return self._traced("db.range_lookup", gen, table=table)
        return gen

    def _range_lookup(
        self, txn: Transaction, table: str, column: str, low: Any, high: Any
    ) -> Generator:
        yield self.env.timeout(self._rtt(self._rng) + self._service(self._rng))
        rows = yield from self.engine.range_lookup(txn, table, column, low, high)
        yield self.env.timeout(0.002 * len(rows))
        return rows

    def insert(self, txn: Transaction, table: str, row: dict) -> Generator:
        gen = self._insert(txn, table, row)
        if self.env.tracer.enabled:
            return self._traced("db.insert", gen, table=table)
        return gen

    def _insert(self, txn: Transaction, table: str, row: dict) -> Generator:
        yield self.env.timeout(self._rtt(self._rng) + self._service(self._rng))
        yield from self.engine.insert(txn, table, row)

    def put(self, txn: Transaction, table: str, key: Hashable, row: dict) -> Generator:
        gen = self._put(txn, table, key, row)
        if self.env.tracer.enabled:
            return self._traced("db.put", gen, table=table)
        return gen

    def _put(self, txn: Transaction, table: str, key: Hashable, row: dict) -> Generator:
        yield self.env.timeout(self._rtt(self._rng) + self._service(self._rng))
        yield from self.engine.put(txn, table, key, row)

    def update(self, txn: Transaction, table: str, key: Hashable, changes: dict) -> Generator:
        gen = self._update(txn, table, key, changes)
        if self.env.tracer.enabled:
            return self._traced("db.update", gen, table=table)
        return gen

    def _update(self, txn: Transaction, table: str, key: Hashable, changes: dict) -> Generator:
        yield self.env.timeout(self._rtt(self._rng) + self._service(self._rng))
        return (yield from self.engine.update(txn, table, key, changes))

    def delete(self, txn: Transaction, table: str, key: Hashable) -> Generator:
        gen = self._delete(txn, table, key)
        if self.env.tracer.enabled:
            return self._traced("db.delete", gen, table=table)
        return gen

    def _delete(self, txn: Transaction, table: str, key: Hashable) -> Generator:
        yield self.env.timeout(self._rtt(self._rng) + self._service(self._rng))
        yield from self.engine.delete(txn, table, key)

    def commit(self, txn: Transaction) -> Generator:
        gen = self._commit(txn)
        if self.env.tracer.enabled:
            return self._traced("db.commit", gen)
        return gen

    def _commit(self, txn: Transaction) -> Generator:
        try:
            yield self.env.timeout(self._rtt(self._rng) + self._service(self._rng))
            yield from self.engine.commit(txn)
        finally:
            self._release_connection(txn)

    def abort(self, txn: Transaction) -> Generator:
        gen = self._abort(txn)
        if self.env.tracer.enabled:
            return self._traced("db.abort", gen)
        return gen

    def _abort(self, txn: Transaction) -> Generator:
        try:
            yield self.env.timeout(self._rtt(self._rng) + self._service(self._rng))
            self.engine.abort(txn)
        finally:
            self._release_connection(txn)

    def _released(self, txn: Transaction) -> bool:
        return getattr(txn, "_conn_released", False)

    def _release_connection(self, txn: Transaction) -> None:
        if not self._released(txn):
            txn._conn_released = True  # type: ignore[attr-defined]
            self._pool.release()

    # -- one local transaction as one request -------------------------------------

    def ship(self, body: Callable, prepare: bool = False) -> Generator:
        """Run ``body(request)`` as one local transaction sent in a single
        request, the way a stored procedure runs.

        The attempt pays ``network_rtt`` once, inside its begin's wait;
        every later statement (the body's ``request.get``/``put``/
        ``delete`` and the closing commit, prepare or abort) pays only its
        service time.  Locks, validation and durability are the engine's,
        unchanged.  Returns the body's result, or with ``prepare`` the
        prepared transaction (decide it with :meth:`commit_prepared` /
        :meth:`abort_prepared`).  Any exception aborts the transaction and
        propagates: a retry is a new request and pays the round trip again.
        """
        txn = yield from self.begin()
        request = _Shipped(self, txn)
        try:
            result = yield from body(request)
            if prepare:
                yield from request.prepare()
                return txn
            yield from request.commit()
            return result
        except Exception:
            yield from request.abort()
            raise

    # -- XA -----------------------------------------------------------------------

    def prepare(self, txn: Transaction) -> Generator:
        gen = self._prepare(txn)
        if self.env.tracer.enabled:
            return self._traced("db.prepare", gen)
        return gen

    def _prepare(self, txn: Transaction) -> Generator:
        yield self.env.timeout(self._rtt(self._rng) + self._service(self._rng))
        yield from self.engine.prepare(txn)

    def commit_prepared(self, txn: Transaction) -> Generator:
        gen = self._commit_prepared(txn)
        if self.env.tracer.enabled:
            return self._traced("db.commit_prepared", gen)
        return gen

    def _commit_prepared(self, txn: Transaction) -> Generator:
        try:
            yield self.env.timeout(self._rtt(self._rng) + self._service(self._rng))
            self.engine.commit_prepared(txn)
        finally:
            self._release_connection(txn)

    def abort_prepared(self, txn: Transaction) -> Generator:
        gen = self._abort_prepared(txn)
        if self.env.tracer.enabled:
            return self._traced("db.abort_prepared", gen)
        return gen

    def _abort_prepared(self, txn: Transaction) -> Generator:
        try:
            yield self.env.timeout(self._rtt(self._rng) + self._service(self._rng))
            self.engine.abort_prepared(txn)
        finally:
            self._release_connection(txn)


class _Shipped:
    """The statements of one shipped local transaction
    (:meth:`DatabaseServer.ship`): each pays its service time only, the
    round trip having been paid by the begin."""

    def __init__(self, server: DatabaseServer, txn: Transaction) -> None:
        self.server = server
        self.txn = txn

    def _statement(self, name: str, work: Generator, **tags: Any) -> Generator:
        gen = self._charged(work)
        if self.server.env.tracer.enabled:
            return self.server._traced(name, gen, **tags)
        return gen

    def _charged(self, work: Generator) -> Generator:
        server = self.server
        yield server.env.timeout(server._service(server._rng))
        return (yield from work)

    def get(self, table: str, key: Hashable) -> Generator:
        work = self.server.engine.get(self.txn, table, key)
        return self._statement("db.get", work, table=table)

    def put(self, table: str, key: Hashable, row: dict) -> Generator:
        work = self.server.engine.put(self.txn, table, key, row)
        return self._statement("db.put", work, table=table)

    def delete(self, table: str, key: Hashable) -> Generator:
        work = self.server.engine.delete(self.txn, table, key)
        return self._statement("db.delete", work, table=table)

    def prepare(self) -> Generator:
        return self._statement("db.prepare", self.server.engine.prepare(self.txn))

    def commit(self) -> Generator:
        try:
            yield from self._statement("db.commit", self.server.engine.commit(self.txn))
        finally:
            self.server._release_connection(self.txn)

    def abort(self) -> Generator:
        try:
            yield from self._statement("db.abort", self._abort())
        finally:
            self.server._release_connection(self.txn)

    def _abort(self) -> Generator:
        self.server.engine.abort(self.txn)
        return
        yield  # pragma: no cover
