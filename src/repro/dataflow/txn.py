"""Deterministic transactional dataflow: a Styx-like SFaaS engine.

The paper's own answer (§3.1, refs [51, 52]) to the open problem that
"exactly-once processing guarantees alone cannot ensure transactional
isolation": put stateful functions *on* a dataflow engine and make
transactions deterministic.

Mechanics reproduced here:

- a **sequencer** assigns every incoming transactional request a global
  TID and groups requests into **epochs**;
- within an epoch, transactions execute in TID order; non-conflicting
  transactions (disjoint declared key sets) run in parallel *waves*
  (Calvin-style deterministic locking — no runtime deadlocks, no 2PC);
- a transaction is a tree of function invocations: functions own per-key
  state and reach other keys only by calling functions on them
  (cross-partition calls are dataflow messages, charged a hop);
- all of a transaction's writes are buffered and installed only if its
  root invocation completes — atomicity with rollback on abort;
- results are released at **epoch commit** (transactional output), and a
  durable result log makes replayed epochs release nothing twice.  Epochs
  commit contiguous runs of the TID-ordered input log, so the released
  TIDs are always a prefix and the log is one high-water mark;
- every N epochs the engine cuts a **delta checkpoint** — only the keys
  written since the previous one — at the epoch boundary and hands it to
  one background **uploader**, which puts deltas in position order while
  later epochs run and truncates the input log at each delta's position
  once its put has landed; a background **compactor** folds the delta
  chain into a base image.  Neither is on the epoch path.  On failure
  the engine restores base + deltas and deterministically replays the log
  suffix — exactly-once end to end, *with* serializable isolation, at a
  durability cost proportional to one checkpoint interval, not to the
  history.

Checkpoint objects are immutable and named by the absolute input-log
position they are durable through (``delta-<position>``,
``base-<position>``).  A name is never reused for different content, so an
upload that was in flight when the engine crashed is harmless whenever it
lands: restore takes the newest base and folds every delta above it in
position order, and a delta is only deleted once a base at or above its
position is durable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Generator, Hashable, Optional

from repro.cluster import stable_hash
from repro.cluster.plan import conflict_waves
from repro.net.latency import Latency
from repro.sim import CrashScope, Environment, Future, all_of
from repro.storage.object_store import ObjectStore, ObjectStoreServer

#: Functions: fn(ctx, key, payload) -> Generator returning the result.
TxnFunction = Callable[["TxnContext", Hashable, Any], Generator]

#: state partitions; a call into another partition is a dataflow hop
NUM_PARTITIONS = 4
#: one dataflow hop between partitions, each way
HOP_LATENCY_MS = 0.5
#: the execution cost of one function invocation
WORK_MS = 0.1
#: the epoch commit's flush
EPOCH_COMMIT_MS = 1.0

_BUCKET = "txn-dataflow"
#: Deltas allowed above the base before the compactor folds them into it.
_COMPACT_AFTER = 8


def _object_name(kind: str, position: int) -> str:
    """Zero-padded, so an object-store listing sorts names by position."""
    return f"{kind}-{position:012d}"


def _position_of(name: str) -> int:
    return int(name.rpartition("-")[2])


class TxnAbort(Exception):
    """Raised by a function to abort its whole transaction."""


@dataclass
class _Request:
    tid: int
    fn_name: str
    key: Hashable
    payload: Any
    #: the declared key set; None for an undeclared transaction, which
    #: serializes against everything
    keys: Optional[frozenset]
    future: Optional[Future]  # None after recovery replay


@dataclass
class TxnDataflowStats:
    submitted: int = 0
    committed: int = 0
    aborted: int = 0
    epochs: int = 0
    waves: int = 0
    cross_partition_calls: int = 0
    checkpoints: int = 0  # delta checkpoints whose put has landed
    checkpoint_keys: int = 0  # dirty keys uploaded by delta checkpoints
    peak_uploads_queued: int = 0  # most cut deltas not yet landed, in flight included
    peak_log_length: int = 0  # high-water mark of the (truncated) input log
    log_truncated: int = 0  # input-log entries dropped below a durable delta
    compactions: int = 0
    recoveries: int = 0
    replayed: int = 0


class TxnContext:
    """A transaction's view of state and the call fabric."""

    def __init__(self, engine: "TransactionalDataflow", root_key: Hashable) -> None:
        self._engine = engine
        self._buffer: dict[Hashable, Any] = {}
        self._deleted: set[Hashable] = set()
        self._root_key = root_key
        self.env = engine.env

    @cached_property
    def _root_partition(self) -> int:
        return self._engine._partition(self._root_key)

    # -- state access (current function's key is enforced by convention) --------

    def get(self, key: Hashable, default: Any = None) -> Any:
        if key in self._deleted:
            return default
        if key in self._buffer:
            return self._buffer[key]
        value = self._engine._read_state(key)
        return value if value is not None else default

    def put(self, key: Hashable, value: Any) -> None:
        self._deleted.discard(key)
        self._buffer[key] = value

    def delete(self, key: Hashable) -> None:
        self._buffer.pop(key, None)
        self._deleted.add(key)

    def call(self, fn_name: str, key: Hashable, payload: Any = None) -> Generator:
        """Invoke another function within this transaction.

        A different partition costs a dataflow hop in each direction.
        """
        engine = self._engine
        fn = engine._functions.get(fn_name)
        if fn is None:
            raise KeyError(f"no function named {fn_name!r}")
        remote = engine._partition(key) != self._root_partition
        if remote:
            engine.stats.cross_partition_calls += 1
            yield engine.env.timeout(HOP_LATENCY_MS)
        yield engine.env.timeout(WORK_MS)
        result = yield from fn(self, key, payload)
        if remote:
            yield engine.env.timeout(HOP_LATENCY_MS)
        return result


class TransactionalDataflow:
    """The engine: sequencer + epoch executor + delta checkpoints over a compacted base.

    Durable state is the input log (held from the newest durable delta on)
    plus, in bucket ``txn-dataflow`` of ``checkpoint_store``, one
    ``base-<position>`` image and the ``delta-<position>`` objects above
    it.  Every ``checkpoint_every`` epochs the epoch loop cuts the keys
    written since the last delta and queues them; one background uploader
    puts the queued deltas in position order, each charged by its number
    of keys, while later epochs run.  Another background process folds
    more than ``_COMPACT_AFTER`` deltas into a new base.
    :meth:`recover` lists the bucket, reads the newest base and the deltas
    above it, and replays the log suffix as one epoch.
    """

    def __init__(
        self,
        env: Environment,
        epoch_interval: float = 10.0,
        checkpoint_every: int = 10,
        checkpoint_store: Optional[ObjectStoreServer] = None,
    ) -> None:
        self.env = env
        self.epoch_interval = epoch_interval
        self.checkpoint_every = checkpoint_every
        self.checkpoint_store = checkpoint_store or ObjectStoreServer(
            env, ObjectStore(), latency=Latency.object_store()
        )
        self._compaction_store = self.checkpoint_store.client(
            "txn-dataflow.compaction"
        )
        self._functions: dict[str, TxnFunction] = {}
        self._state: list[dict[Hashable, Any]] = self._blank_partitions()
        #: per partition, the keys written since the last checkpoint (a dict
        #: for its insertion order: deltas must not depend on the hash seed)
        self._dirty: list[dict[Hashable, None]] = self._blank_partitions()
        #: durable sequencer log, truncated below the newest durable delta:
        #: entry ``i`` sits at absolute position ``_log_base + i``
        self._input_log: list[_Request] = []
        self._log_base = 0
        self._pending: list[_Request] = []
        self._released_through = 0  # durable result log: every tid <= this is out
        self._epochs_done = 0
        self._chain: list[int] = []  # positions of durable deltas not yet in a base
        #: cut deltas not yet landed, ``(position, delta, keys)`` in position
        #: order; the head is in flight, and the uploader runs while it is
        #: not empty
        self._uploads: deque[tuple[int, dict, int]] = deque()
        self._compacting = False
        self._running = False
        #: the live incarnation's epoch loop, transactions, upload and compaction
        self._scope = CrashScope(env)
        self.stats = TxnDataflowStats()

    # -- registration / submission -----------------------------------------------

    def register(self, fn_name: str, fn: TxnFunction) -> None:
        if fn_name in self._functions:
            raise ValueError(f"function {fn_name!r} already registered")
        self._functions[fn_name] = fn

    def function(self, fn_name: str):
        """Decorator form of :meth:`register`."""

        def wrap(fn: TxnFunction) -> TxnFunction:
            self.register(fn_name, fn)
            return fn

        return wrap

    def submit(
        self,
        fn_name: str,
        key: Hashable,
        payload: Any = None,
        keys: Optional[list[Hashable]] = None,
    ) -> Future:
        """Enqueue a transaction; the future resolves at its epoch commit.

        ``keys`` declares the transaction's full key set, enabling
        parallel execution of non-conflicting transactions; undeclared
        transactions conservatively serialize behind everything.
        """
        if fn_name not in self._functions:
            raise KeyError(f"no function named {fn_name!r}")
        request = _Request(
            tid=self.env.next_id("dataflow-tid"),
            fn_name=fn_name,
            key=key,
            payload=payload,
            keys=frozenset(keys) if keys is not None else None,
            future=self.env.future(label=f"txn:{fn_name}:{key}"),
        )
        self._input_log.append(request)
        self._pending.append(request)
        self.stats.submitted += 1
        if len(self._input_log) > self.stats.peak_log_length:
            self.stats.peak_log_length = len(self._input_log)
        return request.future

    # -- state --------------------------------------------------------------------

    def _blank_partitions(self) -> list[dict]:
        return [{} for _ in range(NUM_PARTITIONS)]

    def _partition(self, key: Hashable) -> int:
        return stable_hash(key) % NUM_PARTITIONS

    def _read_state(self, key: Hashable) -> Any:
        return self._state[self._partition(key)].get(key)

    def _install(self, buffer: dict[Hashable, Any], deleted: set[Hashable]) -> None:
        for key, value in buffer.items():
            partition = self._partition(key)
            self._state[partition][key] = value
            self._dirty[partition][key] = None
        for key in deleted:
            partition = self._partition(key)
            self._state[partition].pop(key, None)
            self._dirty[partition][key] = None

    def state_of(self, key: Hashable) -> Any:
        """Committed state peek (tests/invariants)."""
        return self._read_state(key)

    def all_state(self) -> dict[Hashable, Any]:
        merged: dict[Hashable, Any] = {}
        for partition in self._state:
            merged.update(partition)
        return dict(merged)

    # -- execution -------------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            raise RuntimeError("engine already running")
        self._running = True
        self._scope.spawn(self._epoch_loop(), "txn-dataflow.epochs")

    def _epoch_loop(self) -> Generator:
        while True:
            yield self.env.timeout(self.epoch_interval)
            if self._pending:
                batch, self._pending = self._pending, []
                yield from self._run_epoch(batch, replay=False)

    def _run_epoch(self, batch: list[_Request], replay: bool) -> Generator:
        """Execute one epoch: conflict waves, then atomic commit."""
        outcomes: list[tuple[_Request, bool, Any]] = []
        for wave in conflict_waves(batch, lambda request: request.keys):
            self.stats.waves += 1
            running = [
                self._scope.spawn(self._execute_one(request), f"txn-{request.tid}")
                for request in wave
            ]
            outcomes.extend((yield all_of(self.env, running)))
        # Epoch commit: flush, record results durably, release futures.
        yield self.env.timeout(EPOCH_COMMIT_MS)
        self._epochs_done += 1
        self.stats.epochs += 1
        released = self._released_through
        for request, ok, result in outcomes:
            if ok:
                self.stats.committed += 1
            else:
                self.stats.aborted += 1
            if request.future is not None and request.tid > released:
                if ok:
                    request.future.try_succeed(result)
                else:
                    request.future.try_fail(result)
        # The batch is a contiguous run of the tid-ordered log.
        self._released_through = max(released, batch[-1].tid)
        if not replay and self._epochs_done % self.checkpoint_every == 0:
            self._checkpoint()

    def _execute_one(self, request: _Request) -> Generator:
        ctx = TxnContext(self, request.key)
        fn = self._functions[request.fn_name]
        try:
            yield self.env.timeout(WORK_MS)
            result = yield from fn(ctx, request.key, request.payload)
        except TxnAbort as abort:
            return (request, False, abort)
        except Exception as exc:  # noqa: BLE001 - aborts the transaction
            return (request, False, exc)
        self._install(ctx._buffer, ctx._deleted)
        return (request, True, result)

    # -- durability --------------------------------------------------------------------

    def _checkpoint(self) -> None:
        """Cut the keys written since the last checkpoint and queue their upload.

        The cut is synchronous, at the epoch boundary, so the delta is this
        epoch's and later epochs write into a fresh dirty set; only the put
        runs in the background, in :meth:`_upload`.
        """
        position = self._log_base + len(self._input_log) - len(self._pending)
        delta = {
            "puts": [
                {key: state[key] for key in dirty if key in state}
                for state, dirty in zip(self._state, self._dirty)
            ],
            "deletes": [
                [key for key in dirty if key not in state]
                for state, dirty in zip(self._state, self._dirty)
            ],
            "log_position": position,
            "released_through": self._released_through,
            "epochs_done": self._epochs_done,
        }
        keys = sum(len(dirty) for dirty in self._dirty)
        self._dirty = self._blank_partitions()
        self._uploads.append((position, delta, keys))
        if len(self._uploads) > self.stats.peak_uploads_queued:
            self.stats.peak_uploads_queued = len(self._uploads)
        if len(self._uploads) == 1:
            self._scope.spawn(self._upload(), "txn-dataflow.upload")

    def _upload(self) -> Generator:
        """Put the queued deltas one at a time, in position order.

        A delta counts only once its put has landed: then it joins the
        chain, the log is truncated below it and compaction may fold it.
        One uploader keeps the chain in position order, and a delta never
        lands before the one below it, whose keys it does not carry.
        """
        while self._uploads:
            position, delta, keys = self._uploads[0]
            yield from self.checkpoint_store.put(
                _BUCKET, _object_name("delta", position), delta, size=keys + 1
            )
            self._uploads.popleft()
            self._chain.append(position)
            self._truncate_log(position)
            self.stats.checkpoints += 1
            self.stats.checkpoint_keys += keys
            if len(self._chain) > _COMPACT_AFTER and not self._compacting:
                self._compacting = True
                self._scope.spawn(self._compact(), "txn-dataflow.compaction")

    def _truncate_log(self, position: int) -> None:
        """Drop the log below ``position``, which a durable checkpoint covers."""
        covered = position - self._log_base
        if covered > 0:
            del self._input_log[:covered]
            self._log_base = position
            self.stats.log_truncated += covered

    def _restore(self, store: ObjectStoreServer) -> Generator:
        """Read the newest base and fold every delta above it, in order.

        Returns ``(image, folded, names)``: a private copy of the restored
        image, the positions of the deltas folded into it, and the listing.
        Folding a delta twice is harmless: it carries values, not changes.
        """
        names = yield from store.list(_BUCKET)
        image = {
            "state": self._blank_partitions(),
            "log_position": 0,
            "released_through": 0,
            "epochs_done": 0,
        }
        bases = [name for name in names if name.startswith("base-")]
        if bases:
            base = yield from store.get(_BUCKET, bases[-1])
            image = dict(base, state=[dict(partition) for partition in base["state"]])
        folded = []
        for name in names:
            if not name.startswith("delta-"):
                continue
            if _position_of(name) <= image["log_position"]:
                continue  # already in the base; its deletion had not landed yet
            delta = yield from store.get(_BUCKET, name)
            for state, puts, deletes in zip(
                image["state"], delta["puts"], delta["deletes"]
            ):
                state.update(puts)
                for key in deletes:
                    state.pop(key, None)
            for field_name in ("log_position", "released_through", "epochs_done"):
                image[field_name] = delta[field_name]
            folded.append(delta["log_position"])
        return image, folded, names

    def _compact(self) -> Generator:
        """Fold the delta chain into a new base, in the background.

        The new base is durable before anything it covers is deleted, so a
        crash at any point leaves a restorable set of objects.
        """
        store = self._compaction_store
        while len(self._chain) > _COMPACT_AFTER:
            image, _folded, names = yield from self._restore(store)
            position = image["log_position"]
            base = _object_name("base", position)
            size = sum(len(partition) for partition in image["state"]) + 1
            yield from store.put(_BUCKET, base, image, size=size)
            covered = [
                name for name in names
                if name != base and _position_of(name) <= position
            ]
            yield from store.delete_many(_BUCKET, covered)
            self._chain = [p for p in self._chain if p > position]
            self.stats.compactions += 1
        self._compacting = False

    def crash(self) -> None:
        """Lose all volatile state; the input log and checkpoints survive.

        Client futures for unreleased transactions stay pending until
        recovery replays them.  Queued deltas are lost with the rest of
        memory; the epoch, upload, compaction or recovery in flight dies
        with the scope, though an object-store request it had sent still
        lands.
        """
        self._running = False
        self._scope.crash()
        self._state = self._blank_partitions()
        self._dirty = self._blank_partitions()
        self._pending = []
        self._released_through = 0
        self._epochs_done = 0
        self._chain = []
        self._uploads.clear()
        self._compacting = False

    def recover(self) -> Generator:
        """Restore base + deltas, replay the input-log suffix deterministically.

        Recovery runs in the engine's scope: if the engine crashes again
        before it finishes, it dies (the caller sees :class:`Interrupted`)
        and that crash's recovery takes over.
        """
        self.stats.recoveries += 1
        yield self._scope.spawn(self._recover(), "txn-dataflow.recover")

    def _recover(self) -> Generator:
        image, folded, _names = yield from self._restore(self.checkpoint_store)
        self._state = image["state"]
        self._released_through = image["released_through"]
        self._epochs_done = image["epochs_done"]
        self._chain = folded
        # A delta can be durable without the crashed incarnation having
        # lived to truncate the log below it.
        self._truncate_log(image["log_position"])
        # Seed the tid allocator past everything the result log and input
        # log have seen: a fresh id at or below the recovered high-water
        # mark would trip the exactly-once dedup and silently drop a release.
        floor = max(
            [self._released_through] + [request.tid for request in self._input_log]
        )
        if floor:
            self.env.reseed_counter("dataflow-tid", floor)
        replayable = list(self._input_log)
        # Submits that arrived during downtime sit in _pending *and* in the
        # replayable log suffix; replay covers them, so drop the pending
        # copies or the epoch loop would apply their effects a second time.
        self._pending = []
        self.stats.replayed += len(replayable)
        if replayable:
            yield from self._run_epoch(replayable, replay=True)
        self.start()
