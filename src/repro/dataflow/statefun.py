"""A Statefun-like stateful-functions runtime with rewind recovery.

Flink Statefun, as the paper characterizes it (§4.2): it manages "state
updates and messages in an integrated manner, transparently rewinding the
application state to a previously consistent checkpoint in case of a
delivery error.  Therefore, it achieves exactly-once processing and
atomicity as a consequence.  However, there is no transactional isolation
across Statefun entities."

Reproduced semantics:

- functions are addressed by ``(function_type, key)``; each such *entity*
  owns private state and processes one message at a time
  (run-to-completion), §3.1's actor-flavoured SFaaS;
- ``ctx.send`` delivers asynchronous messages to other entities
  (cross-partition hops are charged latency) — cascades interleave, so
  there is **no isolation across entities**;
- checkpoints snapshot all entity state plus the ingress offset at
  *quiescent* instants; recovery rewinds to the snapshot and replays the
  durable ingress log — exactly-once state effects;
- egress records buffer until the covering checkpoint completes
  (transactional egress), so outputs are exactly-once too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Hashable, Optional

from repro.cluster import shard_of
from repro.net.latency import Latency
from repro.sim import CrashScope, Environment, Lock
from repro.storage.object_store import ObjectStore, ObjectStoreServer

StatefulFunction = Callable[["FunctionContext", Hashable, Any], Generator]


@dataclass
class StatefunStats:
    checkpoints: int = 0
    recoveries: int = 0
    replayed: int = 0


class FunctionContext:
    """Per-invocation view: entity state + messaging."""

    def __init__(self, runtime: "StatefunRuntime", fn_type: str, key: Hashable) -> None:
        self._runtime = runtime
        self._fn_type = fn_type
        self._key = key
        self.env = runtime.env

    # -- entity state ------------------------------------------------------------

    @property
    def state(self) -> dict:
        """The entity's private, mutable state dict (mutations stick)."""
        return self._runtime._state_of(self._fn_type, self._key)

    # -- messaging ----------------------------------------------------------------

    def send(self, fn_type: str, key: Hashable, message: Any) -> None:
        """Asynchronous message to another entity (fire and forget)."""
        self._runtime._send_internal(self._fn_type, self._key, fn_type, key, message)

    def egress(self, value: Any) -> None:
        """Emit to the transactional egress (visible at checkpoint)."""
        self._runtime._egress_buffer.append(value)


#: entity partitions; a message to another partition is a dataflow hop
NUM_PARTITIONS = 4
#: one dataflow hop between partitions
HOP_LATENCY_MS = 0.5
#: the execution cost of one function invocation
WORK_MS = 0.1


class StatefunRuntime:
    """The runtime: ingress log, entity dispatch, checkpoint/rewind."""

    def __init__(
        self,
        env: Environment,
        checkpoint_interval: float = 100.0,
        checkpoint_store: Optional[ObjectStoreServer] = None,
    ) -> None:
        self.env = env
        self.checkpoint_interval = checkpoint_interval
        self.checkpoint_store = checkpoint_store or ObjectStoreServer(
            env, ObjectStore(), latency=Latency.object_store()
        )
        self._functions: dict[str, StatefulFunction] = {}
        self._states: dict[tuple[str, Hashable], dict] = {}
        self._entity_locks: dict[tuple[str, Hashable], Lock] = {}
        self._ingress_log: list[tuple[str, Hashable, Any]] = []  # durable
        self._ingress_position = 0
        self._inflight = 0
        self._egress_buffer: list[Any] = []
        self._egress: list[Any] = []  # externally visible (exactly-once)
        self._running = False
        self._scope = CrashScope(env)  # the live incarnation's processes and hops
        self._wake = None
        self.stats = StatefunStats()

    # -- registration / ingress --------------------------------------------------

    def register(self, fn_type: str, fn: StatefulFunction) -> None:
        if fn_type in self._functions:
            raise ValueError(f"function {fn_type!r} already registered")
        self._functions[fn_type] = fn

    def function(self, fn_type: str):
        """Decorator form of :meth:`register`."""

        def wrap(fn: StatefulFunction) -> StatefulFunction:
            self.register(fn_type, fn)
            return fn

        return wrap

    def ingress(self, fn_type: str, key: Hashable, message: Any) -> None:
        """Append an external event to the durable ingress log."""
        if fn_type not in self._functions:
            raise KeyError(f"no function {fn_type!r}")
        self._ingress_log.append((fn_type, key, message))
        self._wake_dispatcher()

    # -- state --------------------------------------------------------------------

    def _partition(self, key: Hashable) -> int:
        return shard_of(key, NUM_PARTITIONS)

    def _state_of(self, fn_type: str, key: Hashable) -> dict:
        return self._states.setdefault((fn_type, key), {})

    def state_of(self, fn_type: str, key: Hashable) -> dict:
        """Committed-state peek for tests and invariants."""
        return dict(self._states.get((fn_type, key), {}))

    def egress_records(self) -> list[Any]:
        """Checkpoint-covered (exactly-once) egress."""
        return list(self._egress)

    # -- execution -------------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            raise RuntimeError("runtime already running")
        self._running = True
        self._scope.spawn(self._dispatcher(), "statefun.dispatch")
        self._scope.spawn(self._checkpointer(), "statefun.ckpt")

    def _wake_dispatcher(self) -> None:
        if self._wake is not None and not self._wake.done:
            self._wake.succeed(None)
        self._wake = None

    def _dispatcher(self) -> Generator:
        while True:
            if self._ingress_position < len(self._ingress_log):
                fn_type, key, message = self._ingress_log[self._ingress_position]
                self._ingress_position += 1
                self._spawn_invocation(fn_type, key, message)
                yield self.env.timeout(0)
            else:
                self._wake = self.env.future(label="statefun.idle")
                yield self._wake

    def _spawn_invocation(self, fn_type: str, key: Hashable, message: Any) -> None:
        self._inflight += 1
        self._scope.spawn(self._invoke(fn_type, key, message), f"sf:{fn_type}:{key}")

    def _invoke(self, fn_type: str, key: Hashable, message: Any) -> Generator:
        try:
            ident = (fn_type, key)
            lock = self._entity_locks.get(ident)
            if lock is None:
                lock = Lock(self.env, label=f"sf-entity:{ident}")
                self._entity_locks[ident] = lock
            yield lock.acquire()
            try:
                yield self.env.timeout(WORK_MS)
                fn = self._functions[fn_type]
                ctx = FunctionContext(self, fn_type, key)
                yield from fn(ctx, key, message)
            finally:
                lock.release()
        finally:
            self._inflight -= 1

    def _send_internal(
        self, src_type: str, src_key: Hashable, fn_type: str, key: Hashable, message: Any
    ) -> None:
        if fn_type not in self._functions:
            raise KeyError(f"no function {fn_type!r}")
        delay = 0.0
        if self._partition(key) != self._partition(src_key):
            delay = HOP_LATENCY_MS
        self._inflight += 1
        self._scope.schedule(delay, self._deliver, fn_type, key, message)

    def _deliver(self, fn_type: str, key: Hashable, message: Any) -> None:
        self._inflight -= 1
        self._spawn_invocation(fn_type, key, message)

    # -- checkpointing / recovery ----------------------------------------------------

    def _checkpointer(self) -> Generator:
        while True:
            yield self.env.timeout(self.checkpoint_interval)
            # Wait for quiescence so the snapshot is cascade-consistent.
            while self._inflight > 0 or self._ingress_position < len(self._ingress_log):
                yield self.env.timeout(1.0)
            yield from self._checkpoint()

    def _checkpoint(self) -> Generator:
        # Only egress produced *before* the snapshot is covered by it;
        # records arriving while the store write is in flight belong to
        # cascades that would replay after a crash.  The released egress
        # log travels INSIDE the snapshot (a transactional sink): output
        # release and state/offset commit are atomic, so a crash between
        # them can neither lose nor duplicate outputs.
        covered = list(self._egress_buffer)
        released = list(self._egress) + covered
        snapshot = {
            "states": {k: dict(v) for k, v in self._states.items()},
            "position": self._ingress_position,
            "egress": released,
        }
        yield from self.checkpoint_store.put(
            "statefun", "latest", snapshot,
            size=max(1, len(snapshot["states"])),
        )
        # A crash during the write killed this process, but the write
        # still lands: recovery reads the snapshot.
        self._egress = released
        self._egress_buffer = self._egress_buffer[len(covered):]
        self.stats.checkpoints += 1

    def crash(self) -> None:
        """Lose volatile state: entity states, in-flight cascades, buffers."""
        self._running = False
        self._scope.crash()
        self._states = {}
        self._entity_locks = {}
        self._egress_buffer = []
        self._inflight = 0
        self._ingress_position = 0

    def recover(self) -> Generator:
        """Rewind to the last checkpoint and replay the ingress tail.

        Recovery runs in the runtime's scope: if the runtime crashes again
        before it finishes, it dies (the caller sees :class:`Interrupted`)
        and that crash's recovery takes over.
        """
        self.stats.recoveries += 1
        yield self._scope.spawn(self._recover(), "statefun.recover")

    def _recover(self) -> Generator:
        exists = yield from self.checkpoint_store.exists("statefun", "latest")
        if exists:
            snapshot = yield from self.checkpoint_store.get("statefun", "latest")
            self._states = {k: dict(v) for k, v in snapshot["states"].items()}
            self._ingress_position = snapshot["position"]
            # The transactional sink: released output is exactly what the
            # snapshot committed, no more and no less.
            self._egress = list(snapshot.get("egress", []))
        else:
            self._egress = []
        self.stats.replayed += len(self._ingress_log) - self._ingress_position
        self.start()
