"""Vector clocks and a causally consistent replicated store.

Implements the "causal consistency for microservice architectures"
direction the paper highlights (§5.2, Antipode): writes carry dependency
metadata; a replica delays making a write visible until everything it
causally depends on is visible there too.  Sessions give read-your-writes
and monotonic reads by carrying their causal past between calls — including
calls that hop across services.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Iterable, Optional

from repro.sim import Environment


class VectorClock:
    """A map replica-id → counter with the usual partial order."""

    __slots__ = ("_counters",)

    def __init__(self, counters: Optional[dict[str, int]] = None) -> None:
        self._counters: dict[str, int] = dict(counters or {})

    def copy(self) -> "VectorClock":
        return VectorClock(self._counters)

    def get(self, replica: str) -> int:
        return self._counters.get(replica, 0)

    def increment(self, replica: str) -> "VectorClock":
        """Return a new clock with ``replica``'s counter bumped."""
        counters = dict(self._counters)
        counters[replica] = counters.get(replica, 0) + 1
        return VectorClock(counters)

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Pointwise maximum."""
        counters = dict(self._counters)
        for replica, count in other._counters.items():
            counters[replica] = max(counters.get(replica, 0), count)
        return VectorClock(counters)

    def dominates(self, other: "VectorClock") -> bool:
        """True if self >= other pointwise (other happened-before or equal)."""
        return all(
            self.get(replica) >= count for replica, count in other._counters.items()
        )

    def as_dict(self) -> dict[str, int]:
        return dict(self._counters)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        keys = set(self._counters) | set(other._counters)
        return all(self.get(k) == other.get(k) for k in keys)

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, v) for k, v in self._counters.items() if v)))

    def __repr__(self) -> str:
        return f"VC({self._counters})"


@dataclass
class _Write:
    key: Any
    value: Any
    clock: VectorClock
    origin: str


@dataclass
class CausalStats:
    writes: int = 0
    reads: int = 0
    stale_reads_prevented: int = 0


class _Replica:
    """One replica: visible state + a buffer of not-yet-applicable writes."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.data: dict[Any, tuple[Any, VectorClock]] = {}
        self.applied = VectorClock()
        self.buffer: list[_Write] = []

    def try_apply(self, write: _Write) -> bool:
        """Apply if all causal dependencies are already visible here.

        A write depends on everything in its clock except its own slot's
        latest increment.
        """
        deps = write.clock.as_dict()
        deps[write.origin] = deps.get(write.origin, 0) - 1
        for replica, count in deps.items():
            if self.applied.get(replica) < count:
                return False
        self.data[write.key] = (write.value, write.clock)
        self.applied = self.applied.merge(write.clock)
        return True

    def drain_buffer(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            remaining: list[_Write] = []
            for write in self.buffer:
                if self.try_apply(write):
                    progressed = True
                else:
                    remaining.append(write)
            self.buffer = remaining


class CausalStore:
    """A multi-replica KV store guaranteeing causal consistency.

    Writes go to one replica and replicate asynchronously; each replica
    holds back writes whose dependencies have not arrived.  Use
    :meth:`session` for client sessions whose causal context follows them
    across replicas (and, via ``attach``/``context``, across services).
    """

    def __init__(
        self,
        env: Environment,
        replicas: Iterable[str],
        replication_delay: float = 5.0,
    ) -> None:
        names = list(replicas)
        if not names:
            raise ValueError("need at least one replica")
        self.env = env
        self.replication_delay = replication_delay
        self._replicas = {name: _Replica(name) for name in names}
        self.stats = CausalStats()

    @property
    def replica_names(self) -> list[str]:
        return list(self._replicas)

    def write(self, replica: str, key: Any, value: Any, deps: VectorClock) -> VectorClock:
        """Write at ``replica`` with causal context ``deps``; returns the
        write's clock (the caller's new context)."""
        origin = self._replicas[replica]
        clock = deps.merge(origin.applied).increment(replica)
        write = _Write(key, value, clock, replica)
        applied = origin.try_apply(write)
        assert applied, "a write's deps are always visible at its origin"
        self.stats.writes += 1
        for name, other in self._replicas.items():
            if name != replica:
                self.env.schedule(self.replication_delay, self._receive, other, write)
        return clock

    def _receive(self, replica: _Replica, write: _Write) -> None:
        if not replica.try_apply(write):
            replica.buffer.append(write)
        else:
            replica.drain_buffer()

    def read(self, replica: str, key: Any) -> tuple[Any, VectorClock]:
        """Read ``key`` at ``replica``; returns ``(value, clock_of_value)``."""
        self.stats.reads += 1
        value, clock = self._replicas[replica].data.get(key, (None, VectorClock()))
        return value, clock

    def read_blocking(self, replica: str, key: Any, at_least: VectorClock) -> Generator:
        """Read, waiting until the replica has applied ``at_least``.

        This is the session-guarantee read: it never returns state older
        than the caller's causal context (read-your-writes across
        replicas).
        """
        target = self._replicas[replica]
        waited = False
        while not target.applied.dominates(at_least):
            waited = True
            yield self.env.timeout(1.0)
        if waited:
            self.stats.stale_reads_prevented += 1
        return self.read(replica, key)

    def session(self, replica: Optional[str] = None) -> "CausalSession":
        return CausalSession(self, replica or self.replica_names[0])


class CausalSession:
    """A client session carrying its causal context between operations."""

    def __init__(self, store: CausalStore, replica: str) -> None:
        self.store = store
        self.replica = replica
        self.context = VectorClock()

    def write(self, key: Any, value: Any) -> None:
        self.context = self.store.write(self.replica, key, value, self.context)

    def read(self, key: Any) -> Generator:
        """Causal read: blocks until this replica caught up to the session."""
        value, clock = yield from self.store.read_blocking(
            self.replica, key, self.context
        )
        self.context = self.context.merge(clock)
        return value

    def read_eventual(self, key: Any) -> Any:
        """Plain eventually consistent read (no session guarantee)."""
        value, clock = self.store.read(self.replica, key)
        self.context = self.context.merge(clock)
        return value

    def attach(self, context: VectorClock) -> None:
        """Adopt causal context received from another service (Antipode's
        cross-service lineage propagation)."""
        self.context = self.context.merge(context)
