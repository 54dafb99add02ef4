"""Serializable transactional workflows over shared FaaS state (Beldi-like).

The strongest §4.2 point in the FaaS column: "another category of Cloud
Function systems goes beyond by providing transactional serializability on
computations cutting across functions" (Beldi, Boki).  The mechanism here
is optimistic concurrency control:

- a workflow's reads record ``(key, version)`` in a read set;
- writes are buffered in a write set;
- commit validates that every read version is still current and installs
  the write set — atomically, since validation+install is a single
  simulation step against the underlying store;
- validation failure aborts and automatically retries the whole workflow
  (workflow bodies must therefore be free of external side effects —
  exactly the determinism/idempotence restriction these systems impose);
- a workflow id deduplicates the *result*: re-submitting a committed
  workflow returns the recorded outcome instead of re-running (the
  exactly-once guarantee built from logging in Beldi).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.faas.state import SharedKv
from repro.messaging.idempotency import IdempotencyStore
from repro.sim import Environment

WorkflowBody = Callable[["WorkflowContext", Any], Generator]


class WorkflowAborted(Exception):
    """Retries exhausted: the workflow could not commit."""


@dataclass
class WorkflowStats:
    committed: int = 0
    conflicts: int = 0


class WorkflowContext:
    """Transactional view of the shared KV for one attempt."""

    def __init__(self, kv: SharedKv) -> None:
        self._kv = kv
        self.read_set: dict[Any, int] = {}
        self.write_set: dict[Any, Any] = {}

    def read(self, key: Any, default: Any = None) -> Generator:
        """Read through the transaction (own writes first)."""
        if key in self.write_set:
            return self.write_set[key]
        versioned = yield from self._kv.get_versioned(key)
        if versioned is None:
            self.read_set.setdefault(key, self._kv.store.version(key))
            return default
        self.read_set.setdefault(key, versioned.version)
        return versioned.value

    def write(self, key: Any, value: Any) -> None:
        """Buffer a write; installed only at commit."""
        self.write_set[key] = value

    def update(self, key: Any, fn: Callable[[Any], Any], default: Any = None) -> Generator:
        """Read-modify-write helper."""
        current = yield from self.read(key, default)
        new_value = fn(current)
        self.write(key, new_value)
        return new_value


#: the mean backoff step between conflicting attempts (jittered, linear)
BACKOFF_MS = 1.0


class TransactionalWorkflows:
    """The workflow engine: register bodies, run them serializably."""

    def __init__(
        self,
        env: Environment,
        kv: Optional[SharedKv] = None,
        max_retries: int = 16,
    ) -> None:
        self.env = env
        self.kv = kv or SharedKv(env)
        self.max_retries = max_retries
        self._bodies: dict[str, WorkflowBody] = {}
        self._results = IdempotencyStore()
        self._rng = env.stream("txn-workflows")
        self.stats = WorkflowStats()

    def register(self, name: str, body: WorkflowBody) -> None:
        if name in self._bodies:
            raise ValueError(f"workflow {name!r} already registered")
        self._bodies[name] = body

    def run(
        self,
        name: str,
        payload: Any = None,
        workflow_id: Optional[str] = None,
    ) -> Generator:
        """Execute a workflow to a serializable commit; returns its result.

        A repeated ``workflow_id`` returns the first execution's recorded
        result without re-executing.
        """
        body = self._bodies.get(name)
        if body is None:
            raise KeyError(f"no workflow named {name!r}")
        if workflow_id is not None:
            hit = self._results.lookup(workflow_id)
            if hit is not None:
                return hit.response
        for attempt in range(1, self.max_retries + 1):
            ctx = WorkflowContext(self.kv)
            result = yield from body(ctx, payload)
            if self._try_commit(ctx):
                self.stats.committed += 1
                if workflow_id is not None:
                    self._results.record(workflow_id, result)
                return result
            self.stats.conflicts += 1
            # Jittered backoff decorrelates retrying conflict partners.
            yield self.env.timeout(BACKOFF_MS * attempt * self._rng.uniform(0.5, 1.5))
        raise WorkflowAborted(f"workflow {name!r} aborted after {self.max_retries} attempts")

    def _try_commit(self, ctx: WorkflowContext) -> bool:
        """OCC validate + install, atomic w.r.t. the simulation."""
        store = self.kv.store
        for key, version in ctx.read_set.items():
            if store.version(key) != version:
                return False
        for key, value in ctx.write_set.items():
            store.put(key, value)
        return True
