"""Durable entities: serialized, exactly-once operations on typed state.

Models Azure Durable Functions' entity abstraction (§4.2): "individual
function operations are atomic and enjoy exactly-once guarantees ... users
must acquire and release locks explicitly to ensure transactional isolation
on operations involving multiple entities".  Accordingly:

- each entity processes one operation at a time (a signal queue);
- operation effects are deduplicated by operation id (exactly-once even
  when the caller retries);
- :meth:`DurableEntities.critical_section` locks a set of entities in
  sorted order for multi-entity isolation — the *manual* isolation story
  whose absence across functions the paper calls out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.messaging.idempotency import IdempotencyStore
from repro.net.latency import Latency, Sampler
from repro.sim import Environment, Lock

Operation = Callable[[dict, Any], Any]


class EntityError(Exception):
    """Entity protocol misuse."""


@dataclass
class EntityStats:
    operations: int = 0


class DurableEntities:
    """The entity runtime: state, per-entity serialization, dedup, locks.

    Operations are *plain functions* ``op(state, arg) -> result`` applied
    under the entity's lock after a storage round trip (entity state is
    durable by contract).  ``operation_id`` enables exactly-once retries.
    """

    _op_ids = itertools.count(1)

    def __init__(self, env: Environment, rtt: Optional[Sampler] = None) -> None:
        self.env = env
        self._rtt = rtt or Latency.intra_zone()
        self._rng = env.stream("durable-entities")
        self._states: dict[str, dict] = {}
        self._locks: dict[str, Lock] = {}
        self._dedup = IdempotencyStore()
        self._operations: dict[str, Operation] = {}
        self.stats = EntityStats()

    def define_operation(self, name: str, op: Operation) -> None:
        """Register an operation applicable to any entity."""
        if name in self._operations:
            raise ValueError(f"operation {name!r} already defined")
        self._operations[name] = op

    def _lock_of(self, entity_id: str) -> Lock:
        if entity_id not in self._locks:
            self._locks[entity_id] = Lock(self.env, label=f"entity:{entity_id}")
        return self._locks[entity_id]

    def state_of(self, entity_id: str) -> dict:
        """Direct state peek (tests/invariants); entities start empty."""
        return dict(self._states.get(entity_id, {}))

    # -- single-entity operations (atomic, exactly-once) -------------------------

    def signal(
        self,
        entity_id: str,
        operation: str,
        arg: Any = None,
        operation_id: Optional[str] = None,
        _locked: bool = False,
    ) -> Generator:
        """Apply one operation to one entity; returns the result.

        With an ``operation_id``, duplicate signals return the recorded
        result without re-applying — the exactly-once guarantee.
        """
        op = self._operations.get(operation)
        if op is None:
            raise EntityError(f"unknown operation {operation!r}")
        if operation_id is not None:
            hit = self._dedup.lookup(operation_id)
            if hit is not None:
                return hit.response
        if not _locked:
            yield self._lock_of(entity_id).acquire()
        try:
            yield self.env.timeout(self._rtt(self._rng))  # durable state trip
            if operation_id is not None:
                # Re-check under the lock: a concurrent duplicate may have
                # applied while we waited.
                hit = self._dedup.lookup(operation_id)
                if hit is not None:
                    return hit.response
            state = self._states.setdefault(entity_id, {})
            result = op(state, arg)
            self.stats.operations += 1
            if operation_id is not None:
                self._dedup.record(operation_id, result)
            return result
        finally:
            if not _locked:
                self._lock_of(entity_id).release()

    # -- multi-entity critical sections --------------------------------------------

    def critical_section(self, entity_ids: list[str]) -> "CriticalSection":
        """Lock several entities (sorted order → deadlock-free)."""
        return CriticalSection(self, sorted(set(entity_ids)))


class CriticalSection:
    """Explicit multi-entity lock scope.

    Usage inside a process::

        cs = entities.critical_section(["acct:a", "acct:b"])
        yield from cs.enter()
        try:
            yield from cs.signal("acct:a", "withdraw", 10)
            yield from cs.signal("acct:b", "deposit", 10)
        finally:
            cs.exit()
    """

    def __init__(self, entities: DurableEntities, entity_ids: list[str]) -> None:
        self.entities = entities
        self.entity_ids = entity_ids
        self._held = False

    def enter(self) -> Generator:
        for entity_id in self.entity_ids:  # sorted: no deadlock
            yield self.entities._lock_of(entity_id).acquire()
        self._held = True

    def exit(self) -> None:
        if not self._held:
            raise EntityError("critical section not entered")
        for entity_id in reversed(self.entity_ids):
            self.entities._lock_of(entity_id).release()
        self._held = False

    def signal(
        self,
        entity_id: str,
        operation: str,
        arg: Any = None,
        operation_id: Optional[str] = None,
    ) -> Generator:
        """Operate on a locked member of the section."""
        if not self._held:
            raise EntityError("critical section not entered")
        if entity_id not in self.entity_ids:
            raise EntityError(f"{entity_id!r} is not part of this critical section")
        result = yield from self.entities.signal(
            entity_id, operation, arg, operation_id=operation_id, _locked=True
        )
        return result
