"""Choreographed sagas: event-driven coordination without an orchestrator.

The other §4.2 saga style: instead of a central orchestrator calling
services, each service *reacts to events* on the broker and emits the next
event (or a compensation event).  Coordination logic is smeared across the
participants — which is exactly why practitioners find choreography hard
to reason about: nobody holds the whole workflow.

This module gives the minimal machinery:

- a :class:`Reactor` subscribes a handler to a topic through a consumer
  group and emits follow-up events;
- handlers are *at-least-once* (offsets commit after processing), so every
  reactor deduplicates on the event's saga id + step;
- :class:`ChoreographyMonitor` watches terminal events to tell a saga's
  outcome, since no orchestrator exists to ask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.messaging.broker import Broker, Record
from repro.messaging.idempotency import Deduplicator
from repro.sim import Environment, Interrupted

#: A reaction receives the event payload and returns a list of
#: ``(topic, key, payload)`` events to emit (possibly empty).
Reaction = Callable[[dict], Generator]

#: records a reactor takes per poll
POLL_BATCH = 16


@dataclass
class ReactorStats:
    failed: int = 0


class Reactor:
    """One service's event loop: consume a topic, react, emit.

    ``name`` doubles as the consumer group, so restarting a crashed
    reactor resumes from its committed offset (redelivering the
    uncommitted tail — hence the built-in dedup).
    """

    def __init__(
        self,
        env: Environment,
        broker: Broker,
        name: str,
        topic: str,
        reaction: Reaction,
    ) -> None:
        self.env = env
        self.broker = broker
        self.name = name
        self.topic = topic
        self.reaction = reaction
        self.dedup = Deduplicator()
        self.stats = ReactorStats()
        self._running = False

    def start(self) -> None:
        if self._running:
            raise RuntimeError(f"reactor {self.name!r} already running")
        self._running = True
        self.env.process(self._loop(), label=f"reactor:{self.name}")

    def stop(self) -> None:
        self._running = False

    def _loop(self) -> Generator:
        consumer = self.broker.consumer(self.name, self.topic)
        while self._running:
            batch = yield from consumer.poll(max_records=POLL_BATCH)
            if not self._running:
                return
            for record in batch:
                yield from self._handle(record)
            yield from consumer.commit()  # at-least-once

    def _handle(self, record: Record) -> Generator:
        event = record.value
        event_id = event.get("event_id", f"{record.partition}:{record.offset}")
        if self.dedup.is_duplicate((self.name, event_id)):
            return
        try:
            emitted = yield from self.reaction(event)
        except Interrupted:
            raise
        except Exception:  # noqa: BLE001 - a poisoned event must not kill the loop
            self.stats.failed += 1
            return
        for topic, key, payload in emitted or []:
            payload = dict(payload)
            payload.setdefault("saga_id", event.get("saga_id"))
            payload.setdefault(
                "event_id", f"{event_id}->{topic}"
            )
            yield from self.broker.publish(topic, key, payload)


class ChoreographyMonitor:
    """Tracks saga outcomes by watching terminal topics.

    With no orchestrator, "did order 42 complete?" can only be answered
    from the event stream — the observability gap the paper attributes to
    choreography.
    """

    def __init__(
        self,
        env: Environment,
        broker: Broker,
        completed_topic: str,
        compensated_topic: str,
    ) -> None:
        self.env = env
        self.broker = broker
        self.outcomes: dict[str, str] = {}
        self._running = True
        env.process(self._watch(completed_topic, "completed"), label="monitor-ok")
        env.process(self._watch(compensated_topic, "compensated"), label="monitor-comp")

    def _watch(self, topic: str, verdict: str) -> Generator:
        consumer = self.broker.consumer(f"monitor:{verdict}", topic)
        while self._running:
            batch = yield from consumer.poll()
            for record in batch:
                saga_id = record.value.get("saga_id")
                if saga_id is not None and saga_id not in self.outcomes:
                    self.outcomes[saga_id] = verdict
            yield from consumer.commit()

    def outcome_of(self, saga_id: str) -> Optional[str]:
        return self.outcomes.get(saga_id)

    def stop(self) -> None:
        self._running = False
