"""A partitioned, persistent, offset-based message broker (Kafka stand-in).

Producers append records to topic partitions (routed by key hash); consumer
groups track a committed offset per partition.  Delivery semantics are a
*protocol choice by the consumer*, exactly as the paper describes (§3.2):

- commit offsets **before** processing → at-most-once (a crash loses the
  in-flight batch);
- commit offsets **after** processing → at-least-once (a crash redelivers
  the uncommitted batch, producing duplicates the application must
  deduplicate).

The broker itself is modeled as durable and highly available (as a
replicated Kafka cluster is); the interesting failures live in producers
and consumers.

With ``max_backlog`` set, partitions are *bounded*: a producer must hold a
credit to append, and credits only return when a consumer group commits
past its records — the broker stops hiding overload in an ever-growing
log and pushes it back to whoever can shed (paper §3.2's "buffering
brokers amplify overload" failure mode, defended).  The default
(``max_backlog=None``) keeps the historical unbounded behaviour.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Generator, Optional

from repro.cluster import shard_of
from repro.sim import Environment, Future, any_of

#: the broker's append-and-ack of one publish
PUBLISH_LATENCY_MS = 0.8
#: one consumer fetch or offset commit round trip
POLL_LATENCY_MS = 0.5


@dataclass(frozen=True)
class Record:
    """One immutable log entry."""

    topic: str
    partition: int
    offset: int
    key: Any
    value: Any


@dataclass
class BrokerStats:
    #: publishes that had to wait for a producer credit (bounded partitions)
    blocked_publishes: int = 0


class _Partition:
    def __init__(self, topic: str, index: int) -> None:
        self.topic = topic
        self.index = index
        self.log: list[Record] = []
        # One shared wakeup future per partition: every poller chains onto
        # it, instead of appending a fresh future per poll (which grew
        # without bound on idle topics).  Callback order on the shared
        # future is registration order, exactly as the waiter list was.
        self._wakeup: Optional[Future] = None
        # Producers waiting for a credit (bounded partitions only), FIFO.
        self._credit_waiters: Deque[Future] = deque()

    @property
    def end_offset(self) -> int:
        return len(self.log)

    def append(self, key: Any, value: Any) -> Record:
        record = Record(self.topic, self.index, len(self.log), key, value)
        self.log.append(record)
        wakeup = self._wakeup
        if wakeup is not None:
            self._wakeup = None
            wakeup.try_succeed(None)
        return record

    def wait_for_data(self, env: Environment) -> Future:
        wakeup = self._wakeup
        if wakeup is None or wakeup.done:
            wakeup = env.future(label=f"{self.topic}/{self.index}.data")
            self._wakeup = wakeup
        return wakeup


class Broker:
    """The broker: topics, partitions, consumer-group offsets."""

    def __init__(self, env: Environment, max_backlog: Optional[int] = None) -> None:
        if max_backlog is not None and max_backlog < 1:
            raise ValueError("max_backlog must be >= 1 (or None for unbounded)")
        self.env = env
        self.max_backlog = max_backlog
        self._topics: dict[str, list[_Partition]] = {}
        # committed offsets: (group, topic, partition) -> next offset to read
        self._offsets: dict[tuple[str, str, int], int] = {}
        self.stats = BrokerStats()

    # -- topics ------------------------------------------------------------------

    def create_topic(self, topic: str, partitions: int = 1) -> None:
        if partitions <= 0:
            raise ValueError("partitions must be positive")
        if topic in self._topics:
            raise ValueError(f"topic {topic!r} already exists")
        self._topics[topic] = [_Partition(topic, i) for i in range(partitions)]

    def _partitions(self, topic: str) -> list[_Partition]:
        try:
            return self._topics[topic]
        except KeyError:
            raise KeyError(f"unknown topic {topic!r}") from None

    def partition_for(self, topic: str, key: Any) -> int:
        """Key-hash routing: equal keys always land in the same partition."""
        return shard_of(key, len(self._partitions(topic)))

    # -- producing ----------------------------------------------------------------

    def publish(self, topic: str, key: Any, value: Any) -> Generator:
        """Append durably; resolves once the broker has acked.

        With ``max_backlog`` set, blocks until the partition has a free
        credit — i.e. until its uncommitted backlog (records past the
        slowest group's committed offset) is below the bound.  The ack is
        therefore backpressure: a slow consumer stalls its producers
        instead of growing the log without limit.
        """
        tracer = self.env.tracer
        span = tracer.begin("broker.publish", broker="broker", topic=topic)
        try:
            partitions = self._partitions(topic)
            yield self.env.timeout(PUBLISH_LATENCY_MS)
            partition = partitions[self.partition_for(topic, key)]
            if self.max_backlog is not None:
                blocked = False
                while self.backlog(topic, partition.index) >= self.max_backlog:
                    blocked = True
                    credit = self.env.future(
                        label=f"{topic}/{partition.index}.credit"
                    )
                    partition._credit_waiters.append(credit)
                    yield credit
                if blocked:
                    self.stats.blocked_publishes += 1
                    span.annotate(blocked=True)
            record = partition.append(key, value)
            span.annotate(partition=partition.index, offset=record.offset)
            return record
        finally:
            tracer.end(span)

    # -- consuming ----------------------------------------------------------------

    def consumer(self, group: str, topic: str) -> "Consumer":
        """A consumer owning *all* partitions of ``topic`` for ``group``.

        A new consumer for the same group resumes from the group's
        committed offsets — what happens when a crashed consumer instance
        is replaced.  Records between the committed offset and the crashed
        instance's position are *redelivered*.
        """
        return Consumer(self, group, topic)

    def committed(self, group: str, topic: str, partition: int) -> int:
        return self._offsets.get((group, topic, partition), 0)

    def _commit(self, group: str, topic: str, partition: int, offset: int) -> None:
        key = (group, topic, partition)
        self._offsets[key] = max(self._offsets.get(key, 0), offset)
        if self.max_backlog is not None:
            # A commit may have freed producer credits: wake every waiter
            # (in FIFO order); each re-checks the backlog before appending.
            part = self._partitions(topic)[partition]
            waiters, part._credit_waiters = part._credit_waiters, deque()
            for waiter in waiters:
                waiter.try_succeed(None)

    def backlog(self, topic: str, partition: int) -> int:
        """Records past the slowest consumer group's committed offset.

        Partitions no group has ever committed count their whole log — a
        bounded topic therefore *requires* a committing consumer before
        producers can run ahead, which is the honest definition of a
        bounded queue (there is no consumer to drain it yet).
        """
        part = self._partitions(topic)[partition]
        floors = [
            offset
            for (group, t, p), offset in self._offsets.items()
            if t == topic and p == partition
        ]
        return part.end_offset - (min(floors) if floors else 0)


class Consumer:
    """A consumer-group member with explicit offset control.

    Positions start at the group's committed offsets.  ``poll`` advances the
    in-memory position; ``commit`` persists it.  Records between the
    committed offset and the position form the at-least-once redelivery
    window.
    """

    def __init__(self, broker: Broker, group: str, topic: str) -> None:
        self.broker = broker
        self.group = group
        self.topic = topic
        self._positions = {
            p.index: broker.committed(group, topic, p.index)
            for p in broker._partitions(topic)
        }

    def poll(self, max_records: int = 32) -> Generator:
        """Fetch the next batch; blocks until data arrives."""
        env = self.broker.env
        tracer = env.tracer
        span = tracer.begin("broker.poll", group=self.group, topic=self.topic)
        try:
            yield env.timeout(POLL_LATENCY_MS)
            while True:
                batch: list[Record] = []
                for partition in self.broker._partitions(self.topic):
                    position = self._positions[partition.index]
                    available = partition.log[position:position + max_records - len(batch)]
                    if available:
                        batch.extend(available)
                        self._positions[partition.index] = position + len(available)
                    if len(batch) >= max_records:
                        break
                if batch:
                    span.annotate(records=len(batch))
                    return batch
                waits = [p.wait_for_data(env) for p in self.broker._partitions(self.topic)]
                yield any_of(env, waits)
        finally:
            tracer.end(span)

    def commit(self) -> Generator:
        """Persist current positions as the group's committed offsets."""
        tracer = self.broker.env.tracer
        span = tracer.begin("broker.commit", group=self.group, topic=self.topic)
        try:
            yield self.broker.env.timeout(POLL_LATENCY_MS)
            for index, position in self._positions.items():
                self.broker._commit(self.group, self.topic, index, position)
        finally:
            tracer.end(span)
