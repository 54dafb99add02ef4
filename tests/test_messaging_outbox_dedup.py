"""Tests for idempotency stores, deduplicators, and the transactional outbox."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, IsolationLevel
from repro.messaging import Broker, Deduplicator, IdempotencyStore, idempotency
from repro.messaging.outbox import OutboxRelay, TransactionalOutbox
from repro.sim import Environment


class TestIdempotencyStore:
    def test_first_lookup_misses(self):
        store = IdempotencyStore()
        assert store.lookup("k") is None

    def test_record_then_lookup(self):
        store = IdempotencyStore()
        store.record("k", {"result": 1})
        entry = store.lookup("k")
        assert entry.response == {"result": 1}

    def test_first_writer_wins(self):
        store = IdempotencyStore()
        store.record("k", "first")
        store.record("k", "second")
        assert store.lookup("k").response == "first"


class TestDeduplicator:
    def test_first_sighting_not_duplicate(self):
        dedup = Deduplicator()
        assert not dedup.is_duplicate("m1")
        assert dedup.accepted == 1

    def test_second_sighting_is_duplicate(self):
        dedup = Deduplicator()
        dedup.is_duplicate("m1")
        assert dedup.is_duplicate("m1")
        assert dedup.duplicates == 1

    def test_window_eviction_lets_old_duplicates_through(self, monkeypatch):
        monkeypatch.setattr(idempotency, "WINDOW", 2)
        dedup = Deduplicator()
        dedup.is_duplicate("a")
        dedup.is_duplicate("b")
        dedup.is_duplicate("c")  # evicts a
        assert not dedup.is_duplicate("a")  # slipped through!

    @settings(max_examples=50, deadline=None)
    @given(ids=st.lists(st.integers(0, 20), max_size=100))
    def test_accepted_plus_duplicates_equals_total(self, ids):
        dedup = Deduplicator()
        for message_id in ids:
            dedup.is_duplicate(message_id)
        assert dedup.accepted + dedup.duplicates == len(ids)
        assert dedup.accepted == len(set(ids))


@pytest.fixture
def env():
    return Environment(seed=8)


def run(env, gen):
    return env.run_until(env.process(gen))


class TestTransactionalOutbox:
    @pytest.fixture
    def setup(self, env):
        db = Database(env)
        db.create_table("orders", primary_key="id")
        outbox = TransactionalOutbox(db)
        broker = Broker(env)
        broker.create_topic("order-events")
        return db, outbox, broker

    def _place_order(self, env, db, outbox, commit=True):
        def flow():
            txn = db.begin(IsolationLevel.SERIALIZABLE)
            yield from db.insert(txn, "orders", {"id": "o1", "total": 99})
            yield from outbox.enqueue(txn, "order-events", "o1", {"type": "placed"})
            if commit:
                yield from db.commit(txn)
            else:
                db.abort(txn)

        run(env, flow())

    def test_committed_event_becomes_pending(self, env, setup):
        db, outbox, broker = setup
        self._place_order(env, db, outbox, commit=True)
        assert len(outbox.pending()) == 1

    def test_aborted_event_never_pending(self, env, setup):
        """The whole point: abort removes both state change and event."""
        db, outbox, broker = setup
        self._place_order(env, db, outbox, commit=False)
        assert outbox.pending() == []
        assert db.read_latest("orders", "o1") is None

    def test_relay_publishes_and_marks(self, env, setup):
        db, outbox, broker = setup
        self._place_order(env, db, outbox)
        relay = OutboxRelay(env, outbox, broker, poll_interval=1.0)
        run(env, relay.sweep())
        assert outbox.pending() == []
        consumer = broker.consumer("g", "order-events")

        def consume():
            batch = yield from consumer.poll()
            return batch

        batch = run(env, consume())
        assert batch[0].value["value"] == {"type": "placed"}

    def test_relay_crash_causes_republish(self, env, setup):
        """At-least-once relay: crash between publish and mark -> duplicate."""
        db, outbox, broker = setup
        self._place_order(env, db, outbox)
        relay = OutboxRelay(env, outbox, broker, crash_after_publish_prob=1.0)
        run(env, relay.sweep())  # publishes, "crashes" before marking
        assert len(outbox.pending()) == 1  # still pending
        relay.crash_after_publish_prob = 0.0
        run(env, relay.sweep())  # publishes again, marks
        assert outbox.pending() == []
        assert relay.published == 2
        assert relay.republished == 1

    def test_consumer_dedup_absorbs_relay_duplicates(self, env, setup):
        """Outbox + consumer dedup = exactly-once effect."""
        db, outbox, broker = setup
        self._place_order(env, db, outbox)
        relay = OutboxRelay(env, outbox, broker, crash_after_publish_prob=1.0)
        run(env, relay.sweep())
        relay.crash_after_publish_prob = 0.0
        run(env, relay.sweep())

        dedup = Deduplicator()
        consumer = broker.consumer("g", "order-events")
        effects = []

        def consume():
            batch = yield from consumer.poll(max_records=10)
            for record in batch:
                if not dedup.is_duplicate(record.value["event_id"]):
                    effects.append(record.value["value"])
            yield from consumer.commit()

        run(env, consume())
        assert effects == [{"type": "placed"}]  # exactly once
        assert dedup.duplicates == 1

    def test_relay_loop_runs_periodically(self, env, setup):
        db, outbox, broker = setup
        relay = OutboxRelay(env, outbox, broker, poll_interval=5.0)
        env.process(relay.run())
        self._place_order(env, db, outbox)
        env.schedule(20.0, relay.stop)
        env.run(until=30.0)
        assert outbox.pending() == []
