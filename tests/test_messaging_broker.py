"""Tests for the log-based broker: offsets, groups, delivery semantics."""

import pytest

from repro.messaging import Broker
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment(seed=4)


@pytest.fixture
def broker(env):
    b = Broker(env)
    b.create_topic("orders", partitions=3)
    return b


def run(env, gen):
    return env.run_until(env.process(gen))


class TestTopics:
    def test_create_duplicate_topic_raises(self, broker):
        with pytest.raises(ValueError):
            broker.create_topic("orders")

    def test_unknown_topic_raises(self, env, broker):
        def flow():
            yield from broker.publish("nope", "k", "v")

        with pytest.raises(KeyError):
            run(env, flow())

    def test_invalid_partition_count(self, broker):
        with pytest.raises(ValueError):
            broker.create_topic("bad", partitions=0)

    def test_key_routing_is_sticky(self, broker):
        p1 = broker.partition_for("orders", "customer-42")
        p2 = broker.partition_for("orders", "customer-42")
        assert p1 == p2


class TestPublishPoll:
    def test_publish_then_poll(self, env, broker):
        def flow():
            yield from broker.publish("orders", "k1", {"amount": 5})
            consumer = broker.consumer("g", "orders")
            batch = yield from consumer.poll()
            return batch

        batch = run(env, flow())
        assert len(batch) == 1
        assert batch[0].value == {"amount": 5}
        assert batch[0].offset == 0

    def test_poll_blocks_until_data(self, env, broker):
        def consumer_flow():
            consumer = broker.consumer("g", "orders")
            batch = yield from consumer.poll()
            return (env.now, batch[0].value)

        def producer_flow():
            yield env.timeout(10)
            yield from broker.publish("orders", "k", "late")

        proc = env.process(consumer_flow())
        env.process(producer_flow())
        env.run()
        arrived_at, value = proc.result()
        assert arrived_at >= 10
        assert value == "late"

    def test_ordering_within_partition(self, env, broker):
        def flow():
            for i in range(5):
                yield from broker.publish("orders", "same-key", i)
            consumer = broker.consumer("g", "orders")
            batch = yield from consumer.poll(max_records=10)
            return [r.value for r in batch]

        assert run(env, flow()) == [0, 1, 2, 3, 4]

    def test_max_records_respected(self, env, broker):
        def flow():
            for i in range(10):
                yield from broker.publish("orders", "same-key", i)
            consumer = broker.consumer("g", "orders")
            batch = yield from consumer.poll(max_records=4)
            return len(batch)

        assert run(env, flow()) == 4

    def test_independent_groups_see_all_records(self, env, broker):
        def flow():
            yield from broker.publish("orders", "k", "v")
            c1 = broker.consumer("group-a", "orders")
            c2 = broker.consumer("group-b", "orders")
            b1 = yield from c1.poll()
            b2 = yield from c2.poll()
            return len(b1), len(b2)

        assert run(env, flow()) == (1, 1)


class TestDeliverySemantics:
    def test_at_least_once_redelivers_uncommitted(self, env, broker):
        """Crash after processing but before commit -> duplicate delivery."""

        def flow():
            yield from broker.publish("orders", "k", "v")
            first = broker.consumer("g", "orders")
            batch1 = yield from first.poll()
            # first "crashes" here without committing
            replacement = broker.consumer("g", "orders")
            batch2 = yield from replacement.poll()
            return batch1[0].offset, batch2[0].offset

        offsets = run(env, flow())
        assert offsets == (0, 0)  # same record twice

    def test_at_most_once_loses_uncommitted(self, env, broker):
        """Commit before processing -> a crash loses the in-flight batch."""

        def flow():
            yield from broker.publish("orders", "k", "v")
            first = broker.consumer("g", "orders")
            batch1 = yield from first.poll()
            yield from first.commit()  # committed before "processing"
            # first crashes before acting on batch1
            return len(batch1), broker.consumer("g", "orders")

        count, replacement = run(env, flow())
        assert count == 1
        polled = env.process(replacement.poll())
        env.run(until=env.now + 100)
        assert not polled.done  # the record is gone forever

    def test_commit_persists_position(self, env, broker):
        def flow():
            for i in range(3):
                yield from broker.publish("orders", "k", i)
            consumer = broker.consumer("g", "orders")
            yield from consumer.poll(max_records=2)
            yield from consumer.commit()
            fresh = broker.consumer("g", "orders")
            batch = yield from fresh.poll()
            return [r.value for r in batch]

        assert run(env, flow()) == [2]

    def test_lag_accounting(self, env, broker):
        def flow():
            for i in range(5):
                yield from broker.publish("orders", "k", i)
            partition = broker.partition_for("orders", "k")
            assert broker.backlog("orders", partition) == 5
            consumer = broker.consumer("g", "orders")
            yield from consumer.poll(max_records=3)
            assert broker.backlog("orders", partition) == 5  # not yet committed
            yield from consumer.commit()
            assert broker.backlog("orders", partition) == 2
            return True

        assert run(env, flow())
