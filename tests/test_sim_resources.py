"""Unit tests for channels, stores, locks, and semaphores."""

import pytest

from repro.sim import Channel, Environment, Lock, Semaphore, SimulationError
from repro.sim.resources import ChannelClosed


@pytest.fixture
def env():
    return Environment(seed=11)


class TestChannel:
    def test_put_then_get(self, env):
        ch = Channel(env)
        ch.put("a")
        fut = ch.get()
        env.run()
        assert fut.result() == "a"

    def test_get_blocks_until_put(self, env):
        ch = Channel(env)

        def consumer(env):
            item = yield ch.get()
            return (env.now, item)

        proc = env.process(consumer(env))
        env.schedule(5.0, ch.put, "x")
        env.run()
        assert proc.result() == (5.0, "x")

    def test_fifo_ordering(self, env):
        ch = Channel(env)
        for i in range(3):
            ch.put(i)
        results = []

        def consumer(env):
            for _ in range(3):
                results.append((yield ch.get()))

        env.process(consumer(env))
        env.run()
        assert results == [0, 1, 2]

    def test_multiple_getters_fifo(self, env):
        ch = Channel(env)
        first, second = ch.get(), ch.get()
        ch.put("one")
        ch.put("two")
        env.run()
        assert first.result() == "one"
        assert second.result() == "two"

    def test_close_fails_getters(self, env):
        ch = Channel(env)
        fut = ch.get()
        ch.close()
        env.run()
        assert isinstance(fut.exception(), ChannelClosed)

    def test_put_on_closed_raises(self, env):
        ch = Channel(env)
        ch.close()
        with pytest.raises(SimulationError):
            ch.put(1)

    def test_len(self, env):
        ch = Channel(env)
        ch.put(1)
        ch.put(2)
        assert len(ch) == 2


class TestLock:
    def test_mutual_exclusion(self, env):
        lock = Lock(env)
        timeline = []

        def worker(env, name, hold):
            yield lock.acquire()
            timeline.append((env.now, name, "in"))
            yield env.timeout(hold)
            timeline.append((env.now, name, "out"))
            lock.release()

        env.process(worker(env, "a", 5))
        env.process(worker(env, "b", 5))
        env.run()
        assert timeline == [
            (0.0, "a", "in"),
            (5.0, "a", "out"),
            (5.0, "b", "in"),
            (10.0, "b", "out"),
        ]

    def test_release_unheld_raises(self, env):
        lock = Lock(env)
        with pytest.raises(SimulationError):
            lock.release()

    def test_locked_property(self, env):
        lock = Lock(env)
        assert not lock.locked
        lock.acquire()
        assert lock.locked
        lock.release()
        assert not lock.locked


class TestSemaphore:
    def test_permits_limit_concurrency(self, env):
        sem = Semaphore(env, permits=2)
        active = {"count": 0, "max": 0}

        def worker(env):
            yield sem.acquire()
            active["count"] += 1
            active["max"] = max(active["max"], active["count"])
            yield env.timeout(1)
            active["count"] -= 1
            sem.release()

        for _ in range(6):
            env.process(worker(env))
        env.run()
        assert active["max"] == 2
        assert sem.available == 2

    def test_over_release_raises(self, env):
        sem = Semaphore(env, permits=1)
        with pytest.raises(SimulationError):
            sem.release()

    def test_invalid_permits(self, env):
        with pytest.raises(ValueError):
            Semaphore(env, permits=0)
