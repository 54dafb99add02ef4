"""Tests for idle actor deactivation (Orleans-style activation GC)."""

import pytest

from repro.actors import Actor, ActorRuntime
from repro.sim import Environment


class Ticker(Actor):
    initial_state = {"ticks": 0}

    def tick(self):
        self.state["ticks"] += 1
        yield from self.save_state()
        return self.state["ticks"]

    def ticks(self):
        return self.state["ticks"]
        yield  # pragma: no cover


@pytest.fixture
def env():
    return Environment(seed=301)


class TestIdleDeactivation:
    def test_idle_actors_are_collected(self, env):
        rt = ActorRuntime(env, num_silos=1, idle_timeout=100.0)
        rt.register(Ticker)

        def flow():
            yield from rt.ref("Ticker", "t1").call("tick")

        env.run_until(env.process(flow()))
        assert rt.stats.activations == 1
        env.run(until=400)  # idle well past the timeout
        assert rt.stats.idle_deactivations >= 1

        def again():
            return (yield from rt.ref("Ticker", "t1").call("ticks"))

        ticks = env.run_until(env.process(again()))
        assert ticks == 1  # saved state reloaded on re-activation
        assert rt.stats.activations == 2

    def test_busy_actors_are_not_collected(self, env):
        rt = ActorRuntime(env, num_silos=1, idle_timeout=100.0)
        rt.register(Ticker)

        def busy():
            while True:
                yield env.timeout(30.0)
                yield from rt.ref("Ticker", "hot").call("tick")

        env.process(busy())
        env.run(until=500)  # constantly used: never idle long enough
        assert rt.stats.idle_deactivations == 0
        assert rt.stats.activations == 1

    def test_no_collection_without_idle_timeout(self, env):
        rt = ActorRuntime(env, num_silos=1)
        rt.register(Ticker)

        def flow():
            yield from rt.ref("Ticker", "t1").call("tick")

        env.run_until(env.process(flow()))
        env.run(until=10_000)
        assert rt.stats.idle_deactivations == 0
