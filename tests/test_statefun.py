"""Tests for the Statefun-like runtime: entities, messaging, rewind."""

import pytest

from repro.dataflow import StatefunRuntime, statefun
from repro.net.latency import Latency
from repro.sim import Environment
from repro.storage.object_store import ObjectStore, ObjectStoreServer


@pytest.fixture
def env():
    return Environment(seed=151)


def make_runtime(env, **kwargs):
    kwargs.setdefault("checkpoint_interval", 50.0)
    kwargs.setdefault(
        "checkpoint_store",
        ObjectStoreServer(env, ObjectStore(), latency=Latency.constant(2.0)),
    )
    runtime = StatefunRuntime(env, **kwargs)

    @runtime.function("counter")
    def counter(ctx, key, message):
        ctx.state["count"] = ctx.state.get("count", 0) + message
        ctx.egress((key, ctx.state["count"]))
        return
        yield  # pragma: no cover

    @runtime.function("greeter")
    def greeter(ctx, key, message):
        ctx.state["seen"] = ctx.state.get("seen", 0) + 1
        ctx.send("counter", message["forward_to"], 1)
        return
        yield  # pragma: no cover

    @runtime.function("transfer")
    def transfer(ctx, key, message):
        # Debits self, then *asynchronously* credits the destination:
        # atomic per entity, not across them (the §4.2 caveat).
        ctx.state["balance"] = ctx.state.get("balance", 0) - message["amount"]
        ctx.send("credit", message["dst"], message["amount"])
        return
        yield  # pragma: no cover

    @runtime.function("credit")
    def credit(ctx, key, amount):
        ctx.state["balance"] = ctx.state.get("balance", 0) + amount
        return
        yield  # pragma: no cover

    return runtime


class TestBasics:
    def test_ingress_invokes_function(self, env):
        runtime = make_runtime(env)
        runtime.start()
        runtime.ingress("counter", "a", 5)
        env.run(until=30)
        assert runtime.state_of("counter", "a") == {"count": 5}

    def test_entity_state_is_private(self, env):
        runtime = make_runtime(env)
        runtime.start()
        runtime.ingress("counter", "a", 1)
        runtime.ingress("counter", "b", 10)
        env.run(until=30)
        assert runtime.state_of("counter", "a")["count"] == 1
        assert runtime.state_of("counter", "b")["count"] == 10

    def test_function_to_function_messaging(self, env):
        runtime = make_runtime(env)
        runtime.start()
        runtime.ingress("greeter", "g1", {"forward_to": "target"})
        runtime.ingress("greeter", "g1", {"forward_to": "target"})
        env.run(until=50)
        assert runtime.state_of("greeter", "g1")["seen"] == 2
        assert runtime.state_of("counter", "target")["count"] == 2

    def test_unknown_function_rejected(self, env):
        runtime = make_runtime(env)
        with pytest.raises(KeyError):
            runtime.ingress("nope", "k", 1)

    def test_run_to_completion_per_entity(self, env, monkeypatch):
        """Concurrent messages to one entity serialize (no lost updates)."""
        monkeypatch.setattr(statefun, "WORK_MS", 2.0)
        runtime = make_runtime(env)
        runtime.start()
        for _ in range(10):
            runtime.ingress("counter", "hot", 1)
        env.run(until=200)
        assert runtime.state_of("counter", "hot")["count"] == 10

    def test_egress_released_at_checkpoint(self, env):
        runtime = make_runtime(env, checkpoint_interval=40.0)
        runtime.start()
        runtime.ingress("counter", "a", 1)
        env.run(until=20)
        assert runtime.egress_records() == []  # buffered
        env.run(until=120)
        assert ("a", 1) in runtime.egress_records()


class TestNoIsolationAcrossEntities:
    def test_transfer_money_in_flight_visible(self, env, monkeypatch):
        """Between debit and async credit the total is short (§4.2)."""
        monkeypatch.setattr(statefun, "WORK_MS", 1.0)
        monkeypatch.setattr(statefun, "HOP_LATENCY_MS", 5.0)
        runtime = make_runtime(env)
        runtime.start()
        # Fund src via credit.
        runtime.ingress("credit", "src", 100)
        env.run(until=20)
        # Observe totals while a transfer's credit hop is in flight.
        keys = ["src", "dst"]
        totals = []

        def observer():
            for _ in range(30):
                yield env.timeout(0.5)
                total = sum(
                    runtime.state_of("credit", k).get("balance", 0)
                    + runtime.state_of("transfer", k).get("balance", 0)
                    for k in keys
                )
                totals.append(total)

        runtime.ingress("transfer", "src", {"dst": "dst", "amount": 40})
        env.process(observer())
        env.run(until=60)
        assert min(totals) < 100  # money observed missing mid-flight
        assert totals[-1] == 100  # eventually consistent


class TestRewindRecovery:
    def test_state_survives_via_checkpoint_and_replay(self, env):
        runtime = make_runtime(env, checkpoint_interval=30.0)
        runtime.start()
        for i in range(6):
            env.schedule(10.0 * i, runtime.ingress, "counter", "k", 1)
        env.run(until=65)
        runtime.crash()
        env.run_until(env.process(runtime.recover()))
        env.run(until=300)
        assert runtime.state_of("counter", "k")["count"] == 6  # exactly once
        assert runtime.stats.recoveries == 1

    def test_recovery_without_checkpoint_replays_all(self, env):
        runtime = make_runtime(env, checkpoint_interval=10_000.0)
        runtime.start()
        for _ in range(4):
            runtime.ingress("counter", "k", 1)
        env.run(until=50)
        runtime.crash()
        env.run_until(env.process(runtime.recover()))
        env.run(until=200)
        assert runtime.state_of("counter", "k")["count"] == 4
        assert runtime.stats.replayed == 4

    def test_inflight_cascades_abandoned_then_replayed(self, env, monkeypatch):
        """A crash mid-cascade does not double-apply after replay."""
        monkeypatch.setattr(statefun, "WORK_MS", 2.0)
        monkeypatch.setattr(statefun, "HOP_LATENCY_MS", 10.0)
        runtime = make_runtime(env, checkpoint_interval=10_000.0)
        runtime.start()
        runtime.ingress("transfer", "src", {"dst": "dst", "amount": 10})
        env.run(until=3)  # debit applied, credit hop still in flight
        runtime.crash()
        env.run_until(env.process(runtime.recover()))
        env.run(until=300)
        assert runtime.state_of("transfer", "src")["balance"] == -10
        assert runtime.state_of("credit", "dst")["balance"] == 10  # once!

    def test_egress_exactly_once_across_crash(self, env):
        runtime = make_runtime(env, checkpoint_interval=30.0)
        runtime.start()
        runtime.ingress("counter", "k", 1)
        env.run(until=65)  # checkpoint covered the egress
        covered = list(runtime.egress_records())
        runtime.crash()
        env.run_until(env.process(runtime.recover()))
        env.run(until=300)
        # Replay does not re-release already-covered egress... but since
        # the checkpoint offset covers the input, nothing replays at all.
        assert runtime.egress_records() == covered

    def test_double_start_rejected(self, env):
        runtime = make_runtime(env)
        runtime.start()
        with pytest.raises(RuntimeError):
            runtime.start()
