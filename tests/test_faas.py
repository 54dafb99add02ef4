"""Tests for the FaaS runtime: platform, shared state, entities, workflows."""

import pytest

from repro.faas import (
    DurableEntities,
    EntityError,
    FaasPlatform,
    FunctionError,
    SharedKv,
    TransactionalWorkflows,
    WorkflowAborted,
)
from repro.net.latency import Latency
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment(seed=41)


def run(env, gen):
    return env.run_until(env.process(gen))


def make_platform(env, **kwargs):
    kwargs.setdefault("cold_start", Latency.constant(100.0))
    kwargs.setdefault("warm_dispatch", Latency.constant(1.0))
    platform = FaasPlatform(env, **kwargs)

    @platform.function("double")
    def double(ctx, payload):
        yield ctx.env.timeout(1.0)
        return payload * 2

    @platform.function("compose")
    def compose(ctx, payload):
        once = yield from ctx.call("double", payload)
        twice = yield from ctx.call("double", once)
        return twice

    @platform.function("put_get")
    def put_get(ctx, payload):
        yield from ctx.kv.put(payload["key"], payload["value"])
        value = yield from ctx.kv_get(payload["key"])
        return value

    return platform


class TestPlatform:
    def test_invoke_returns_result(self, env):
        platform = make_platform(env)
        assert run(env, platform.invoke("double", 21)) == 42

    def test_unknown_function(self, env):
        platform = make_platform(env)
        with pytest.raises(FunctionError):
            run(env, platform.invoke("nope"))

    def test_duplicate_registration(self, env):
        platform = make_platform(env)
        with pytest.raises(ValueError):
            platform.register("double", lambda ctx, p: iter(()))

    def test_first_call_cold_second_warm(self, env):
        platform = make_platform(env)

        def flow():
            start = env.now
            yield from platform.invoke("double", 1)
            cold_latency = env.now - start
            start = env.now
            yield from platform.invoke("double", 1)
            warm_latency = env.now - start
            return cold_latency, warm_latency

        cold, warm = run(env, flow())
        assert cold == pytest.approx(101.0)
        assert warm == pytest.approx(2.0)
        assert platform.stats.cold_starts == 1
        assert platform.stats.warm_starts == 1

    def test_keep_alive_expiry_forces_cold_start(self, env):
        platform = make_platform(env, keep_alive=50.0)

        def flow():
            yield from platform.invoke("double", 1)
            yield env.timeout(200.0)  # container expired
            yield from platform.invoke("double", 1)

        run(env, flow())
        assert platform.stats.cold_starts == 2

    def test_concurrent_invocations_get_separate_containers(self, env):
        platform = make_platform(env)

        def caller():
            yield from platform.invoke("double", 1)

        env.process(caller())
        env.process(caller())
        env.run()
        assert platform.stats.cold_starts == 2

    def test_function_composition(self, env):
        platform = make_platform(env)
        assert run(env, platform.invoke("compose", 3)) == 12

    def test_cold_fraction(self, env):
        platform = make_platform(env)

        def flow():
            for _ in range(4):
                yield from platform.invoke("double", 1)

        run(env, flow())
        assert platform.stats.cold_fraction == pytest.approx(0.25)


class TestSharedKv:
    def test_remote_get_put(self, env):
        kv = SharedKv(env, rtt=Latency.constant(2.0))

        def flow():
            yield from kv.put("k", "v")
            value = yield from kv.get("k")
            return value, env.now

        value, elapsed = run(env, flow())
        assert value == "v"
        assert elapsed == pytest.approx(4.0)  # two round trips

    def test_cached_get_skips_round_trip_on_hit(self, env):
        kv = SharedKv(env, rtt=Latency.constant(2.0))

        def flow():
            yield from kv.put("k", "v")
            yield from kv.cached_get("w1", "k")  # a miss fills w1's cache
            start = env.now
            value = yield from kv.cached_get("w1", "k")
            return value, env.now - start

        value, hit_cost = run(env, flow())
        assert value == "v"
        assert hit_cost == 0.0
        assert kv.cached_reads == 1

    def test_cached_read_can_be_stale_across_workers(self, env):
        """The staleness trade-off of §3.4's look-aside caches."""
        kv = SharedKv(env, rtt=Latency.constant(2.0))

        def flow():
            yield from kv.cached_get("w1", "k", None)  # populate w1's cache
            yield from kv.put("k", "new")  # another worker writes the store
            stale = yield from kv.cached_get("w1", "k")
            fresh = yield from kv.get("k")
            return stale, fresh

        stale, fresh = run(env, flow())
        assert stale is None  # w1 still sees its stale cache entry
        assert fresh == "new"

    def test_platform_cached_mode_uses_cache(self, env):
        platform = make_platform(env, cached_state=True)

        def flow():
            first = yield from platform.invoke(
                "put_get", {"key": "x", "value": 9}
            )
            # the warm container's worker now reads x from its cache
            again = yield from platform.invoke(
                "put_get", {"key": "x", "value": 9}
            )
            return first, again

        assert run(env, flow()) == (9, 9)
        assert platform.kv.cached_reads >= 1


def setup_entities(env):
    entities = DurableEntities(env, rtt=Latency.constant(1.0))
    entities.define_operation("deposit", lambda state, amount: state.__setitem__(
        "balance", state.get("balance", 0) + amount) or state["balance"])
    entities.define_operation("get", lambda state, _arg: state.get("balance", 0))

    def withdraw(state, amount):
        balance = state.get("balance", 0)
        if balance < amount:
            raise ValueError("insufficient")
        state["balance"] = balance - amount
        return state["balance"]

    entities.define_operation("withdraw", withdraw)
    return entities


class TestDurableEntities:
    def test_signal_applies_operation(self, env):
        entities = setup_entities(env)
        assert run(env, entities.signal("acct:a", "deposit", 50)) == 50
        assert entities.state_of("acct:a") == {"balance": 50}

    def test_unknown_operation(self, env):
        entities = setup_entities(env)
        with pytest.raises(EntityError):
            run(env, entities.signal("acct:a", "nope"))

    def test_operations_serialize_per_entity(self, env):
        entities = setup_entities(env)
        results = []

        def signaller():
            value = yield from entities.signal("acct:a", "deposit", 10)
            results.append(value)

        env.process(signaller())
        env.process(signaller())
        env.run()
        assert sorted(results) == [10, 20]  # never both 10

    def test_exactly_once_by_operation_id(self, env):
        entities = setup_entities(env)

        def flow():
            first = yield from entities.signal(
                "acct:a", "deposit", 10, operation_id="op-1"
            )
            dup = yield from entities.signal(
                "acct:a", "deposit", 10, operation_id="op-1"
            )
            return first, dup

        first, dup = run(env, flow())
        assert first == dup == 10
        assert entities.state_of("acct:a")["balance"] == 10

    def test_critical_section_gives_multi_entity_isolation(self, env):
        entities = setup_entities(env)
        run(env, entities.signal("acct:a", "deposit", 100))
        observed = []

        def transfer():
            cs = entities.critical_section(["acct:a", "acct:b"])
            yield from cs.enter()
            try:
                yield from cs.signal("acct:a", "withdraw", 40)
                yield env.timeout(20)  # long critical section
                yield from cs.signal("acct:b", "deposit", 40)
            finally:
                cs.exit()

        def reader():
            yield env.timeout(5)  # mid-transfer
            a = yield from entities.signal("acct:a", "get")
            b = yield from entities.signal("acct:b", "get")
            observed.append(a + b)

        env.process(transfer())
        env.process(reader())
        env.run()
        assert observed == [100]  # reader blocked until transfer finished

    def test_without_critical_section_partial_state_leaks(self, env):
        """No lock, no isolation: the §4.2 caveat made visible."""
        entities = setup_entities(env)
        run(env, entities.signal("acct:a", "deposit", 100))
        observed = []

        def transfer():
            yield from entities.signal("acct:a", "withdraw", 40)
            yield env.timeout(20)
            yield from entities.signal("acct:b", "deposit", 40)

        def reader():
            yield env.timeout(5)
            a = yield from entities.signal("acct:a", "get")
            b = yield from entities.signal("acct:b", "get")
            observed.append(a + b)

        env.process(transfer())
        env.process(reader())
        env.run()
        assert observed == [60]  # money "missing" mid-flight

    def test_critical_section_protocol_enforced(self, env):
        entities = setup_entities(env)
        cs = entities.critical_section(["acct:a"])
        with pytest.raises(EntityError):
            cs.exit()

        def flow():
            yield from cs.enter()
            try:
                yield from cs.signal("acct:zzz", "get")
            finally:
                cs.exit()

        with pytest.raises(EntityError):
            run(env, flow())


class TestTransactionalWorkflows:
    def make_engine(self, env):
        engine = TransactionalWorkflows(
            env, kv=SharedKv(env, rtt=Latency.constant(1.0))
        )

        def transfer(ctx, payload):
            src = yield from ctx.read(payload["src"], 0)
            dst = yield from ctx.read(payload["dst"], 0)
            ctx.write(payload["src"], src - payload["amount"])
            ctx.write(payload["dst"], dst + payload["amount"])
            return {"src": src - payload["amount"], "dst": dst + payload["amount"]}

        engine.register("transfer", transfer)
        return engine

    def test_workflow_commits(self, env):
        engine = self.make_engine(env)

        def flow():
            yield from engine.kv.put("a", 100)
            result = yield from engine.run(
                "transfer", {"src": "a", "dst": "b", "amount": 30}
            )
            return result

        assert run(env, flow()) == {"src": 70, "dst": 30}
        assert engine.kv.store.get("a") == 70
        assert engine.kv.store.get("b") == 30

    def test_conflicting_workflows_serialize(self, env):
        engine = self.make_engine(env)

        def flow():
            yield from engine.kv.put("a", 100)

        run(env, flow())
        for _ in range(4):
            env.process(engine.run("transfer", {"src": "a", "dst": "b", "amount": 10}))
        env.run()
        assert engine.kv.store.get("a") == 60
        assert engine.kv.store.get("b") == 40
        assert engine.stats.conflicts > 0  # OCC had to retry

    def test_workflow_id_dedup(self, env):
        engine = self.make_engine(env)

        def flow():
            yield from engine.kv.put("a", 100)
            first = yield from engine.run(
                "transfer", {"src": "a", "dst": "b", "amount": 30},
                workflow_id="wf-1",
            )
            dup = yield from engine.run(
                "transfer", {"src": "a", "dst": "b", "amount": 30},
                workflow_id="wf-1",
            )
            return first, dup

        first, dup = run(env, flow())
        assert first == dup
        assert engine.kv.store.get("a") == 70  # applied once

    def test_retries_exhausted_raises(self, env):
        engine = TransactionalWorkflows(
            env, kv=SharedKv(env, rtt=Latency.constant(1.0)), max_retries=2
        )

        def hostile(ctx, payload):
            # Force a conflict by bumping the key mid-flight every time.
            value = yield from ctx.read("k", 0)
            engine.kv.store.put("k", value + 1)  # out-of-band write
            ctx.write("k", value + 100)
            return value

        engine.register("hostile", hostile)
        with pytest.raises(WorkflowAborted):
            run(env, engine.run("hostile"))

    def test_unknown_workflow(self, env):
        engine = self.make_engine(env)
        with pytest.raises(KeyError):
            run(env, engine.run("nope"))


class TestConcurrencyLimits:
    def test_throttled_beyond_limit(self, env):
        from repro.faas.platform import Throttled

        platform = make_platform(env)

        @platform.function("slow", concurrency_limit=2)
        def slow(ctx, payload):
            yield ctx.env.timeout(50.0)
            return payload

        outcomes = []

        def caller(i):
            try:
                yield from platform.invoke("slow", i)
                outcomes.append("ok")
            except Throttled:
                outcomes.append("throttled")

        for i in range(5):
            env.process(caller(i))
        env.run()
        assert outcomes.count("throttled") == 3
        assert outcomes.count("ok") == 2

    def test_limit_frees_after_completion(self, env):
        platform = make_platform(env)

        @platform.function("limited", concurrency_limit=1)
        def limited(ctx, payload):
            yield ctx.env.timeout(5.0)
            return payload

        def flow():
            first = yield from platform.invoke("limited", 1)
            second = yield from platform.invoke("limited", 2)  # sequential: fine
            return first, second

        assert run(env, flow()) == (1, 2)

    def test_invalid_limit(self, env):
        platform = make_platform(env)
        with pytest.raises(ValueError):
            platform.register("bad", lambda c, p: iter(()), concurrency_limit=0)
