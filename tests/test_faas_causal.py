"""Tests for Cloudburst-style causal state in the FaaS platform (§4.2)."""

import pytest

from repro.faas import FaasPlatform
from repro.net.latency import Latency
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment(seed=221)


def run(env, gen):
    return env.run_until(env.process(gen))


def make_platform(env, causal):
    platform = FaasPlatform(
        env,
        num_workers=3,
        causal_state=causal,
        cached_state=False,
        replication_delay=20.0,
        cold_start=Latency.constant(1.0),
        warm_dispatch=Latency.constant(0.5),
    )

    @platform.function("writer")
    def writer(ctx, payload):
        if ctx.session is not None:
            ctx.session.write(payload["key"], payload["value"])
        else:
            yield from ctx.kv.put(payload["key"], payload["value"])
        # Compose: the reader runs in another container (maybe worker).
        result = yield from ctx.call("reader", {"key": payload["key"]})
        return result

    @platform.function("reader")
    def reader(ctx, payload):
        value = yield from ctx.kv_get(payload["key"])
        return value

    return platform


class TestCausalFaas:
    def test_read_your_writes_across_composition(self, env):
        """The callee sees the caller's write despite replication lag."""
        platform = make_platform(env, causal=True)
        result = run(env, platform.invoke("writer", {"key": "k", "value": "v1"}))
        assert result == "v1"

    def test_many_compositions_never_stale(self, env):
        platform = make_platform(env, causal=True)
        results = []

        def one(i):
            value = yield from platform.invoke(
                "writer", {"key": f"k{i % 3}", "value": f"v{i}"}
            )
            results.append((i, value))

        def driver():
            for i in range(12):
                yield env.timeout(3.0)
                env.process(one(i))

        env.process(driver())
        env.run(until=2000)
        assert len(results) == 12
        assert all(value == f"v{i}" for i, value in results)

    def test_sessions_are_isolated_between_invocations(self, env):
        """A fresh invocation without causal past may read older state,
        but a session never goes backwards within itself."""
        platform = make_platform(env, causal=True)

        def flow():
            yield from platform.invoke("writer", {"key": "k", "value": "first"})
            # A brand-new session from a different client: monotonic for
            # itself, and since the write committed at some replica, the
            # read may need to wait but never errors.
            value = yield from platform.invoke("reader", {"key": "k"})
            return value

        value = run(env, flow())
        assert value in ("first", None)  # fresh session has no obligation

    def test_causal_and_cached_are_mutually_exclusive(self, env):
        with pytest.raises(ValueError):
            FaasPlatform(env, cached_state=True, causal_state=True)

    def test_plain_mode_unaffected(self, env):
        platform = make_platform(env, causal=False)
        result = run(env, platform.invoke("writer", {"key": "k", "value": "v"}))
        assert result == "v"  # single shared store: trivially consistent
