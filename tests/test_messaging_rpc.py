"""Tests for RPC: calls, timeouts, retries, duplicates, idempotency."""

import pytest

from repro.messaging import (
    IdempotencyStore,
    RpcCall,
    RpcClient,
    RpcRemoteError,
    RpcServer,
    RpcTimeout,
)
from repro.net import Latency, Network
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment(seed=6)


@pytest.fixture
def net(env):
    network = Network(env, default_latency=Latency.constant(1.0))
    network.add_node("client")
    network.add_node("server")
    return network


def make_counter_server(net, dedup=None):
    """A server whose 'incr' handler counts executions."""
    state = {"count": 0}
    server = RpcServer(net, net.node("server"), dedup_store=dedup)

    def incr(payload):
        state["count"] += payload.get("by", 1)
        yield net.env.timeout(0.5)  # some processing time
        return state["count"]

    server.register("incr", incr)

    def boom(payload):
        yield net.env.timeout(0.1)
        raise ValueError("handler exploded")

    server.register("boom", boom)
    return server, state


def run(env, gen):
    return env.run_until(env.process(gen))


class TestBasicCalls:
    def test_call_returns_handler_result(self, env, net):
        make_counter_server(net)
        client = RpcClient(net, net.node("client"))

        def flow():
            result = yield from client.call("server", "incr", {"by": 5})
            return result

        assert run(env, flow()) == 5

    def test_sequential_calls_accumulate(self, env, net):
        _, state = make_counter_server(net)
        client = RpcClient(net, net.node("client"))

        def flow():
            yield from client.call("server", "incr", {"by": 1})
            yield from client.call("server", "incr", {"by": 2})
            return state["count"]

        assert run(env, flow()) == 3

    def test_unknown_method_is_remote_error(self, env, net):
        make_counter_server(net)
        client = RpcClient(net, net.node("client"))

        def flow():
            yield from client.call("server", "nope")

        with pytest.raises(RpcRemoteError):
            run(env, flow())

    def test_handler_exception_propagates(self, env, net):
        make_counter_server(net)
        client = RpcClient(net, net.node("client"))

        def flow():
            yield from client.call("server", "boom")

        with pytest.raises(RpcRemoteError, match="handler exploded"):
            run(env, flow())

    def test_concurrent_calls_match_replies(self, env, net):
        """Reply correlation: interleaved calls get their own results."""
        server = RpcServer(net, net.node("server"))

        def echo_slow(payload):
            yield net.env.timeout(payload["delay"])
            return payload["tag"]

        server.register("echo", echo_slow)
        client = RpcClient(net, net.node("client"))
        results = {}

        def caller(tag, delay):
            value = yield from client.call(
                "server", "echo", {"tag": tag, "delay": delay}, timeout=100
            )
            results[tag] = value

        env.process(caller("slow", 20))
        env.process(caller("fast", 1))
        env.run()
        assert results == {"slow": "slow", "fast": "fast"}


class TestTimeoutsAndRetries:
    def test_timeout_when_server_dead(self, env, net):
        make_counter_server(net)
        net.node("server").crash()
        client = RpcClient(net, net.node("client"))

        def flow():
            yield from client.call("server", "incr", timeout=5, retries=2)

        with pytest.raises(RpcTimeout) as excinfo:
            run(env, flow())
        assert excinfo.value.attempts == 3
        assert client.stats.retries == 2
        assert client.stats.timeouts == 1

    def test_retry_succeeds_after_loss(self, env, net):
        _, state = make_counter_server(net)
        client = RpcClient(net, net.node("client"))
        net.set_loss(1.0, src="client", dst="server")
        env.schedule(6.0, net.set_loss, 0.0, "client", "server")

        def flow():
            result = yield from client.call("server", "incr", {"by": 1}, timeout=5, retries=3)
            return result

        assert run(env, flow()) == 1
        assert client.stats.retries >= 1

    def test_lost_reply_causes_duplicate_execution(self, env, net):
        """The §3.2 anomaly: execution happened, reply lost, retry re-executes."""
        _, state = make_counter_server(net)
        client = RpcClient(net, net.node("client"))
        net.set_loss(1.0, src="server", dst="client")  # replies vanish
        env.schedule(6.0, net.set_loss, 0.0, "server", "client")

        def flow():
            result = yield from client.call(
                "server", "incr", {"by": 1}, timeout=5, retries=3,
                idempotency_key="op-1",
            )
            return result

        run(env, flow())
        assert state["count"] == 2  # executed twice!

    def test_idempotency_key_prevents_duplicate_execution(self, env, net):
        dedup = IdempotencyStore()
        _, state = make_counter_server(net, dedup=dedup)
        client = RpcClient(net, net.node("client"))
        net.set_loss(1.0, src="server", dst="client")
        env.schedule(6.0, net.set_loss, 0.0, "server", "client")

        def flow():
            result = yield from client.call(
                "server", "incr", {"by": 1}, timeout=5, retries=3,
                idempotency_key="op-1",
            )
            return result

        result = run(env, flow())
        assert state["count"] == 1  # executed once
        assert result == 1  # recorded response returned to the retry

    def test_dedup_returns_first_response_to_later_duplicates(self, env, net):
        dedup = IdempotencyStore()
        _, state = make_counter_server(net, dedup=dedup)
        client = RpcClient(net, net.node("client"))

        def flow():
            first = yield from client.call(
                "server", "incr", {"by": 1}, idempotency_key="k"
            )
            second = yield from client.call(
                "server", "incr", {"by": 1}, idempotency_key="k"
            )
            return first, second

        assert run(env, flow()) == (1, 1)
        assert state["count"] == 1


class TestCrashRecovery:
    def test_server_restart_reregisters_listener(self, env, net):
        server, state = make_counter_server(net)
        client = RpcClient(net, net.node("client"))

        def flow():
            yield from client.call("server", "incr", {"by": 1})
            net.node("server").crash()
            net.node("server").restart()
            result = yield from client.call("server", "incr", {"by": 1}, timeout=5, retries=2)
            return result

        assert run(env, flow()) == 2

    def test_crash_mid_handler_drops_request(self, env, net):
        """Partial failure: request executing when the node dies -> timeout."""
        server, state = make_counter_server(net)
        client = RpcClient(net, net.node("client"))
        env.schedule(1.2, net.node("server").crash)  # mid-handler

        def flow():
            yield from client.call("server", "incr", {"by": 1}, timeout=5, retries=0)

        with pytest.raises(RpcTimeout):
            run(env, flow())


def make_sleep_server(net, dedup=None):
    """A server whose 'sleep' handler takes ``payload["ms"]`` and echoes it."""
    executed = []
    server = RpcServer(net, net.node("server"), dedup_store=dedup)

    def sleep(payload):
        executed.append(payload["ms"])
        yield net.env.timeout(payload["ms"])
        return payload["ms"]

    server.register("sleep", sleep)

    def boom(payload):
        yield net.env.timeout(0.1)
        raise ValueError("handler exploded")

    server.register("boom", boom)
    return server, executed


class TestGather:
    """Scatter-gather: N calls, one round trip, per-call outcomes."""

    def test_outcomes_in_call_order_after_one_round_trip(self, env, net):
        make_sleep_server(net)
        client = RpcClient(net, net.node("client"))

        def flow():
            outcomes = yield from client.gather(
                [RpcCall("server", "sleep", {"ms": ms}, timeout=100.0)
                 for ms in (30.0, 5.0, 12.0)]
            )
            return [outcome.result() for outcome in outcomes]

        assert run(env, flow()) == [30.0, 5.0, 12.0]
        assert env.now == 32.0  # the slowest call (1 + 30 + 1), not the sum
        assert client.stats.calls == 3

    def test_timeout_runs_from_each_calls_own_send(self, env, net):
        make_sleep_server(net)
        client = RpcClient(net, net.node("client"))

        def flow():
            outcomes = yield from client.gather([
                RpcCall("server", "sleep", {"ms": 28.0}, timeout=100.0),
                RpcCall("server", "sleep", {"ms": 500.0}, timeout=50.0, retries=0),
            ])
            return outcomes

        first, second = run(env, flow())
        assert first.result() == 28.0
        assert isinstance(second.error, RpcTimeout) and second.error.attempts == 1
        # collected at 30, overdue at 50 from its send at 0 - not at 30 + 50
        assert env.now == 50.0
        assert client.stats.timeouts == 1

    def test_one_failing_call_does_not_hide_the_others(self, env, net):
        make_sleep_server(net)
        net.add_node("void")  # no server bound: calls to it time out
        client = RpcClient(net, net.node("client"))

        def flow():
            outcomes = yield from client.gather([
                RpcCall("void", "sleep", {"ms": 1.0}, timeout=5.0, retries=1),
                RpcCall("server", "boom"),
                RpcCall("server", "sleep", {"ms": 2.0}),
            ])
            return outcomes

        lost, exploded, fine = run(env, flow())
        assert isinstance(lost.error, RpcTimeout) and lost.error.attempts == 2
        assert isinstance(exploded.error, RpcRemoteError)
        assert "handler exploded" in str(exploded.error)
        assert fine.error is None and fine.result() == 2.0
        with pytest.raises(RpcRemoteError):
            exploded.result()

    def test_retry_reuses_the_idempotency_key_and_is_deduplicated(self, env, net):
        _, executed = make_sleep_server(net, dedup=IdempotencyStore())
        client = RpcClient(net, net.node("client"))
        net.set_loss(1.0, src="server", dst="client")  # replies vanish
        env.schedule(6.0, net.set_loss, 0.0, "server", "client")

        def flow():
            outcomes = yield from client.gather([
                RpcCall("server", "sleep", {"ms": 1.0}, timeout=5.0,
                        idempotency_key="a"),
                RpcCall("server", "sleep", {"ms": 2.0}, timeout=5.0,
                        idempotency_key="b"),
            ])
            return [outcome.result() for outcome in outcomes]

        assert run(env, flow()) == [1.0, 2.0]
        assert executed == [1.0, 2.0]  # each executed once despite the retries
        assert client.stats.retries == 2

    def test_gather_costs_no_more_events_than_sequential_calls(self):
        def events(flow_for):
            env = Environment(seed=6)
            network = Network(env, default_latency=Latency.constant(1.0))
            network.add_node("client")
            network.add_node("server")
            make_sleep_server(network)
            client = RpcClient(network, network.node("client"))
            env.run_until(env.process(flow_for(client)))
            env.run()  # let the losing timeouts fire on both sides
            return env.events_executed

        delays = (3.0, 9.0, 1.0, 6.0)

        def sequential(client):
            for ms in delays:
                yield from client.call("server", "sleep", {"ms": ms})

        def gathered(client):
            yield from client.gather(
                [RpcCall("server", "sleep", {"ms": ms}) for ms in delays]
            )

        assert events(gathered) <= events(sequential)

    def test_a_call_object_is_single_use(self, env, net):
        make_sleep_server(net)
        client = RpcClient(net, net.node("client"))
        call = RpcCall("server", "sleep", {"ms": 1.0})

        def flow():
            yield from client.gather([call])
            yield from client.gather([call])

        with pytest.raises(ValueError):
            run(env, flow())

    def test_empty_gather_takes_no_time(self, env, net):
        client = RpcClient(net, net.node("client"))

        def flow():
            outcomes = yield from client.gather([])
            return outcomes

        assert run(env, flow()) == []
        assert env.now == 0.0
