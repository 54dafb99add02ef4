"""Tests for repro.flow and its integration into RPC, retries, and the broker.

Covers the overload-protection stack end to end: retry budgets,
priority-class admission control, credit gates, deadline propagation, the
client-restart pending-call regression, and bounded broker partitions.
"""

import pytest

from repro.flow import (
    AdmissionController,
    CreditGate,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    RetryBudget,
)
from repro.messaging import Broker, RpcError, RpcRejected, RpcTimeout
from repro.messaging.rpc import RpcClient, RpcServer
from repro.net import Latency, Network
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment(seed=17)


@pytest.fixture
def net(env):
    network = Network(env, default_latency=Latency.constant(1.0))
    network.add_node("client")
    network.add_node("server")
    return network


def run(env, gen):
    return env.run_until(env.process(gen))


class TestRetryBudget:
    def test_burst_then_dry(self):
        budget = RetryBudget(capacity=3.0, refund=0.0)
        assert [budget.try_spend() for _ in range(4)] == [True, True, True, False]
        assert budget.tokens < 1.0  # dry

    def test_successes_refill_fractionally(self):
        budget = RetryBudget(capacity=2.0, refund=0.5)
        assert budget.try_spend() and budget.try_spend()
        assert not budget.try_spend()
        budget.on_success()
        assert not budget.try_spend()  # 0.5 tokens: still below a whole one
        budget.on_success()
        assert budget.try_spend()  # 1.0 tokens: one retry earned back
        assert budget.refunded == 2

    def test_refund_capped_at_capacity(self):
        budget = RetryBudget(capacity=2.0, refund=1.0)
        for _ in range(5):
            budget.on_success()
        assert budget.tokens == 2.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RetryBudget(capacity=0)
        with pytest.raises(ValueError):
            RetryBudget(refund=-0.1)


class TestAdmissionController:
    def test_priority_watermarks(self):
        ctrl = AdmissionController(10)
        assert ctrl.limit_for(PRIORITY_LOW) == 5
        assert ctrl.limit_for(PRIORITY_NORMAL) == 9
        assert ctrl.limit_for(PRIORITY_HIGH) == 10

    def test_low_priority_sheds_first(self):
        ctrl = AdmissionController(4)  # limits: low 2, normal 3, high 4
        assert ctrl.try_admit(PRIORITY_LOW) and ctrl.try_admit(PRIORITY_LOW)
        assert not ctrl.try_admit(PRIORITY_LOW)  # low watermark hit ...
        assert ctrl.try_admit(PRIORITY_NORMAL)  # ... but normal still fits
        assert not ctrl.try_admit(PRIORITY_NORMAL)
        assert ctrl.try_admit(PRIORITY_HIGH)  # high gets the last slot
        assert not ctrl.try_admit(PRIORITY_HIGH)
        assert ctrl.stats.shed == {PRIORITY_LOW: 1, PRIORITY_NORMAL: 1,
                                   PRIORITY_HIGH: 1}
        assert ctrl.stats.shed_total == 3

    def test_release_reopens_admission(self):
        ctrl = AdmissionController(1)
        assert ctrl.try_admit(PRIORITY_HIGH)
        assert not ctrl.try_admit(PRIORITY_HIGH)
        ctrl.release()
        assert ctrl.try_admit(PRIORITY_HIGH)
        assert ctrl.stats.completed == 1

    def test_release_without_admit_raises(self):
        with pytest.raises(RuntimeError):
            AdmissionController(1).release()


class TestCreditGate:
    def test_try_acquire_until_empty(self, env):
        gate = CreditGate(env, 2)
        assert gate.try_acquire() and gate.try_acquire()
        assert not gate.try_acquire()
        gate.release()
        assert gate.available == 1

    def test_acquire_blocks_and_wakes_fifo(self, env):
        gate = CreditGate(env, 1)
        order = []

        def worker(name, hold_ms):
            yield gate.acquire()
            order.append(f"{name}:in")
            yield env.timeout(hold_ms)
            order.append(f"{name}:out")
            gate.release()

        env.process(worker("a", 5))
        env.process(worker("b", 5))
        env.process(worker("c", 5))
        env.run()
        assert order == ["a:in", "a:out", "b:in", "b:out", "c:in", "c:out"]
        assert gate.blocked == 2

    def test_release_beyond_capacity_raises(self, env):
        gate = CreditGate(env, 1)
        with pytest.raises(RuntimeError):
            gate.release()


def make_slow_server(net, admission=None, service_ms=10.0):
    server = RpcServer(net, net.node("server"), admission=admission)

    def slow(payload):
        yield net.env.timeout(service_ms)
        return "done"

    server.register("slow", slow)
    return server


class TestRpcAdmission:
    def test_shed_is_distinct_typed_error(self, env, net):
        """Rejection must never look like a timeout: shed work definitely
        did not execute, timed-out work may have."""
        admission = AdmissionController(4)  # limits: low 2, normal 3, high 4
        server = make_slow_server(net, admission=admission)
        client = RpcClient(net, net.node("client"))
        outcomes = {}

        def caller(tag, priority):
            try:
                outcomes[tag] = (yield from client.call(
                    "server", "slow", timeout=50, retries=0, priority=priority
                ))
            except RpcRejected as exc:
                outcomes[tag] = exc

        for i, priority in enumerate(
            [PRIORITY_LOW, PRIORITY_LOW, PRIORITY_LOW,
             PRIORITY_NORMAL, PRIORITY_HIGH]
        ):
            env.schedule(0.1 * i, lambda t=i, p=priority: env.process(
                caller(t, p)))
        env.run()

        # 2 low + 1 normal + 1 high admitted; the third low-priority shed.
        assert isinstance(outcomes[2], RpcRejected)
        assert not isinstance(outcomes[2], RpcTimeout)
        for tag in (0, 1, 3, 4):
            assert outcomes[tag] == "done"
        assert server.stats.shed == 1
        assert client.stats.rejected == 1
        assert admission.stats.shed == {PRIORITY_LOW: 1}

    def test_rejection_is_never_retried(self, env, net):
        admission = AdmissionController(1)
        server = make_slow_server(net, admission=admission, service_ms=30.0)
        client = RpcClient(net, net.node("client"))

        def occupy():
            yield from client.call("server", "slow", timeout=50,
                                   priority=PRIORITY_HIGH)

        outcome = {}

        def shed_me():
            try:
                yield from client.call("server", "slow", timeout=50, retries=5)
            except RpcRejected as exc:
                outcome["error"] = exc
                outcome["at"] = env.now

        env.process(occupy())
        env.schedule(2.0, lambda: env.process(shed_me()))
        env.run()
        assert isinstance(outcome["error"], RpcRejected)
        assert outcome["at"] < 10.0  # failed fast, well before the timeout
        assert client.stats.retries == 0  # no retry storm

    def test_slots_free_after_completion(self, env, net):
        admission = AdmissionController(1)
        make_slow_server(net, admission=admission)
        client = RpcClient(net, net.node("client"))

        def flow():
            first = yield from client.call("server", "slow", timeout=50,
                                           priority=PRIORITY_HIGH)
            second = yield from client.call("server", "slow", timeout=50,
                                            priority=PRIORITY_HIGH)
            return first, second

        assert run(env, flow()) == ("done", "done")
        assert admission.inflight == 0
        assert admission.stats.completed == 2


class TestRpcDeadline:
    def test_server_drops_expired_request(self, env, net):
        """Deadline propagation: work nobody is waiting for is not done."""
        state = {"executed": 0}
        server = RpcServer(net, net.node("server"))

        def handler(payload):
            state["executed"] += 1
            yield net.env.timeout(1.0)
            return "done"

        server.register("op", handler)
        client = RpcClient(net, net.node("client"))

        def flow():
            # Deadline expires while the request is in flight (1 ms latency).
            yield from client.call("server", "op", timeout=50, retries=2,
                                   deadline=env.now + 0.5)

        with pytest.raises(RpcTimeout):
            run(env, flow())
        assert client.stats.retries == 0  # no retry past the deadline
        env.run()  # let the in-flight request reach the server
        assert state["executed"] == 0
        assert server.stats.expired_dropped == 1

    def test_deadline_bounds_total_wait(self, env, net):
        make_slow_server(net)
        net.node("server").crash()
        client = RpcClient(net, net.node("client"))

        def flow():
            yield from client.call("server", "slow", timeout=100, retries=5,
                                   deadline=env.now + 10.0)

        with pytest.raises(RpcTimeout):
            run(env, flow())
        assert env.now <= 10.0 + 1e-9


class TestRpcRetryBudget:
    def test_budget_exhaustion_stops_retries(self, env, net):
        make_slow_server(net)
        net.node("server").crash()
        client = RpcClient(net, net.node("client"))
        budget = RetryBudget(capacity=2.0, refund=0.1)

        def flow():
            yield from client.call("server", "slow", timeout=5, retries=10,
                                   retry_budget=budget)

        with pytest.raises(RpcTimeout) as excinfo:
            run(env, flow())
        assert excinfo.value.attempts == 3  # initial + 2 budgeted retries
        assert client.stats.retries == 2
        assert client.stats.budget_stopped == 1
        assert budget.tokens < 1.0  # dry

    def test_successes_earn_retries_back(self, env, net):
        make_slow_server(net, service_ms=1.0)
        client = RpcClient(net, net.node("client"))
        budget = RetryBudget(capacity=2.0, refund=0.5)

        def flow():
            for _ in range(4):
                yield from client.call("server", "slow", timeout=50,
                                       retry_budget=budget)

        run(env, flow())
        assert budget.refunded == 4
        assert budget.tokens == pytest.approx(2.0)  # capped at capacity


class TestRpcClientRestart:
    def test_restart_fails_pending_calls(self, env, net):
        """Regression: ``_pending`` futures survived a client-node restart,
        leaking calls that could never complete (their reply correlation
        state was gone) and stalling callers until the full timeout."""
        make_slow_server(net, service_ms=20.0)
        client = RpcClient(net, net.node("client"))
        outcome = {}

        def flow():
            try:
                yield from client.call("server", "slow", timeout=100, retries=0)
            except RpcError as exc:
                outcome["error"] = exc
                outcome["at"] = env.now

        env.process(flow())
        env.schedule(5.0, net.node("client").crash)
        env.schedule(8.0, net.node("client").restart)
        env.run()

        assert "restarted" in str(outcome["error"])
        assert not isinstance(outcome["error"], RpcTimeout)
        assert outcome["at"] == 8.0  # failed at restart, not after 100 ms
        assert not client._pending  # the leak this regression test pins

    def test_client_usable_after_restart(self, env, net):
        make_slow_server(net, service_ms=1.0)
        client = RpcClient(net, net.node("client"))

        def flow():
            net.node("client").crash()
            net.node("client").restart()
            return (yield from client.call("server", "slow", timeout=50))

        assert run(env, flow()) == "done"


class TestBoundedBroker:
    def test_producer_blocks_at_backlog_bound(self, env):
        broker = Broker(env, max_backlog=2)
        broker.create_topic("jobs", partitions=1)
        published = []

        def producer():
            for i in range(5):
                yield from broker.publish("jobs", "k", i)
                published.append(i)

        env.process(producer())
        env.run(until=50.0)
        # No consumer has ever committed: the producer stalls at the bound.
        assert published == [0, 1]
        assert broker.stats.blocked_publishes == 0  # still parked, not woken
        assert broker.backlog("jobs", 0) == 2

    def test_consumer_commit_releases_producer_credits(self, env):
        broker = Broker(env, max_backlog=2)
        broker.create_topic("jobs", partitions=1)
        published = []

        def producer():
            for i in range(5):
                yield from broker.publish("jobs", "k", i)
                published.append(i)

        def consumer():
            c = broker.consumer("g", "jobs")
            seen = []
            while len(seen) < 5:
                batch = yield from c.poll(max_records=1)
                seen.extend(r.value for r in batch)
                yield env.timeout(5.0)  # slow consumer ...
                yield from c.commit()  # ... whose commits pace the producer
            return seen

        env.process(producer())
        consumed = run(env, consumer())
        assert published == [0, 1, 2, 3, 4]
        assert consumed == [0, 1, 2, 3, 4]
        assert broker.stats.blocked_publishes >= 1
        assert broker.backlog("jobs", 0) == 0

    def test_unbounded_broker_unchanged(self, env):
        broker = Broker(env)
        broker.create_topic("jobs", partitions=1)

        def producer():
            for i in range(100):
                yield from broker.publish("jobs", "k", i)
            return broker.backlog("jobs", 0)

        assert run(env, producer()) == 100  # grew without blocking
        assert broker.stats.blocked_publishes == 0

    def test_invalid_bound_rejected(self, env):
        with pytest.raises(ValueError):
            Broker(env, max_backlog=0)
