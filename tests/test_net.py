"""Unit tests for the simulated network: latency, loss, duplication, partitions."""

import random

import pytest

from repro.net import Latency, Network, NodeCrashed
from repro.sim import Environment, Interrupted


@pytest.fixture
def env():
    return Environment(seed=5)


@pytest.fixture
def net(env):
    network = Network(env, default_latency=Latency.constant(1.0))
    network.add_node("a")
    network.add_node("b")
    return network


def collect(net, node_name, port):
    """Bind a port and return the list its messages accumulate into."""
    inbox = net.node(node_name).bind(port)
    received = []

    def pump(env):
        while True:
            msg = yield inbox.get()
            received.append(msg)

    net.node(node_name).spawn(pump(net.env))
    return received


class TestLatencySamplers:
    def test_constant(self):
        rng = random.Random(0)
        assert Latency.constant(2.5)(rng) == 2.5

    def test_uniform_bounds(self):
        rng = random.Random(0)
        sampler = Latency.uniform(1.0, 2.0)
        for _ in range(100):
            assert 1.0 <= sampler(rng) <= 2.0

    def test_lognormal_median(self):
        rng = random.Random(0)
        sampler = Latency.lognormal(10.0, 0.25)
        samples = sorted(sampler(rng) for _ in range(4001))
        median = samples[len(samples) // 2]
        assert 8.5 < median < 11.5

    def test_shifted_exponential_floor(self):
        rng = random.Random(0)
        sampler = Latency.shifted_exponential(5.0, 1.0)
        assert all(sampler(rng) >= 5.0 for _ in range(100))

    def test_validation(self):
        with pytest.raises(ValueError):
            Latency.constant(-1)
        with pytest.raises(ValueError):
            Latency.uniform(3, 2)
        with pytest.raises(ValueError):
            Latency.lognormal(0)


class TestDelivery:
    def test_message_arrives_after_latency(self, env, net):
        received = collect(net, "b", "svc")
        net.send("a", "b", "svc", {"op": "ping"})
        env.run()
        assert len(received) == 1
        msg = received[0]
        assert msg.payload == {"op": "ping"}
        assert msg.sent_at == 0.0
        assert env.now >= 1.0

    def test_unknown_destination_raises(self, net):
        with pytest.raises(KeyError):
            net.send("a", "zzz", "svc", None)

    def test_unbound_port_drops(self, env, net):
        net.send("a", "b", "nobody-listens", None)
        env.run()
        assert net.stats.dropped_dead == 1
        assert net.stats.dropped_crashed_inflight == 0
        assert net.stats.delivered == 0

    def test_stats_count_delivered(self, env, net):
        collect(net, "b", "svc")
        for _ in range(10):
            net.send("a", "b", "svc", None)
        env.run()
        assert net.stats.sent == 10
        assert net.stats.delivered == 10


class TestFaults:
    def test_loss_drops_messages(self, env, net):
        received = collect(net, "b", "svc")
        net.set_loss(1.0)
        for _ in range(5):
            net.send("a", "b", "svc", None)
        env.run()
        assert received == []
        assert net.stats.dropped_loss == 5

    def test_partial_loss_is_probabilistic(self, env, net):
        received = collect(net, "b", "svc")
        net.set_loss(0.5)
        for _ in range(400):
            net.send("a", "b", "svc", None)
        env.run()
        assert 100 < len(received) < 300

    def test_duplication_delivers_twice(self, env, net):
        received = collect(net, "b", "svc")
        net.set_duplication(1.0)
        net.send("a", "b", "svc", "hello")
        env.run()
        assert len(received) == 2
        assert received[0].msg_id == received[1].msg_id
        assert received[1].duplicate

    def test_per_link_loss_only_affects_that_link(self, env, net):
        net.add_node("c")
        received_b = collect(net, "b", "svc")
        received_c = collect(net, "c", "svc")
        net.set_loss(1.0, src="a", dst="b")
        net.send("a", "b", "svc", None)
        net.send("a", "c", "svc", None)
        env.run()
        assert received_b == []
        assert len(received_c) == 1

    def test_extra_delay(self, env, net):
        received = collect(net, "b", "svc")
        net.set_extra_delay(100.0)
        net.send("a", "b", "svc", None)
        env.run()
        assert env.now >= 101.0
        assert len(received) == 1


class TestPartitions:
    def test_partition_cuts_both_directions(self, env, net):
        received_b = collect(net, "b", "svc")
        received_a = collect(net, "a", "svc")
        net.partition(["a"], ["b"])
        net.send("a", "b", "svc", None)
        net.send("b", "a", "svc", None)
        env.run()
        assert received_a == [] and received_b == []
        assert net.stats.dropped_partition == 2

    def test_heal_restores_connectivity(self, env, net):
        received = collect(net, "b", "svc")
        net.partition(["a"], ["b"])
        net.heal()
        net.send("a", "b", "svc", None)
        env.run()
        assert len(received) == 1

    def test_partition_cuts_in_flight_messages(self, env, net):
        received = collect(net, "b", "svc")
        net.send("a", "b", "svc", None)  # in flight for 1ms
        env.schedule(0.5, net.partition, ["a"], ["b"])
        env.run()
        assert received == []
        assert net.stats.dropped_partition == 1


class TestNodeLifecycle:
    def test_crash_interrupts_processes(self, env, net):
        outcome = []

        def worker(env):
            try:
                yield env.timeout(100)
            except Interrupted as exc:
                outcome.append(exc.cause)

        node = net.node("a")
        node.spawn(worker(env))
        env.schedule(5.0, node.crash, "power loss")
        env.run()
        assert outcome == ["power loss"]

    def test_messages_to_dead_node_dropped(self, env, net):
        received = collect(net, "b", "svc")
        net.node("b").crash()
        net.send("a", "b", "svc", None)
        env.run()
        assert received == []
        assert net.stats.dropped_dead == 1
        assert net.stats.dropped_crashed_inflight == 0

    def test_crash_race_counted_separately(self, env, net):
        # Receiver alive at send time but crashes while the message is in
        # flight: that is a crash-race, not a send-to-dead.
        received = collect(net, "b", "svc")
        net.send("a", "b", "svc", None)  # in flight for 1ms
        env.schedule(0.5, net.node("b").crash)
        env.run()
        assert received == []
        assert net.stats.dropped_crashed_inflight == 1
        assert net.stats.dropped_dead == 0

    def test_spawn_on_dead_node_raises(self, env, net):
        node = net.node("a")
        node.crash()
        with pytest.raises(NodeCrashed):
            node.spawn(iter(()))

    def test_restart_fires_hooks_and_bumps_incarnation(self, env, net):
        node = net.node("a")
        hooks = []
        node.on_restart(lambda n: hooks.append(n.incarnation))
        node.crash()
        node.restart()
        assert node.alive
        assert node.incarnation == 1
        assert hooks == [1]

    def test_crash_hooks_run_after_the_processes_died(self, env, net):
        node = net.node("a")
        events = []

        def worker(env):
            try:
                yield env.timeout(100)
            finally:
                events.append("finally")

        node.spawn(worker(env))
        node.on_crash(lambda n: events.append(("hook", n.alive)))
        env.run(until=1.0)
        node.crash()
        assert events == ["finally", ("hook", False)]
        node.crash()  # already down: no second hook
        assert len(events) == 2

    def test_a_process_can_crash_its_own_node(self, env, net):
        node = net.node("a")
        outcome = []

        def bystander(env):
            try:
                yield env.timeout(100)
            except Interrupted:
                outcome.append(("bystander", env.now))

        def operator(env):
            yield env.timeout(2)
            node.crash("self")
            try:
                yield env.timeout(100)
            except Interrupted as exc:
                outcome.append(("operator", exc.cause, env.now))

        node.spawn(bystander(env))
        node.spawn(operator(env))
        node.on_crash(lambda n: outcome.append("hook"))
        env.run()
        assert outcome == [("bystander", 2.0), "hook", ("operator", "self", 2.0)]
        assert not node.alive and env.now == 102.0

    def test_restarted_node_receives_again(self, env, net):
        node = net.node("b")
        node.crash()
        node.restart()
        received = collect(net, "b", "svc")
        net.send("a", "b", "svc", "back")
        env.run()
        assert len(received) == 1

    def test_double_crash_is_noop(self, env, net):
        node = net.node("a")
        crashes = []
        node.on_crash(crashes.append)
        node.crash()
        node.crash()
        assert crashes == [node]


class TestDeterminism:
    def run_trace(self, seed):
        env = Environment(seed=seed)
        net = Network(env, default_latency=Latency.lognormal(1.0))
        net.add_node("a")
        net.add_node("b")
        inbox = net.node("b").bind("svc")
        arrivals = []

        def pump(env):
            while True:
                msg = yield inbox.get()
                arrivals.append((env.now, msg.msg_id))

        net.node("b").spawn(pump(env))
        net.set_loss(0.1)
        net.set_duplication(0.1)
        for i in range(50):
            env.schedule(float(i), net.send, "a", "b", "svc", i)
        env.run()
        return arrivals

    def test_same_seed_same_trace(self):
        assert self.run_trace(42) == self.run_trace(42)

    def test_different_seed_different_trace(self):
        assert self.run_trace(1) != self.run_trace(2)
