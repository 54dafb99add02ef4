"""Tests for the virtual actor runtime and actor transactions."""

import pytest

from repro.actors import (
    Actor,
    ActorError,
    ActorRuntime,
    ActorTransactionCoordinator,
    CommitUncertain,
    StateStorageProvider,
    TransactionFailed,
    transactional,
)
from repro.actors import runtime as actor_runtime
from repro.messaging import RpcRemoteError, RpcTimeout
from repro.net import Latency
from repro.sim import Environment


@transactional
class BankAccount(Actor):
    """The canonical actor: a bank account with explicit persistence."""

    initial_state = {"balance": 0}

    def deposit(self, amount):
        self.state["balance"] += amount
        yield from self.save_state()
        return self.state["balance"]

    def deposit_volatile(self, amount):
        """Mutates memory only — durability is the actor's problem (§3.3)."""
        self.state["balance"] += amount
        return self.state["balance"]
        yield  # pragma: no cover

    def balance(self):
        return self.state["balance"]
        yield  # pragma: no cover

    def txn_deposit(self, amount):
        """Used inside actor transactions (no explicit save: 2PC persists)."""
        self.state["balance"] += amount
        return self.state["balance"]
        yield  # pragma: no cover

    def txn_withdraw(self, amount):
        if self.state["balance"] < amount:
            raise ValueError("insufficient funds")
        self.state["balance"] -= amount
        return self.state["balance"]
        yield  # pragma: no cover


@pytest.fixture
def env():
    return Environment(seed=31)


@pytest.fixture
def runtime(env):
    rt = ActorRuntime(env, num_silos=3)
    rt.register(BankAccount)
    return rt


def run(env, gen):
    return env.run_until(env.process(gen))


class TestActivation:
    def test_call_activates_on_demand(self, env, runtime):
        ref = runtime.ref("BankAccount", "alice")

        def flow():
            return (yield from ref.call("deposit", 100))

        assert run(env, flow()) == 100
        assert runtime.stats.activations == 1

    def test_second_call_reuses_activation(self, env, runtime):
        ref = runtime.ref("BankAccount", "alice")

        def flow():
            yield from ref.call("deposit", 100)
            yield from ref.call("deposit", 50)
            return (yield from ref.call("balance"))

        assert run(env, flow()) == 150
        assert runtime.stats.activations == 1

    def test_unregistered_type_rejected(self, runtime):
        with pytest.raises(ActorError):
            runtime.ref("Unknown", "x")

    def test_placement_is_deterministic(self, runtime):
        assert runtime.place("BankAccount", "k").name == runtime.place("BankAccount", "k").name

    def test_placement_spreads_actors(self, runtime):
        silos = {runtime.place("BankAccount", f"k{i}").name for i in range(50)}
        assert len(silos) == 3


class TestTurnConcurrency:
    def test_turns_serialize_per_actor(self, env, runtime):
        """Two concurrent calls to the same actor never interleave."""
        ref = runtime.ref("BankAccount", "alice")
        results = []

        def caller(amount):
            value = yield from ref.call("deposit", amount)
            results.append(value)

        env.process(caller(10))
        env.process(caller(10))
        env.run()
        # Both turns applied sequentially: balances are 10 then 20.
        assert sorted(results) == [10, 20]

    def test_different_actors_run_concurrently(self, env, runtime):
        done_times = {}

        def caller(key):
            yield from runtime.ref("BankAccount", key).call("deposit", 1)
            done_times[key] = env.now

        env.process(caller("a"))
        env.process(caller("b"))
        env.run()
        # Concurrent (no mutual blocking): both finish in single-call time.
        assert abs(done_times["a"] - done_times["b"]) < 15


class TestFailureTransparency:
    def test_state_survives_silo_crash_if_saved(self, env, runtime):
        ref = runtime.ref("BankAccount", "alice")

        def flow():
            yield from ref.call("deposit", 100)
            host = runtime.host_of("BankAccount", "alice")
            index = int(host.split("-")[1])
            runtime.crash_silo(index)
            balance = yield from ref.call("balance", retries=2)
            return host, balance

        old_host, balance = run(env, flow())
        assert balance == 100  # state reloaded from the provider
        assert runtime.host_of("BankAccount", "alice") != old_host
        assert runtime.stats.migrations >= 1

    def test_unsaved_state_lost_on_crash(self, env, runtime):
        """§4.1: weak guarantees leave actor state inconsistent on failure."""
        ref = runtime.ref("BankAccount", "alice")

        def flow():
            yield from ref.call("deposit", 100)          # saved
            yield from ref.call("deposit_volatile", 50)  # memory only
            host = runtime.host_of("BankAccount", "alice")
            runtime.crash_silo(int(host.split("-")[1]))
            return (yield from ref.call("balance", retries=2))

        assert run(env, flow()) == 100  # the volatile 50 vanished

    def test_stale_duplicate_activation_dropped_on_failback(self, env, runtime):
        """The Orleans duplicate-activation hazard: placement moves to a
        stand-in silo during a crash, back home after the restart, then to
        the stand-in again on a second crash.  The stand-in's cached
        activation missed every write committed at home in between, so
        serving from it would resurrect stale state (found by chaos
        fuzzing as a lost actor-transaction credit)."""
        ref = runtime.ref("BankAccount", "alice")

        def flow():
            yield from ref.call("deposit", 100)
            home = int(runtime.host_of("BankAccount", "alice").split("-")[1])
            runtime.crash_silo(home)
            # Re-activates on a stand-in silo, which caches an activation.
            assert (yield from ref.call("balance", retries=2)) == 100
            runtime.restart_silo(home)
            # Placement is home again: this deposit commits there.
            yield from ref.call("deposit", 10, retries=2)
            runtime.crash_silo(home)
            # Back on the stand-in: its cached activation is stale.
            return (yield from ref.call("balance", retries=2))

        assert run(env, flow()) == 110
        assert runtime.stats.duplicates_dropped == 1

    def test_activation_migration_races_silo_restart(self, env, runtime):
        """The failback hazard, with the restart racing the migration: the
        home silo comes back *while* the crash-displaced call is still in
        flight, so the activation migrates to a stand-in even though home
        is alive again by the time it completes.  The stand-in's cached
        activation then misses the deposit committed at home and must be
        dropped — not served — when placement returns to it."""
        ref = runtime.ref("BankAccount", "alice")

        def flow():
            yield from ref.call("deposit", 100)
            home = int(runtime.host_of("BankAccount", "alice").split("-")[1])
            runtime.crash_silo(home)
            # The restart lands mid-call: placement already sampled the
            # stand-in (home was dead at dispatch), so the activation
            # migrates anyway.
            env.schedule(1.0, runtime.restart_silo, home)
            assert (yield from ref.call("balance", timeout=10, retries=3)) == 100
            standin = runtime.host_of("BankAccount", "alice")
            assert standin != f"silo-{home}"
            # Home is back and wins placement: this deposit commits there,
            # making the stand-in's cached activation stale.
            yield from ref.call("deposit", 10, retries=2)
            assert runtime.host_of("BankAccount", "alice") == f"silo-{home}"
            runtime.crash_silo(home)
            # Placement returns to the stand-in; serving its cache would
            # resurrect the pre-deposit balance.
            return (yield from ref.call("balance", retries=2))

        assert run(env, flow()) == 110
        assert runtime.stats.duplicates_dropped == 1
        assert runtime.stats.migrations >= 2

    def test_at_most_once_call_times_out_when_all_silos_down(self, env, runtime):
        for index in range(3):
            runtime.crash_silo(index)
        ref = runtime.ref("BankAccount", "x")

        def flow():
            yield from ref.call("balance", timeout=5)

        with pytest.raises(ActorError):
            run(env, flow())

    def test_call_retries_after_crash_mid_call(self, env, runtime):
        ref = runtime.ref("BankAccount", "alice")

        def flow():
            yield from ref.call("deposit", 100)
            host = runtime.host_of("BankAccount", "alice")
            env.schedule(1.0, runtime.crash_silo, int(host.split("-")[1]))
            value = yield from ref.call("balance", timeout=10, retries=3)
            return value

        assert run(env, flow()) == 100


class TestActorTransactions:
    def test_atomic_transfer(self, env, runtime):
        coordinator = ActorTransactionCoordinator(runtime)

        def flow():
            yield from runtime.ref("BankAccount", "a").call("deposit", 100)
            yield from runtime.ref("BankAccount", "b").call("deposit", 100)
            results = yield from coordinator.execute([
                ("BankAccount", "a", "txn_withdraw", (30,)),
                ("BankAccount", "b", "txn_deposit", (30,)),
            ])
            a = yield from runtime.ref("BankAccount", "a").call("balance")
            b = yield from runtime.ref("BankAccount", "b").call("balance")
            return results, a, b

        results, a, b = run(env, flow())
        assert results == [70, 130]
        assert (a, b) == (70, 130)
        assert coordinator.stats.committed == 1

    def test_failed_op_aborts_whole_transaction(self, env, runtime):
        coordinator = ActorTransactionCoordinator(runtime)

        def flow():
            yield from runtime.ref("BankAccount", "a").call("deposit", 10)
            try:
                yield from coordinator.execute([
                    ("BankAccount", "a", "txn_withdraw", (5,)),
                    ("BankAccount", "b", "txn_withdraw", (999,)),  # fails
                ])
            except TransactionFailed:
                pass
            a = yield from runtime.ref("BankAccount", "a").call("balance")
            return a

        assert run(env, flow()) == 10  # a's tentative -5 never committed
        assert coordinator.stats.aborted == 1

    def test_transaction_durably_persists(self, env, runtime):
        coordinator = ActorTransactionCoordinator(runtime)

        def flow():
            yield from coordinator.execute([
                ("BankAccount", "a", "txn_deposit", (42,)),
            ])
            host = runtime.host_of("BankAccount", "a")
            runtime.crash_silo(int(host.split("-")[1]))
            return (yield from runtime.ref("BankAccount", "a").call("balance", retries=2))

        assert run(env, flow()) == 42

    def test_conflicting_transactions_serialize(self, env, runtime):
        coordinator = ActorTransactionCoordinator(runtime)
        outcomes = []

        def transfer(src, dst):
            try:
                yield from coordinator.execute([
                    ("BankAccount", src, "txn_withdraw", (50,)),
                    ("BankAccount", dst, "txn_deposit", (50,)),
                ])
                outcomes.append("ok")
            except TransactionFailed:
                outcomes.append("aborted")

        def flow():
            yield from runtime.ref("BankAccount", "a").call("deposit", 100)
            yield from runtime.ref("BankAccount", "b").call("deposit", 100)

        run(env, flow())
        env.process(transfer("a", "b"))
        env.process(transfer("b", "a"))
        env.run()
        assert outcomes == ["ok", "ok"]  # ordered locking: no deadlock

        def check():
            a = yield from runtime.ref("BankAccount", "a").call("balance")
            b = yield from runtime.ref("BankAccount", "b").call("balance")
            return a + b

        assert run(env, check()) == 200  # conservation

    def test_silo_crash_between_prepare_and_commit_stays_atomic(self, env, runtime):
        # The participant's volatile tentative copy dies with its silo;
        # the commit must recover it from the durable prepare record so
        # the transaction applies on every participant or none.
        coordinator = ActorTransactionCoordinator(runtime)

        def flow():
            yield from runtime.ref("BankAccount", "a").call("deposit", 100)
            yield from runtime.ref("BankAccount", "b").call("deposit", 100)
            host = runtime.host_of("BankAccount", "a")
            index = int(host.split("-")[1])
            # Crash a's silo mid-commit-phase: after prepare records exist,
            # while the commit dispatches are in flight.
            env.schedule(1.0, runtime.crash_silo, index)
            env.schedule(60.0, runtime.restart_silo, index)
            yield from coordinator.execute([
                ("BankAccount", "a", "txn_withdraw", (30,)),
                ("BankAccount", "b", "txn_deposit", (30,)),
            ])
            a = yield from runtime.ref("BankAccount", "a").call("balance", retries=2)
            b = yield from runtime.ref("BankAccount", "b").call("balance", retries=2)
            return a, b

        a, b = run(env, flow())
        assert a + b == 200  # conservation despite the crash
        assert (a, b) == (70, 130)

    def test_duplicate_txn_execute_applies_once(self, env, runtime):
        coordinator = ActorTransactionCoordinator(runtime)
        runtime.net.set_duplication(1.0)  # every message delivered twice

        def flow():
            yield from coordinator.execute([
                ("BankAccount", "a", "txn_deposit", (10,)),
            ])
            return (yield from runtime.ref("BankAccount", "a").call("balance"))

        assert run(env, flow()) == 10  # not 20

    def test_transaction_slower_than_plain_call(self, env, runtime):
        """The §4.2 penalty: a transactional op costs a multiple of a call."""
        coordinator = ActorTransactionCoordinator(runtime)

        def plain():
            start = env.now
            yield from runtime.ref("BankAccount", "p").call("deposit_volatile", 1)
            return env.now - start

        def txn():
            start = env.now
            yield from coordinator.execute([
                ("BankAccount", "p", "txn_deposit", (1,)),
            ])
            return env.now - start

        plain_cost = run(env, plain())
        txn_cost = run(env, txn())
        assert txn_cost > 2 * plain_cost

    def test_commit_reaches_every_participant_before_raising(self, env, runtime):
        """An undeliverable commit to one participant must not keep the
        others from installing: ``a`` (first in sorted order) is cut off
        from the client once every prepare record is durable, ``b`` still
        commits, and only then is the uncertainty raised."""
        coordinator = ActorTransactionCoordinator(runtime)
        silo_a = runtime.place("BankAccount", "a").name
        assert runtime.place("BankAccount", "b").name != silo_a
        save_many = runtime.provider.save_many

        def save_then_partition(items):
            del runtime.provider.save_many  # the prepare round only
            yield from save_many(items)
            runtime.net.partition(["actor-client"], [silo_a])

        def flow():
            yield from runtime.ref("BankAccount", "a").call("deposit", 100)
            yield from runtime.ref("BankAccount", "b").call("deposit", 100)
            runtime.provider.save_many = save_then_partition
            yield from coordinator.execute([
                ("BankAccount", "a", "txn_withdraw", (30,)),
                ("BankAccount", "b", "txn_deposit", (30,)),
            ])

        with pytest.raises(CommitUncertain):
            run(env, flow())
        assert runtime.provider.peek("BankAccount", "b")["balance"] == 130
        assert runtime.provider.peek("BankAccount", "a")["balance"] == 100
        # a's decision is still recoverable from its prepare record.
        prepared = [key for (_t, key) in runtime.provider._data if "#prepare-" in key]
        assert prepared == ["a#prepare-1"]

    def test_a_failed_op_does_not_drop_the_rest_of_its_round(self, env, runtime):
        """In a two-op round ``a``'s withdrawal fails and ``b``'s deposit
        succeeds.  The round raises ``a``'s error, but ``b``'s tentative
        state is recorded first: a driver that catches the error and calls
        no actor again still commits ``b``'s deposit, and ``b`` keeps no
        prepare record."""
        coordinator = ActorTransactionCoordinator(runtime)

        def driver(session):
            with pytest.raises(RpcRemoteError):
                yield from session.call_many([
                    ("BankAccount", "a", "txn_withdraw", (500,)),
                    ("BankAccount", "b", "txn_deposit", (30,)),
                ])
            return "caught"

        def flow():
            yield from runtime.ref("BankAccount", "a").call("deposit", 100)
            yield from runtime.ref("BankAccount", "b").call("deposit", 100)
            result = yield from coordinator.execute_dynamic(
                [("BankAccount", "a"), ("BankAccount", "b")], driver
            )
            return result

        assert run(env, flow()) == "caught"
        assert runtime.provider.peek("BankAccount", "a")["balance"] == 100
        assert runtime.provider.peek("BankAccount", "b")["balance"] == 130
        assert not [key for (_t, key) in runtime.provider._data if "#prepare-" in key]
        assert coordinator.stats.committed == 1


def _constant_runtime(env):
    runtime = ActorRuntime(env, num_silos=3)
    runtime.register(BankAccount)
    return runtime


class TestRounds:
    """Each transaction phase reaches every participant in one round."""

    NET_MS = 1.0
    STORE_MS = 5.0

    @pytest.fixture(autouse=True)
    def constant_latencies(self, monkeypatch):
        monkeypatch.setattr(actor_runtime, "NETWORK_LATENCY", Latency.constant(self.NET_MS))
        monkeypatch.setattr(actor_runtime, "STORE_LATENCY", Latency.constant(self.STORE_MS))

    def test_two_actor_transaction_costs_four_rounds(self):
        """Exact virtual time of a read-then-write transfer over two
        activated actors, network one-way latency ``n``, provider latency
        ``p``, locks free:

        - read round: both ``txn_execute`` reads out and back, ``2n``;
        - write round: both tentative writes, ``2n``;
        - prepare round: both records in one ``save_many``, ``p``;
        - commit round: ``txn_commit`` out and back, each participant
          saving its state and deleting its record, ``2n + 2p``.

        Total ``6n + 3p`` = 21 ms at n = 1, p = 5.  Visiting participants
        one at a time costs ``12n + 6p`` = 42 ms.
        """
        env = Environment(seed=31)
        runtime = _constant_runtime(env)
        coordinator = ActorTransactionCoordinator(runtime)
        n, p = self.NET_MS, self.STORE_MS

        def transfer(session):
            balances = yield from session.call_many([
                ("BankAccount", "a", "balance", ()),
                ("BankAccount", "b", "balance", ()),
            ])
            assert balances == [100, 100]
            yield from session.call_many([
                ("BankAccount", "a", "txn_withdraw", (30,)),
                ("BankAccount", "b", "txn_deposit", (30,)),
            ])

        def flow():
            yield from runtime.ref("BankAccount", "a").call("deposit", 100)
            yield from runtime.ref("BankAccount", "b").call("deposit", 100)
            start = env.now
            yield from coordinator.execute_dynamic(
                [("BankAccount", "a"), ("BankAccount", "b")], transfer
            )
            return env.now - start

        assert run(env, flow()) == 6 * n + 3 * p
        assert runtime.provider.peek("BankAccount", "a")["balance"] == 70
        assert runtime.provider.peek("BankAccount", "b")["balance"] == 130

    def test_gather_over_three_silos_costs_one_round_trip(self):
        env = Environment(seed=31)
        runtime = _constant_runtime(env)
        keys = ["a", "b", "d"]
        assert len({runtime.place("BankAccount", key).name for key in keys}) == 3

        def flow():
            for key in keys:
                yield from runtime.ref("BankAccount", key).call("deposit", 1)
            start = env.now
            outcomes = yield from runtime.gather(
                [("BankAccount", key, "balance", ()) for key in keys],
                timeout=50.0, retries=0,
            )
            return env.now - start, [outcome.result() for outcome in outcomes]

        elapsed, balances = run(env, flow())
        assert balances == [1, 1, 1]
        assert elapsed == 2 * self.NET_MS

    def test_gather_retries_a_timed_out_call_on_its_new_placement(self):
        """``a``'s silo dies while its first attempt is in flight: after
        the timeout ``t`` the call is re-placed and re-activates ``a`` from
        the provider (``2n + p``), while ``b``'s reply was already in."""
        env = Environment(seed=31)
        runtime = _constant_runtime(env)
        home = runtime.place("BankAccount", "a").name
        n, p, t = self.NET_MS, self.STORE_MS, 10.0

        def flow():
            yield from runtime.ref("BankAccount", "a").call("deposit", 7)
            env.schedule(n / 2, runtime.crash_silo, int(home.split("-")[1]))
            start = env.now
            outcomes = yield from runtime.gather(
                [("BankAccount", "a", "balance", ()), ("BankAccount", "b", "balance", ())],
                timeout=t, retries=1,
            )
            return env.now - start, [outcome.result() for outcome in outcomes]

        elapsed, balances = run(env, flow())
        assert balances == [7, 0]
        assert runtime.host_of("BankAccount", "a") != home
        assert elapsed == t + 2 * n + p
        assert runtime.stats.dropped_calls == 0

    def test_gather_reports_a_call_out_of_retries_without_hiding_the_others(self):
        env = Environment(seed=31)
        runtime = _constant_runtime(env)
        runtime.net.partition(["actor-client"], [runtime.place("BankAccount", "a").name])

        def flow():
            outcomes = yield from runtime.gather(
                [("BankAccount", "a", "balance", ()), ("BankAccount", "b", "balance", ())],
                timeout=5.0, retries=1,
            )
            return outcomes

        lost, found = run(env, flow())
        assert isinstance(lost.error, RpcTimeout)
        assert found.result() == 0
        assert runtime.stats.dropped_calls == 1

    def test_save_many_draws_one_latency_per_item_in_item_order(self, monkeypatch):
        """One draw per item from the provider's own stream, then one wait
        of the slowest — so two runs of the same seed produce the same
        history, and the next save takes the next draw."""
        monkeypatch.setattr(actor_runtime, "STORE_LATENCY", Latency.uniform(1.0, 9.0))

        def run_once():
            env = Environment(seed=9)
            provider = StateStorageProvider(env)
            history = []

            def flow():
                yield from provider.save_many(
                    [("T", f"k{i}", {"v": i}) for i in range(3)]
                )
                history.append(env.now)
                yield from provider.save("T", "k3", {"v": 3})
                history.append(env.now)

            run(env, flow())
            return history, provider

        history, provider = run_once()
        reference = Environment(seed=9).stream("actor-state-store")
        draws = [reference.uniform(1.0, 9.0) for _ in range(4)]
        assert history == [max(draws[:3]), max(draws[:3]) + draws[3]]
        assert [provider.peek("T", f"k{i}") for i in range(4)] == [{"v": i} for i in range(4)]
        assert provider.saves == 4
        assert run_once()[0] == history
