"""Tests for 2PC participant recovery, vector clocks, and the causal store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, IsolationLevel
from repro.sim import Environment
from repro.transactions import CausalStore, VectorClock

SER = IsolationLevel.SERIALIZABLE


@pytest.fixture
def env():
    return Environment(seed=13)


def run(env, gen):
    return env.run_until(env.process(gen))


def make_bank(env, name):
    db = Database(env, name=name)
    db.create_table("accounts", primary_key="id")
    db.load("accounts", [{"id": "acct", "balance": 100}])
    return db


class TestParticipantFailureWindow:
    """Participant crash after voting yes: the prepared "zombie" must keep
    blocking conflicting work across the restart, or a writer can commit
    over rows the in-doubt transaction installs at resolve time."""

    def _prepare_zombie(self, env, db):
        def flow():
            txn = db.begin(SER)
            yield from db.update(txn, "accounts", "acct", {"balance": 0})
            yield from db.prepare(txn)
            return txn

        txn = run(env, flow())
        db.crash()
        db.recover()
        assert db.in_doubt() == [txn.tid]
        return txn

    def _deposit(self, env, db, amount, log):
        """A conflicting read-modify-write: final balance reveals whether
        it observed the in-doubt commit or the pre-prepare state."""
        txn = db.begin(SER)
        row = yield from db.get(txn, "accounts", "acct")
        yield from db.update(txn, "accounts", "acct",
                             {"balance": row["balance"] + amount})
        yield from db.commit(txn)
        log.append(env.now)

    def test_zombie_prepared_txn_blocks_writer_until_commit(self, env):
        db = make_bank(env, "a")
        zombie = self._prepare_zombie(env, db)
        committed = []
        env.process(self._deposit(env, db, 5, committed))
        env.run(until=100)
        assert committed == []  # recovered in-doubt txn still holds locks
        db.resolve_in_doubt(zombie.tid, commit=True)
        env.run(until=200)
        assert committed  # decision released the locks
        # Writer ran after the in-doubt commit: 0 + 5, not 100 + 5.
        assert db.read_latest("accounts", "acct")["balance"] == 5

    def test_zombie_prepared_txn_abort_discards_writes(self, env):
        db = make_bank(env, "a")
        zombie = self._prepare_zombie(env, db)
        committed = []
        env.process(self._deposit(env, db, 5, committed))
        env.run(until=100)
        assert committed == []
        db.resolve_in_doubt(zombie.tid, commit=False)
        env.run(until=200)
        assert committed
        # Aborted zombie left no trace: 100 + 5.
        assert db.read_latest("accounts", "acct")["balance"] == 105

    def test_resolved_in_doubt_commit_survives_second_crash(self, env):
        db = make_bank(env, "a")
        zombie = self._prepare_zombie(env, db)
        db.resolve_in_doubt(zombie.tid, commit=True)
        db.crash()
        db.recover()
        assert db.in_doubt() == []
        assert db.read_latest("accounts", "acct")["balance"] == 0

    def test_coordinator_and_participant_both_crash(self, env):
        """The worst window: the coordinator dies before deciding AND the
        participant restarts while prepared.  Nobody delivers the decision
        until the test does; the participant must block throughout, then
        land the commit exactly once even if the decision arrives twice."""
        db = make_bank(env, "a")
        zombie = self._prepare_zombie(env, db)
        committed = []
        env.process(self._deposit(env, db, 5, committed))
        env.run(until=100)
        assert committed == []  # blocked: no decision has been delivered
        db.resolve_in_doubt(zombie.tid, commit=True)
        env.run(until=200)
        assert committed
        db.resolve_in_doubt(zombie.tid, commit=True)  # a recovered coordinator resends
        assert db.in_doubt() == []
        assert db.read_latest("accounts", "acct")["balance"] == 5


class TestVectorClock:
    def test_increment_and_get(self):
        vc = VectorClock().increment("a").increment("a").increment("b")
        assert vc.get("a") == 2
        assert vc.get("b") == 1
        assert vc.get("zzz") == 0

    def test_happens_before(self):
        earlier = VectorClock().increment("a")
        later = earlier.increment("b")
        assert later.dominates(earlier)
        assert not earlier.dominates(later)

    def test_concurrency(self):
        base = VectorClock()
        left = base.increment("a")
        right = base.increment("b")
        assert not left.dominates(right) and not right.dominates(left)
        assert left.dominates(left)

    def test_merge_is_pointwise_max(self):
        left = VectorClock({"a": 3, "b": 1})
        right = VectorClock({"a": 1, "b": 5, "c": 2})
        merged = left.merge(right)
        assert merged.as_dict() == {"a": 3, "b": 5, "c": 2}

    def test_equality_ignores_zero_entries(self):
        assert VectorClock({"a": 1, "b": 0}) == VectorClock({"a": 1})
        assert hash(VectorClock({"a": 1, "b": 0})) == hash(VectorClock({"a": 1}))

    def test_immutability_of_operations(self):
        vc = VectorClock({"a": 1})
        vc.increment("a")
        vc.merge(VectorClock({"b": 9}))
        assert vc.as_dict() == {"a": 1}

    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=20)
    )
    def test_chain_of_increments_is_totally_ordered(self, ops):
        clocks = [VectorClock()]
        for replica in ops:
            clocks.append(clocks[-1].increment(replica))
        for i in range(len(clocks) - 1):
            assert clocks[i + 1].dominates(clocks[i])
            assert not clocks[i].dominates(clocks[i + 1])


class TestCausalStore:
    def test_read_your_writes_on_same_replica(self, env):
        store = CausalStore(env, ["r1", "r2"])
        session = store.session("r1")
        session.write("k", "v")

        def flow():
            return (yield from session.read("k"))

        assert run(env, flow()) == "v"

    def test_eventual_read_can_be_stale(self, env):
        store = CausalStore(env, ["r1", "r2"], replication_delay=10.0)
        writer = store.session("r1")
        writer.write("k", "new")
        reader = store.session("r2")
        assert reader.read_eventual("k") is None  # replication not done

    def test_causal_read_waits_for_session_context(self, env):
        """Session moves replicas: read blocks until r2 caught up."""
        store = CausalStore(env, ["r1", "r2"], replication_delay=10.0)
        session = store.session("r1")
        session.write("k", "v")
        session.replica = "r2"

        def flow():
            value = yield from session.read("k")
            return env.now, value

        when, value = run(env, flow())
        assert value == "v"
        assert when >= 10.0
        assert store.stats.stale_reads_prevented == 1

    def test_cross_service_context_attach(self, env):
        """Antipode-style lineage: service B adopts A's context."""
        store = CausalStore(env, ["r1", "r2"], replication_delay=10.0)
        service_a = store.session("r1")
        service_a.write("order", "placed")
        service_b = store.session("r2")
        service_b.attach(service_a.context)

        def flow():
            return (yield from service_b.read("order"))

        assert run(env, flow()) == "placed"

    def test_dependency_buffering_orders_applies(self, env):
        """A later write never becomes visible before its dependency."""
        store = CausalStore(env, ["r1", "r2", "r3"], replication_delay=5.0)
        session_a = store.session("r1")
        session_a.write("x", 1)

        # A session on r2 that has seen x=1 writes y (depends on x).
        def flow():
            session_b = store.session("r2")
            session_b.attach(session_a.context)
            value = yield from session_b.read("x")
            assert value == 1
            session_b.write("y", "after-x")
            # On r3, whenever y is visible, x must be too.
            checks = []
            for _ in range(30):
                yield env.timeout(1.0)
                y_value, _ = store.read("r3", "y")
                x_value, _ = store.read("r3", "x")
                if y_value is not None:
                    checks.append(x_value)
            return checks

        checks = run(env, flow())
        assert checks  # y did become visible
        assert all(value == 1 for value in checks)

    def test_no_replicas_rejected(self, env):
        with pytest.raises(ValueError):
            CausalStore(env, [])
