"""Tests for the transactional engine: CRUD, isolation, recovery, XA."""

import pytest

from repro.db import (
    Database,
    DeadlockAbort,
    DuplicateKey,
    IsolationLevel,
    TxnStatus,
    WriteConflict,
)
from repro.db.errors import InvalidTransactionState, NoSuchTable
from repro.obs import Tracer
from repro.sim import Environment

RC = IsolationLevel.READ_COMMITTED
SI = IsolationLevel.SNAPSHOT
SER = IsolationLevel.SERIALIZABLE


@pytest.fixture
def env():
    return Environment(seed=2)


@pytest.fixture
def db(env):
    database = Database(env)
    database.create_table("accounts", primary_key="id")
    database.load(
        "accounts",
        [
            {"id": "alice", "balance": 100},
            {"id": "bob", "balance": 50},
        ],
    )
    return database


def run(env, gen):
    """Drive a generator to completion as a simulation process."""
    return env.run_until(env.process(gen))


class TestCrud:
    def test_get_existing(self, env, db):
        def txn_body():
            txn = db.begin(SER)
            row = yield from db.get(txn, "accounts", "alice")
            yield from db.commit(txn)
            return row

        assert run(env, txn_body())["balance"] == 100

    def test_get_missing_returns_none(self, env, db):
        def txn_body():
            txn = db.begin(SER)
            row = yield from db.get(txn, "accounts", "nobody")
            yield from db.commit(txn)
            return row

        assert run(env, txn_body()) is None

    def test_insert_and_read_back(self, env, db):
        def txn_body():
            txn = db.begin(SER)
            yield from db.insert(txn, "accounts", {"id": "carol", "balance": 10})
            row = yield from db.get(txn, "accounts", "carol")
            yield from db.commit(txn)
            return row

        assert run(env, txn_body())["balance"] == 10
        assert db.read_latest("accounts", "carol")["balance"] == 10

    def test_insert_duplicate_raises_and_aborts(self, env, db):
        def txn_body():
            txn = db.begin(SER)
            yield from db.insert(txn, "accounts", {"id": "alice", "balance": 0})

        with pytest.raises(DuplicateKey):
            run(env, txn_body())
        assert db.read_latest("accounts", "alice")["balance"] == 100

    def test_update_merges_changes(self, env, db):
        def txn_body():
            txn = db.begin(SER)
            row = yield from db.update(txn, "accounts", "bob", {"balance": 75})
            yield from db.commit(txn)
            return row

        assert run(env, txn_body())["balance"] == 75

    def test_update_missing_raises(self, env, db):
        def txn_body():
            txn = db.begin(SER)
            yield from db.update(txn, "accounts", "ghost", {"balance": 1})

        with pytest.raises(KeyError):
            run(env, txn_body())

    def test_delete(self, env, db):
        def txn_body():
            txn = db.begin(SER)
            yield from db.delete(txn, "accounts", "bob")
            yield from db.commit(txn)

        run(env, txn_body())
        assert db.read_latest("accounts", "bob") is None

    def test_scan_with_predicate(self, env, db):
        def txn_body():
            txn = db.begin(SER)
            rows = yield from db.scan(txn, "accounts", lambda r: r["balance"] > 60)
            yield from db.commit(txn)
            return rows

        rows = run(env, txn_body())
        assert [r["id"] for r in rows] == ["alice"]

    def test_scan_sees_own_writes(self, env, db):
        def txn_body():
            txn = db.begin(SER)
            yield from db.insert(txn, "accounts", {"id": "zed", "balance": 1})
            yield from db.delete(txn, "accounts", "bob")
            rows = yield from db.scan(txn, "accounts")
            yield from db.commit(txn)
            return sorted(r["id"] for r in rows)

        assert run(env, txn_body()) == ["alice", "zed"]

    def test_abort_discards_writes(self, env, db):
        def txn_body():
            txn = db.begin(SER)
            yield from db.put(txn, "accounts", "alice", {"id": "alice", "balance": 0})
            db.abort(txn)

        run(env, txn_body())
        assert db.read_latest("accounts", "alice")["balance"] == 100

    def test_no_such_table(self, env, db):
        def txn_body():
            txn = db.begin(SER)
            yield from db.get(txn, "nope", 1)

        with pytest.raises(NoSuchTable):
            run(env, txn_body())

    def test_operations_on_finished_txn_rejected(self, env, db):
        def txn_body():
            txn = db.begin(SER)
            yield from db.commit(txn)
            yield from db.get(txn, "accounts", "alice")

        with pytest.raises(InvalidTransactionState):
            run(env, txn_body())

    def test_returned_rows_cannot_corrupt_store(self, env, db):
        def txn_body():
            txn = db.begin(SER)
            row = yield from db.get(txn, "accounts", "alice")
            # Committed rows are immutable (copy elision): in-place mutation
            # raises instead of silently leaking into the store, and a
            # dict(row) copy is free to change.
            with pytest.raises(TypeError):
                row["balance"] = -999
            scratch = dict(row)
            scratch["balance"] = -999
            yield from db.commit(txn)

        run(env, txn_body())
        assert db.read_latest("accounts", "alice")["balance"] == 100


class TestIsolationAnomalies:
    """Each isolation level shows (exactly) its textbook anomalies."""

    def _racing_increments(self, env, db, isolation):
        """Two read-modify-write txns on the same key; think time overlaps."""
        outcomes = []

        def incrementer(delay):
            txn = db.begin(isolation)
            row = yield from db.get(txn, "accounts", "alice")
            yield env.timeout(delay)  # overlap window
            try:
                yield from db.put(
                    txn, "accounts", "alice",
                    {"id": "alice", "balance": row["balance"] + 10},
                )
                yield from db.commit(txn)
                outcomes.append("committed")
            except (WriteConflict, DeadlockAbort):
                db.abort(txn)
                outcomes.append("aborted")

        env.process(incrementer(5))
        env.process(incrementer(5))
        env.run()
        return outcomes

    def test_read_committed_allows_lost_update(self, env, db):
        outcomes = self._racing_increments(env, db, RC)
        assert outcomes == ["committed", "committed"]
        # Both added 10, but one update was lost:
        assert db.read_latest("accounts", "alice")["balance"] == 110

    def test_snapshot_prevents_lost_update(self, env, db):
        outcomes = self._racing_increments(env, db, SI)
        assert sorted(outcomes) == ["aborted", "committed"]
        assert db.read_latest("accounts", "alice")["balance"] == 110

    def test_serializable_prevents_lost_update(self, env, db):
        outcomes = self._racing_increments(env, db, SER)
        # 2PL: S->X upgrade deadlock aborts one; the other commits.
        assert sorted(outcomes) == ["aborted", "committed"]
        assert db.read_latest("accounts", "alice")["balance"] == 110

    def test_snapshot_allows_write_skew(self, env, db):
        """Constraint: alice + bob >= 0; both withdraw based on the sum."""

        def withdrawer(me, other):
            txn = db.begin(SI)
            mine = yield from db.get(txn, "accounts", me)
            theirs = yield from db.get(txn, "accounts", other)
            yield env.timeout(5)
            if mine["balance"] + theirs["balance"] >= 150:
                yield from db.put(
                    txn, "accounts", me,
                    {"id": me, "balance": mine["balance"] - 100},
                )
            yield from db.commit(txn)

        env.process(withdrawer("alice", "bob"))
        env.process(withdrawer("bob", "alice"))
        env.run()
        total = (
            db.read_latest("accounts", "alice")["balance"]
            + db.read_latest("accounts", "bob")["balance"]
        )
        assert total == -50  # write skew broke the invariant

    def test_serializable_prevents_write_skew(self, env, db):
        aborted = []

        def withdrawer(me, other):
            txn = db.begin(SER)
            try:
                mine = yield from db.get(txn, "accounts", me)
                theirs = yield from db.get(txn, "accounts", other)
                yield env.timeout(5)
                if mine["balance"] + theirs["balance"] >= 150:
                    yield from db.put(
                        txn, "accounts", me,
                        {"id": me, "balance": mine["balance"] - 100},
                    )
                yield from db.commit(txn)
            except DeadlockAbort:
                db.abort(txn)
                aborted.append(me)

        env.process(withdrawer("alice", "bob"))
        env.process(withdrawer("bob", "alice"))
        env.run()
        total = (
            db.read_latest("accounts", "alice")["balance"]
            + db.read_latest("accounts", "bob")["balance"]
        )
        assert total >= 0
        assert len(aborted) == 1

    def test_snapshot_reads_are_repeatable(self, env, db):
        readings = []

        def reader():
            txn = db.begin(SI)
            row1 = yield from db.get(txn, "accounts", "alice")
            yield env.timeout(10)
            row2 = yield from db.get(txn, "accounts", "alice")
            yield from db.commit(txn)
            readings.extend([row1["balance"], row2["balance"]])

        def writer():
            yield env.timeout(5)
            txn = db.begin(RC)
            yield from db.put(txn, "accounts", "alice", {"id": "alice", "balance": 0})
            yield from db.commit(txn)

        env.process(reader())
        env.process(writer())
        env.run()
        assert readings == [100, 100]

    def test_read_committed_sees_fresh_data(self, env, db):
        readings = []

        def reader():
            txn = db.begin(RC)
            row1 = yield from db.get(txn, "accounts", "alice")
            yield env.timeout(10)
            row2 = yield from db.get(txn, "accounts", "alice")
            yield from db.commit(txn)
            readings.extend([row1["balance"], row2["balance"]])

        def writer():
            yield env.timeout(5)
            txn = db.begin(RC)
            yield from db.put(txn, "accounts", "alice", {"id": "alice", "balance": 0})
            yield from db.commit(txn)

        env.process(reader())
        env.process(writer())
        env.run()
        assert readings == [100, 0]  # non-repeatable read, by design

    def test_no_dirty_reads_at_any_level(self, env, db):
        """Deferred updates: uncommitted writes are never visible."""
        seen = []

        def writer():
            txn = db.begin(RC)
            yield from db.put(txn, "accounts", "alice", {"id": "alice", "balance": -1})
            yield env.timeout(10)
            db.abort(txn)

        def reader():
            yield env.timeout(5)
            txn = db.begin(RC)
            row = yield from db.get(txn, "accounts", "alice")
            yield from db.commit(txn)
            seen.append(row["balance"])

        env.process(writer())
        env.process(reader())
        env.run()
        assert seen == [100]

    def test_serializable_blocks_phantoms(self, env, db):
        """A scan's table lock delays a concurrent insert."""
        events = []

        def scanner():
            txn = db.begin(SER)
            rows = yield from db.scan(txn, "accounts")
            events.append(("scan", len(rows)))
            yield env.timeout(10)
            rows2 = yield from db.scan(txn, "accounts")
            events.append(("scan", len(rows2)))
            yield from db.commit(txn)

        def inserter():
            yield env.timeout(2)
            txn = db.begin(SER)
            yield from db.insert(txn, "accounts", {"id": "eve", "balance": 5})
            yield from db.commit(txn)
            events.append(("inserted", env.now))

        env.process(scanner())
        env.process(inserter())
        env.run()
        assert events[0] == ("scan", 2)
        assert events[1] == ("scan", 2)  # no phantom
        assert events[2][1] >= 10  # insert waited for the scanner


class TestLockWaits:
    """The engine's one blocked-lock path: span, deadlock, abort."""

    def test_upgrade_cycle_aborts_one_and_commits_the_other(self):
        env = Environment(seed=2, tracer=Tracer())
        db = Database(env)
        db.create_table("accounts", primary_key="id")
        db.load("accounts", [{"id": "alice", "balance": 100}])
        outcomes: dict[str, str] = {}
        tids: dict[str, int] = {}

        def rmw(name, delay):
            txn = db.begin(SER)
            tids[name] = txn.tid
            try:
                row = yield from db.get(txn, "accounts", "alice")  # S
                yield env.timeout(delay)  # both hold S before either wants X
                yield from db.update(
                    txn, "accounts", "alice", {"balance": row["balance"] + 1}
                )
                yield from db.commit(txn)
                outcomes[name] = "committed"
            except DeadlockAbort:
                assert txn.status is TxnStatus.ABORTED
                outcomes[name] = "deadlock"

        env.process(rmw("first", 1))
        env.process(rmw("second", 2))
        env.run()

        assert sorted(outcomes.values()) == ["committed", "deadlock"]
        assert db.locks.stats.deadlocks == 1
        victim = next(name for name, outcome in outcomes.items() if outcome == "deadlock")
        victim_waits = [
            span for span in env.tracer.find("db.lock_wait")
            if span.tags["tid"] == tids[victim]
        ]
        assert [span.tags.get("outcome") for span in victim_waits] == ["deadlock"]
        assert victim_waits[0].tags["mode"] == "X"
        assert db.read_latest("accounts", "alice")["balance"] == 101
        assert db.locks._locks == {}


class TestRecovery:
    def test_committed_data_survives_crash(self, env, db):
        def writer():
            txn = db.begin(SER)
            yield from db.put(txn, "accounts", "alice", {"id": "alice", "balance": 7})
            yield from db.commit(txn)

        run(env, writer())
        env.run()  # drain the instant: the shared group fsync runs end-of-instant
        db.crash()
        db.recover()
        assert db.read_latest("accounts", "alice")["balance"] == 7
        assert db.read_latest("accounts", "bob")["balance"] == 50

    def test_uncommitted_data_lost_on_crash(self, env, db):
        def writer():
            txn = db.begin(SER)
            yield from db.put(txn, "accounts", "alice", {"id": "alice", "balance": 7})
            # no commit -> nothing logged

        run(env, writer())
        db.crash()
        db.recover()
        assert db.read_latest("accounts", "alice")["balance"] == 100

    def test_recovery_is_idempotent(self, env, db):
        db.crash()
        db.recover()
        first = db.all_rows("accounts")
        db.crash()
        db.recover()
        assert db.all_rows("accounts") == first

    def test_prepared_txn_becomes_in_doubt(self, env, db):
        def preparer():
            txn = db.begin(SER)
            yield from db.put(txn, "accounts", "alice", {"id": "alice", "balance": 1})
            yield from db.prepare(txn)
            return txn.tid

        tid = run(env, preparer())
        db.crash()
        db.recover()
        assert db.in_doubt() == [tid]
        assert db.read_latest("accounts", "alice")["balance"] == 100

    def test_in_doubt_resolution_commit(self, env, db):
        def preparer():
            txn = db.begin(SER)
            yield from db.put(txn, "accounts", "alice", {"id": "alice", "balance": 1})
            yield from db.prepare(txn)
            return txn.tid

        tid = run(env, preparer())
        db.crash()
        db.recover()
        db.resolve_in_doubt(tid, commit=True)
        assert db.read_latest("accounts", "alice")["balance"] == 1
        assert db.in_doubt() == []

    def test_in_doubt_resolution_abort(self, env, db):
        def preparer():
            txn = db.begin(SER)
            yield from db.put(txn, "accounts", "alice", {"id": "alice", "balance": 1})
            yield from db.prepare(txn)
            return txn.tid

        tid = run(env, preparer())
        db.crash()
        db.recover()
        db.resolve_in_doubt(tid, commit=False)
        assert db.read_latest("accounts", "alice")["balance"] == 100


class TestXa:
    def test_prepare_then_commit(self, env, db):
        def flow():
            txn = db.begin(SER)
            yield from db.put(txn, "accounts", "alice", {"id": "alice", "balance": 5})
            yield from db.prepare(txn)
            assert txn.status is TxnStatus.PREPARED
            db.commit_prepared(txn)

        run(env, flow())
        assert db.read_latest("accounts", "alice")["balance"] == 5

    def test_prepare_then_abort(self, env, db):
        def flow():
            txn = db.begin(SER)
            yield from db.put(txn, "accounts", "alice", {"id": "alice", "balance": 5})
            yield from db.prepare(txn)
            db.abort_prepared(txn)

        run(env, flow())
        assert db.read_latest("accounts", "alice")["balance"] == 100

    def test_prepared_txn_still_holds_locks(self, env, db):
        """The blocking window of 2PC: locks held between prepare and decision."""
        progress = []

        def preparer():
            txn = db.begin(SER)
            yield from db.put(txn, "accounts", "alice", {"id": "alice", "balance": 5})
            yield from db.prepare(txn)
            yield env.timeout(50)  # coordinator is slow to decide
            db.commit_prepared(txn)

        def blocked_reader():
            yield env.timeout(1)
            txn = db.begin(SER)
            row = yield from db.get(txn, "accounts", "alice")
            progress.append((env.now, row["balance"]))
            yield from db.commit(txn)

        env.process(preparer())
        env.process(blocked_reader())
        env.run()
        assert progress[0][0] >= 50  # reader blocked for the whole window
        assert progress[0][1] == 5

    def test_snapshot_validation_happens_at_prepare(self, env, db):
        def conflicting():
            txn_a = db.begin(SI)
            txn_b = db.begin(SI)
            row = yield from db.get(txn_a, "accounts", "alice")
            yield from db.put(txn_a, "accounts", "alice", {**row, "balance": 1})
            yield from db.commit(txn_a)
            yield from db.put(txn_b, "accounts", "alice", {"id": "alice", "balance": 2})
            yield from db.prepare(txn_b)

        with pytest.raises(WriteConflict):
            run(env, conflicting())
