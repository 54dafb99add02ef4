"""Storage-engine fast paths: version-chain GC, group commit, copy elision.

Each fast path has a reference mode, selected for the whole stack by
``Environment(fast_path=False)``; the golden-equivalence suite proves the
modes are behaviourally identical on full workloads, and these tests pin
the local contracts: GC never collects a version the oldest live snapshot
can see, a crash before the shared group fsync loses the whole group
(never an interior subset), and committed rows are immutable objects
shared with every reader.
"""

import pytest

from repro.db import Database, IsolationLevel, Row
from repro.db.engine import GC_CHAIN_THRESHOLD
from repro.obs import Tracer
from repro.sim import Environment

SER = IsolationLevel.SERIALIZABLE
SI = IsolationLevel.SNAPSHOT
RC = IsolationLevel.READ_COMMITTED


def run(env, gen):
    return env.run_until(env.process(gen))


def make_db(env):
    db = Database(env, name="fp")
    db.create_table("accounts")
    db.load("accounts", [{"id": "alice", "balance": 100},
                         {"id": "bob", "balance": 50}])
    return db


def write_balance(db, key, value):
    def writer():
        txn = db.begin(SER)
        yield from db.put(txn, "accounts", key, {"id": key, "balance": value})
        yield from db.commit(txn)

    return writer()


class TestVersionChainGc:
    def test_hot_key_chain_is_bounded(self):
        env = Environment()
        db = make_db(env)
        for i in range(200):
            run(env, write_balance(db, "alice", i))
        chain = db._tables["accounts"].versions["alice"]
        assert len(chain) <= GC_CHAIN_THRESHOLD + 1  # + the newly installed version
        assert db.stats.gc_pruned_versions > 150
        assert db.read_latest("accounts", "alice")["balance"] == 199

    def test_reference_mode_keeps_every_version(self):
        env = Environment(fast_path=False)
        db = make_db(env)
        for i in range(50):
            run(env, write_balance(db, "alice", i))
        chain = db._tables["accounts"].versions["alice"]
        assert len(chain) == 51  # load + 50 updates
        assert db.stats.gc_pruned_versions == 0
        assert db.gc() == 0  # explicit pass is a no-op too

    def test_never_collects_version_visible_to_oldest_snapshot(self):
        """Long-running reader vs. hot writer: the reader's version stays."""
        env = Environment()
        db = make_db(env)
        reader = db.begin(SI)  # snapshot pinned before the write storm

        def observe():
            return (yield from db.get(reader, "accounts", "alice"))

        before = run(env, observe())
        for i in range(100):
            run(env, write_balance(db, "alice", i))
        db.gc()
        assert run(env, observe())["balance"] == before["balance"] == 100
        # The horizon tracked the reader: its version survived every prune.
        assert db.gc_horizon() == reader.begin_seq

        def finish():
            yield from db.commit(reader)

        run(env, finish())
        # With the snapshot gone the chain collapses to the newest version.
        db.gc()
        assert len(db._tables["accounts"].versions["alice"]) == 1

    def test_prepared_txn_pins_the_horizon(self):
        env = Environment()
        db = make_db(env)

        def preparer():
            txn = db.begin(SI)
            yield from db.put(txn, "accounts", "bob", {"id": "bob", "balance": 0})
            yield from db.prepare(txn)
            return txn

        txn = run(env, preparer())
        for i in range(50):
            run(env, write_balance(db, "alice", i))
        db.gc()
        assert db.gc_horizon() == txn.begin_seq  # in-doubt snapshot covered

    def test_live_versions_gauge_matches_heap(self):
        env = Environment()
        db = make_db(env)
        for i in range(60):
            run(env, write_balance(db, "alice" if i % 3 else "bob", i))
        db.gc()
        assert db.stats.live_versions == db.version_count()

    def test_gc_pass_emits_span(self):
        env = Environment(tracer=Tracer())
        db = make_db(env)
        db.gc()
        (span,) = env.tracer.find("db.gc")
        assert span.tags["db"] == "fp"


class TestGroupCommit:
    def _contended_commits(self, env, db, n=5):
        def committer(i):
            txn = db.begin(SER)
            yield from db.put(txn, "accounts", f"k{i}", {"id": f"k{i}", "v": i})
            yield from db.commit(txn)

        for i in range(n):
            env.process(committer(i))
        env.run()

    def test_same_instant_commits_share_one_fsync(self):
        env = Environment()
        db = make_db(env)
        before = db.wal.flush_count
        self._contended_commits(env, db, n=5)
        assert db.wal.flush_count - before == 1
        assert db.stats.flush_count == db.wal.flush_count

    def test_reference_mode_fsyncs_per_commit(self):
        env = Environment(fast_path=False)
        db = make_db(env)
        before = db.wal.flush_count
        self._contended_commits(env, db, n=5)
        assert db.wal.flush_count - before == 5

    def test_group_flush_emits_batch_span(self):
        env = Environment(tracer=Tracer())
        db = make_db(env)
        self._contended_commits(env, db, n=3)
        (span,) = env.tracer.find("db.wal.group_flush")
        assert span.tags["batch"] == 3

    def test_crash_before_group_fsync_loses_whole_group(self):
        env = Environment()
        db = make_db(env)

        def scenario():
            t1 = db.begin(SER)
            yield from db.put(t1, "accounts", "alice", {"id": "alice", "balance": 1})
            t2 = db.begin(SER)
            yield from db.put(t2, "accounts", "bob", {"id": "bob", "balance": 2})
            # commit() never yields, so both land in the same group with no
            # chance for the end-of-instant fsync to slip in between.
            yield from db.commit(t1)
            yield from db.commit(t2)
            # Both commits acknowledged; the shared fsync is still queued
            # for end-of-instant.  Power fails now.
            db.crash()

        run(env, scenario())
        db.recover()
        assert db.read_latest("accounts", "alice")["balance"] == 100
        assert db.read_latest("accounts", "bob")["balance"] == 50

    def test_crash_between_groups_recovers_prefix(self):
        """An earlier group that reached its fsync survives; only the
        trailing un-fsynced group is lost — prefix-consistent, never an
        interior gap."""
        env = Environment()
        db = make_db(env)

        def scenario():
            t1 = db.begin(SER)
            yield from db.put(t1, "accounts", "alice", {"id": "alice", "balance": 1})
            yield from db.commit(t1)
            yield env.timeout(0)  # the instant's group fsync runs
            t2 = db.begin(SER)
            yield from db.put(t2, "accounts", "bob", {"id": "bob", "balance": 2})
            yield from db.commit(t2)
            db.crash()

        run(env, scenario())
        db.recover()
        assert db.read_latest("accounts", "alice")["balance"] == 1  # durable
        assert db.read_latest("accounts", "bob")["balance"] == 50  # lost

    def test_flush_barrier_parks_until_durable(self):
        env = Environment()
        db = make_db(env)

        def scenario():
            txn = db.begin(SER)
            yield from db.put(txn, "accounts", "alice", {"id": "alice", "balance": 9})
            yield from db.commit(txn)
            commit_lsn = db.wal.last_lsn
            assert db.wal.flushed_lsn < commit_lsn  # acked, not yet durable
            durable_lsn = yield db.flush_barrier()
            assert durable_lsn >= commit_lsn
            assert db.wal.flushed_lsn >= commit_lsn

        run(env, scenario())
        db.crash()
        db.recover()
        assert db.read_latest("accounts", "alice")["balance"] == 9

    def test_flush_barrier_is_shared_and_immediate_when_idle(self):
        env = Environment()
        db = make_db(env)

        def scenario():
            txn = db.begin(SER)
            yield from db.put(txn, "accounts", "alice", {"id": "alice", "balance": 9})
            yield from db.commit(txn)
            # Every barrier taken in the same instant is the same future —
            # the broker's shared-wakeup pattern.
            assert db.flush_barrier() is db.flush_barrier()
            yield db.flush_barrier()
            # Nothing pending: the barrier resolves immediately.
            assert db.flush_barrier().done

        run(env, scenario())

    def test_crash_resolves_pending_barrier_with_none(self):
        env = Environment()
        db = make_db(env)
        seen = []

        def scenario():
            txn = db.begin(SER)
            yield from db.put(txn, "accounts", "alice", {"id": "alice", "balance": 9})
            yield from db.commit(txn)
            barrier = db.flush_barrier()
            db.crash()
            seen.append((yield barrier))

        run(env, scenario())
        env.run()
        assert seen == [None]

    def test_prepare_still_fsyncs_synchronously(self):
        """2PC votes must be durable before they reach the coordinator."""
        env = Environment()
        db = make_db(env)

        def scenario():
            txn = db.begin(SER)
            yield from db.put(txn, "accounts", "alice", {"id": "alice", "balance": 1})
            yield from db.prepare(txn)
            assert db.wal.flushed_lsn == db.wal.last_lsn
            return txn.tid

        tid = run(env, scenario())
        db.crash()
        db.recover()
        assert db.in_doubt() == [tid]


class TestCheckpointTruncate:
    def test_recovery_from_truncated_log(self):
        env = Environment()
        db = make_db(env)
        db.create_index("accounts", "balance")
        for i in range(20):
            run(env, write_balance(db, "alice", i))
        records_before = len(db.wal)
        info = db.checkpoint()
        assert len(db.wal) < records_before
        assert db.wal.read(1) is None  # prefix really gone
        # Tail commits after the checkpoint replay on top of it.
        run(env, write_balance(db, "bob", 7))
        env.run()  # drain the group fsync before pulling the plug
        db.crash()
        db.recover()
        assert db.read_latest("accounts", "alice")["balance"] == 19
        assert db.read_latest("accounts", "bob")["balance"] == 7
        assert info["wal_records_dropped"] > 0

        def by_index():
            txn = db.begin(SER)
            rows = yield from db.lookup(txn, "accounts", "balance", 19)
            yield from db.commit(txn)
            return rows

        assert [r["id"] for r in run(env, by_index())] == ["alice"]

    def test_lsns_keep_increasing_across_truncation(self):
        env = Environment()
        db = make_db(env)
        run(env, write_balance(db, "alice", 1))
        env.run()
        last = db.wal.last_lsn
        db.checkpoint()
        assert db.wal.last_lsn == last + 1  # the checkpoint record itself
        run(env, write_balance(db, "alice", 2))
        env.run()
        assert db.wal.last_lsn > last + 1

    def test_checkpoint_preserves_in_doubt(self):
        env = Environment()
        db = make_db(env)

        def preparer():
            txn = db.begin(SER)
            yield from db.put(txn, "accounts", "alice", {"id": "alice", "balance": 0})
            yield from db.prepare(txn)
            return txn.tid

        tid = run(env, preparer())
        db.checkpoint()
        db.crash()
        db.recover()
        assert db.in_doubt() == [tid]
        db.resolve_in_doubt(tid, commit=True)
        assert db.read_latest("accounts", "alice")["balance"] == 0

    def test_repeated_checkpoints_stay_bounded_and_idempotent(self):
        env = Environment()
        db = make_db(env)
        sizes = []
        for round_no in range(5):
            for i in range(10):
                run(env, write_balance(db, "alice", round_no * 10 + i))
            db.checkpoint()
            sizes.append(len(db.wal))
        assert max(sizes) == min(sizes) == 1  # just the checkpoint record
        db.crash()
        db.recover()
        assert db.read_latest("accounts", "alice")["balance"] == 49
        assert db.read_latest("accounts", "bob")["balance"] == 50


class TestCopyElision:
    def test_readers_share_the_committed_row_object(self):
        env = Environment()
        db = make_db(env)

        def reads():
            txn = db.begin(RC)
            first = yield from db.get(txn, "accounts", "bob")
            txn2 = db.begin(RC)
            second = yield from db.get(txn2, "accounts", "bob")
            yield from db.commit(txn)
            yield from db.commit(txn2)
            return first, second

        first, second = run(env, reads())
        assert first is second
        assert isinstance(first, Row)
        assert first is db.read_latest("accounts", "bob")

    def test_scan_and_lookup_rows_are_immutable(self):
        env = Environment()
        db = make_db(env)
        db.create_index("accounts", "balance")

        def scans():
            txn = db.begin(RC)
            scanned = yield from db.scan(txn, "accounts")
            looked_up = yield from db.lookup(txn, "accounts", "balance", 50)
            yield from db.commit(txn)
            return scanned, looked_up

        scanned, looked_up = run(env, scans())
        for row in scanned + looked_up:
            with pytest.raises(TypeError):
                row["balance"] = -1
            with pytest.raises(TypeError):
                row.update({"balance": -1})
            with pytest.raises(TypeError):
                del row["balance"]

    def test_copy_reads_reference_mode_returns_fresh_dicts(self):
        env = Environment(fast_path=False)
        db = make_db(env)

        def reads():
            txn = db.begin(RC)
            row = yield from db.get(txn, "accounts", "bob")
            row["balance"] = -1  # plain dict: caller may scribble freely
            yield from db.commit(txn)

        run(env, reads())
        assert db.read_latest("accounts", "bob")["balance"] == 50
        assert type(db.read_latest("accounts", "bob")) is dict

    def test_update_still_copies_before_merging(self):
        env = Environment()
        db = make_db(env)

        def bump():
            txn = db.begin(SER)
            row = yield from db.update(txn, "accounts", "bob", {"balance": 51})
            yield from db.commit(txn)
            return row

        assert run(env, bump())["balance"] == 51
        assert db.read_latest("accounts", "bob")["balance"] == 51

    def test_wal_and_heap_share_one_frozen_row(self):
        env = Environment()
        db = make_db(env)
        run(env, write_balance(db, "alice", 5))
        heap_row = db.read_latest("accounts", "alice")
        wal_rows = [r.payload[3] for r in db.wal.records()
                    if r.kind == "write" and r.payload[2] == "alice"]
        assert any(payload is heap_row for payload in wal_rows)

    def test_rows_copy_cleanly(self):
        row = Row({"id": "x", "balance": 1})
        import copy as copy_mod

        clone = copy_mod.deepcopy(row)
        assert clone == {"id": "x", "balance": 1}
        assert type(clone) is dict  # copies are for mutating
        assert dict(row) == {"id": "x", "balance": 1}
