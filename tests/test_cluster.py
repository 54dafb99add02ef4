"""Tests for the unified cluster placement layer (``repro.cluster``).

Covers the byte-compatibility contract (the one key→shard formula must
reproduce the historical per-runtime crc32 formulas exactly, wherever it
is reached from), directory/epoch
semantics, router forwarding, rebalancer planning, and the resharding
edge cases of the live-migration protocol: empty shards, a single hot
key, a migration racing a distributed transaction that holds locks on
the moving shard, and concurrent double-migration.
"""

import zlib

import pytest

from repro.chaos import CONTROL_RUNTIMES, run_trial
from repro.cluster import (
    ClusterError,
    PlacementDirectory,
    Rebalancer,
    Router,
    ShardStats,
    rendezvous_owner,
    shard_of,
    stable_hash,
    stable_hash_text,
)
from repro.db import IsolationLevel, ShardedDatabase
from repro.sim import Environment

SER = IsolationLevel.SERIALIZABLE


def run(env, gen, label="test"):
    return env.run_until(env.process(gen, label=label))


def key_on(shard, num_shards, start=0):
    """The first integer key at/after ``start`` that routes to ``shard``."""
    key = start
    while shard_of(key, num_shards) != shard:
        key += 1
    return key


class TestHashingByteCompat:
    """The cluster formulas must match the historical per-runtime ones."""

    def test_stable_hash_is_crc32_of_repr(self):
        for key in [0, 7, "acct-12", ("k", 3), -1, 10**9]:
            assert stable_hash(key) == zlib.crc32(repr(key).encode("utf-8"))

    def test_stable_hash_text_is_crc32_raw(self):
        for text in ["task-1", "silo-0|BankAccount|alice", ""]:
            assert stable_hash_text(text) == zlib.crc32(text.encode("utf-8"))

    def test_rendezvous_owner_matches_max_semantics(self):
        nodes = ["silo-0", "silo-1", "silo-2"]
        for key in [f"BankAccount|k{i}" for i in range(40)]:
            expected = max(
                nodes, key=lambda n: zlib.crc32(f"{n}|{key}".encode())
            )
            assert rendezvous_owner(nodes, key) == expected

    def test_rendezvous_empty_and_spread(self):
        assert rendezvous_owner([], "k") is None
        assert {shard_of(key, 8) for key in range(200)} == set(range(8))


class TestOneShardFormula:
    """``shard_of`` is the one key→shard formula (docs/CLUSTER.md,
    determinism contract): the router and the sharded database's bulk load
    and commit bucketing all route through it, byte-identical to the
    historical ``crc32(repr(key)) % n``."""

    KEYS = [0, 1, 5, 7, 999, 10**9, -1, "x", "acct-0", "acct-12", "k42", ""]
    #: the pinned shards of KEYS at n = 4, 8 and 12
    PINNED = {
        4: [1, 3, 2, 2, 3, 0, 2, 2, 2, 0, 1, 1],
        8: [1, 7, 6, 2, 7, 0, 2, 2, 6, 4, 5, 1],
        12: [5, 11, 10, 6, 7, 0, 6, 10, 2, 8, 5, 1],
    }

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_shard_of_is_pinned(self, n):
        assert [shard_of(key, n) for key in self.KEYS] == self.PINNED[n]
        assert [zlib.crc32(repr(key).encode()) % n for key in self.KEYS] == self.PINNED[n]

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_router_and_sharded_database_agree(self, n):
        env = Environment(seed=1)
        db = ShardedDatabase(env, num_shards=n, name="pin")
        db.create_table("t", primary_key="id")
        db.load("t", [{"id": key} for key in self.KEYS])
        assert [db.router.shard_of(key) for key in self.KEYS] == self.PINNED[n]
        for key, shard in zip(self.KEYS, self.PINNED[n]):
            assert db.leader_engine(shard).read_latest("t", key) == {"id": key}
            assert db.owner_of(key) == db.directory.owner_of(shard)

        def write_all():
            txn = db.begin()
            for key in self.KEYS:
                yield from db.put(txn, "t", key, {"id": key, "v": 1})
            yield from db.commit(txn)

        run(env, write_all())
        for key, shard in zip(self.KEYS, self.PINNED[n]):
            assert db.leader_engine(shard).read_latest("t", key) == {"id": key, "v": 1}


class TestDirectory:
    @pytest.fixture
    def directory(self):
        directory = PlacementDirectory(Environment(seed=1))
        directory.assign(0, "node0")
        directory.assign(1, "node1")
        return directory

    def test_ownership_and_epochs(self, directory):
        assert directory.owner_of(0) == "node0"
        assert directory.epoch(0) == 0
        assert directory.shards_on("node0") == [0]
        assert directory.nodes() == ["node0", "node1"]
        with pytest.raises(ClusterError):
            directory.owner_of(9)

    def test_migration_flip_bumps_epoch_once(self, directory):
        record = directory.begin_migration(0, "node1")
        assert record.source == "node0" and directory.is_migrating(0)
        directory.complete_migration(0)
        assert directory.owner_of(0) == "node1"
        assert directory.epoch(0) == 1
        assert not directory.is_migrating(0)

    def test_abort_leaves_ownership_untouched(self, directory):
        directory.begin_migration(0, "node1")
        directory.abort_migration(0)
        assert directory.owner_of(0) == "node0"
        assert directory.epoch(0) == 0
        assert not directory.is_migrating(0)

    def test_double_migration_rejected(self, directory):
        directory.begin_migration(0, "node1")
        with pytest.raises(ClusterError):
            directory.begin_migration(0, "node1")

    def test_migration_to_current_owner_rejected(self, directory):
        with pytest.raises(ClusterError):
            directory.begin_migration(0, "node0")

    def test_activation_registry_tracks_previous_host(self, directory):
        ident = ("BankAccount", "alice")
        assert directory.record_activation(ident, "silo-0") is None
        assert directory.record_activation(ident, "silo-2") == "silo-0"
        assert directory.last_host(ident) == "silo-2"


class TestRouter:
    @pytest.fixture
    def router(self):
        directory = PlacementDirectory(Environment(seed=1))
        for shard in range(4):
            directory.assign(shard, f"node{shard % 2}")
        return Router(4, directory)

    def test_cold_cache_does_not_forward(self, router):
        first = router.resolve_shard(router.shard_of(7))
        second = router.resolve_shard(router.shard_of(7))
        assert not first.forwarded and not second.forwarded
        assert router.stats.forwards == 0

    def test_stale_cache_pays_exactly_one_forward(self, router):
        shard = router.shard_of(7)
        router.resolve_shard(shard)  # populate the cache
        router.directory.begin_migration(shard, "node9")
        router.directory.assign(99, "node9")  # make node9 known
        router.directory.complete_migration(shard)
        stale = router.resolve_shard(shard)
        repaired = router.resolve_shard(shard)
        assert stale.forwarded and stale.node == "node9"
        assert not repaired.forwarded
        assert router.stats.forwards == 1


class TestShardStats:
    def test_ewma_folds_windows(self):
        stats = ShardStats(2)
        stats.record(0, 10.0)
        assert stats.load_of(0) == 5.0  # live window counts at ALPHA weight
        stats.roll_window()
        assert stats.load_of(0) == 5.0
        stats.roll_window()  # an idle window decays the signal
        assert stats.load_of(0) == 2.5
        assert stats.total[0] == 10.0

    def test_hottest(self):
        stats = ShardStats(3)
        stats.record(1, 4.0)
        stats.record(2, 9.0)
        assert stats.hottest() == 2
        assert stats.hottest(among=[0, 1]) == 1


class TestRebalancerPlanning:
    def make_db(self, env, **kwargs):
        db = ShardedDatabase(env, num_shards=4, num_nodes=2, name="bank", **kwargs)
        db.create_table("accounts", primary_key="id")
        return db

    def test_balanced_cluster_plans_nothing(self):
        env = Environment(seed=5)
        db = self.make_db(env)
        rebalancer = Rebalancer(env, db)
        for shard in range(4):
            db.shard_stats.record(shard, 10.0)
        db.shard_stats.roll_window()
        assert rebalancer.plan() is None

    def test_single_hot_key_moves_its_shard_to_the_cold_node(self):
        """A sustained hot key drags its whole shard to the coldest node."""
        env = Environment(seed=5)
        db = self.make_db(env)
        hot_key = key_on(0, 4)
        db.load("accounts", [{"id": hot_key, "balance": 100}])
        hot_shard = db.router.shard_of(hot_key)
        source = db.directory.owner_of(hot_shard)
        for _ in range(3):  # sustained, not a single spike
            db.shard_stats.record(hot_shard, 50.0)
            db.shard_stats.roll_window()
        move = Rebalancer(env, db).plan()
        assert move is not None
        assert move.shard == hot_shard and move.source == source
        assert move.dest != source

    def test_run_cycle_executes_the_move(self):
        env = Environment(seed=5)
        db = self.make_db(env)
        hot_key = key_on(0, 4)
        db.load("accounts", [{"id": hot_key, "balance": 100}])
        hot_shard = db.router.shard_of(hot_key)
        source = db.directory.owner_of(hot_shard)
        for _ in range(3):
            db.shard_stats.record(hot_shard, 50.0)
        rebalancer = Rebalancer(env, db)
        move = run(env, rebalancer.run_cycle())
        assert move is not None
        assert db.directory.owner_of(hot_shard) != source
        assert rebalancer.stats.completed == 1
        assert db.migration_stats.rows_copied == 1

    def test_quiet_cluster_below_min_load_plans_nothing(self):
        env = Environment(seed=5)
        db = self.make_db(env)
        db.shard_stats.record(0, 0.5)  # noise, below min_load
        db.shard_stats.roll_window()
        assert Rebalancer(env, db).plan() is None

    def test_parameter_validation(self):
        env = Environment(seed=5)
        db = self.make_db(env)
        with pytest.raises(ValueError):
            Rebalancer(env, db, interval=0)
        with pytest.raises(ValueError):
            Rebalancer(env, db, imbalance_factor=0.5)


class TestLiveMigrationEdgeCases:
    """Resharding edge cases of the drain → copy → flip protocol."""

    def make_db(self, env, **kwargs):
        db = ShardedDatabase(env, num_shards=4, num_nodes=2, name="bank", **kwargs)
        db.create_table("accounts", primary_key="id")
        return db

    def test_empty_shard_migrates_clean(self):
        env = Environment(seed=9)
        db = self.make_db(env)
        dest = db.nodes[1]
        assert db.directory.owner_of(0) == db.nodes[0]
        rows = run(env, db.migrate_shard(0, dest))
        assert rows == 0
        assert db.directory.owner_of(0) == dest
        assert db.migration_stats.completed == 1
        assert db.migration_stats.rows_copied == 0

    def test_migration_waits_for_txn_holding_locks_on_moving_shard(self):
        """A distributed transaction holding locks on the moving shard
        drains before the copy starts; its writes land on the new owner,
        and the next stale-routed access pays exactly one forward."""
        env = Environment(seed=9)
        db = self.make_db(env)
        num = 4
        key_a = key_on(0, num)            # on the moving shard
        key_b = key_on(1, num)            # second shard: txn is distributed
        db.load("accounts", [{"id": key_a, "balance": 100},
                             {"id": key_b, "balance": 100}])
        dest = db.nodes[1]
        events = []

        def writer():
            txn = db.begin(SER)
            row = yield from db.get(txn, "accounts", key_a)
            yield from db.put(txn, "accounts", key_a,
                              {**row, "balance": row["balance"] - 30})
            row = yield from db.get(txn, "accounts", key_b)
            yield from db.put(txn, "accounts", key_b,
                              {**row, "balance": row["balance"] + 30})
            yield env.timeout(50.0)  # hold the locks while the drain waits
            yield from db.commit(txn)
            events.append(("committed", env.now))

        def mover():
            yield env.timeout(5.0)  # start once the writer holds its locks
            yield from db.migrate_shard(0, dest)
            events.append(("migrated", env.now))

        env.process(writer(), label="writer")
        run(env, mover(), label="mover")

        assert [name for name, _ in events] == ["committed", "migrated"]
        assert db.directory.owner_of(0) == dest
        assert db.directory.epoch(0) == 1
        # The 2PC write landed on the engine that moved.
        assert db.read_latest("accounts", key_a)["balance"] == 70
        assert db.read_latest("accounts", key_b)["balance"] == 130

        def reader():
            txn = db.begin(SER)
            row = yield from db.get(txn, "accounts", key_a)
            yield from db.commit(txn)
            return row["balance"]

        forwards_before = db.router.stats.forwards
        assert run(env, reader(), label="reader") == 70
        assert db.router.stats.forwards == forwards_before + 1

    def test_new_transactions_wait_out_the_migration_bar(self):
        env = Environment(seed=9)
        db = self.make_db(env, copy_ms_per_row=10.0)
        key = key_on(0, 4)
        db.load("accounts", [{"id": key, "balance": 100}])
        timings = {}

        def mover():
            yield from db.migrate_shard(0, db.nodes[1])
            timings["flip"] = env.now

        def reader():
            yield env.timeout(1.0)  # arrive mid-copy
            txn = db.begin(SER)
            row = yield from db.get(txn, "accounts", key)
            yield from db.commit(txn)
            timings["read"] = env.now
            return row["balance"]

        env.process(mover(), label="mover")
        assert run(env, reader(), label="reader") == 100
        assert timings["read"] > timings["flip"]  # barred until the flip

    def test_drain_timeout_aborts_and_leaves_shard_usable(self):
        env = Environment(seed=9)
        db = self.make_db(env, drain_timeout_ms=20.0)
        key = key_on(0, 4)
        other = key_on(1, 4)
        db.load("accounts", [{"id": key, "balance": 100},
                             {"id": other, "balance": 100}])
        errors = []

        def writer():
            txn = db.begin(SER)
            row = yield from db.get(txn, "accounts", key)
            yield from db.get(txn, "accounts", other)
            yield env.timeout(100.0)  # far past the drain timeout
            yield from db.put(txn, "accounts", key,
                              {**row, "balance": 55})
            yield from db.commit(txn)

        def mover():
            yield env.timeout(2.0)
            try:
                yield from db.migrate_shard(0, db.nodes[1])
            except ClusterError as exc:
                errors.append(exc)

        mover_proc = env.process(mover(), label="mover")
        writer_proc = env.process(writer(), label="writer")
        env.run_until(mover_proc)
        assert errors, "migration should time out while locks are held"
        # Ownership is unchanged and the shard is un-barred: the writer
        # commits normally after the aborted migration.
        assert db.directory.owner_of(0) == db.nodes[0]
        assert db.directory.epoch(0) == 0
        assert db.migration_stats.aborted == 1
        env.run_until(writer_proc)
        assert db.read_latest("accounts", key)["balance"] == 55
        # ... and a later migration of the same shard succeeds.
        run(env, db.migrate_shard(0, db.nodes[1]), label="retry")
        assert db.directory.owner_of(0) == db.nodes[1]

    def test_concurrent_double_migration_rejected(self):
        env = Environment(seed=9)
        db = self.make_db(env, copy_ms_per_row=10.0)
        key = key_on(0, 4)
        db.load("accounts", [{"id": key, "balance": 100}])
        errors = []

        def first():
            yield from db.migrate_shard(0, db.nodes[1])

        def second():
            yield env.timeout(1.0)  # while the first is mid-copy
            try:
                yield from db.migrate_shard(0, db.nodes[0])
            except ClusterError as exc:
                errors.append(exc)

        first_proc = env.process(first(), label="first")
        run(env, second(), label="second")
        env.run_until(first_proc)
        assert errors and "already migrating" in str(errors[0])
        assert db.directory.owner_of(0) == db.nodes[1]
        assert db.migration_stats.completed == 1
        # The rejected attempt never entered the protocol.
        assert db.migration_stats.started == 1
        assert db.migration_stats.aborted == 0

    def test_migrate_validates_shard_and_node(self):
        env = Environment(seed=9)
        db = self.make_db(env)
        with pytest.raises(ClusterError):
            run(env, db.migrate_shard(99, db.nodes[0]))
        with pytest.raises(ClusterError):
            run(env, db.migrate_shard(0, "no-such-node"))
        with pytest.raises(ClusterError):
            run(env, db.migrate_shard(0, db.directory.owner_of(0)))

    def test_default_config_routing_is_byte_identical_to_legacy(self):
        """Non-rebalancing configs must keep the historical key→shard→node
        mapping: shard i lives on node i, keys route by crc32 mod."""
        env = Environment(seed=9)
        db = ShardedDatabase(env, num_shards=4)
        db.create_table("accounts", primary_key="id")
        for key in range(32):
            shard = zlib.crc32(repr(key).encode()) % 4
            assert db.router.shard_of(key) == shard
            assert db.owner_of(key) == f"sharded-db/node{shard}"


class TestClusterChaos:
    @pytest.mark.parametrize("runtime", CONTROL_RUNTIMES)
    def test_flip_without_drain_is_caught(self, runtime):
        """Every runtime's unsound control — on ``cluster``, ownership
        flipped from a stale snapshot with no drain — must trip an
        oracle under some schedule of a sweep the sound configuration
        survives on every seed.  Which seeds catch it depends on how
        long commits hold their locks, so the test sweeps rather than
        pinning one."""
        seeds = range(1, 9)
        assert not [s for s in seeds if run_trial(runtime, seed=s).violations]
        assert [s for s in seeds if run_trial(runtime, seed=s, broken=True).violations]
