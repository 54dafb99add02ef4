"""Tests for the database server facade and the sharded database."""

import pytest

from repro.db import DatabaseServer, IsolationLevel, ShardedDatabase
from repro.cluster import shard_of
from repro.net.latency import Latency
from repro.sim import Environment

SER = IsolationLevel.SERIALIZABLE


@pytest.fixture
def env():
    return Environment(seed=9)


def run(env, gen):
    return env.run_until(env.process(gen))


class TestDatabaseServer:
    def make_server(self, env, connections=2):
        server = DatabaseServer(
            env,
            connections=connections,
            op_service_time=Latency.constant(1.0),
            network_rtt=Latency.constant(1.0),
        )
        server.create_table("t", primary_key="k")
        server.load("t", [{"k": 1, "v": "a"}])
        return server

    def test_operations_charge_latency(self, env):
        server = self.make_server(env)

        def flow():
            txn = yield from server.begin(SER)
            yield from server.get(txn, "t", 1)
            yield from server.commit(txn)
            return env.now

        elapsed = run(env, flow())
        assert elapsed == pytest.approx(6.0)  # 3 ops x (1 rtt + 1 service)

    def test_connection_pool_limits_concurrency(self, env):
        server = self.make_server(env, connections=1)
        order = []

        def client(name):
            txn = yield from server.begin(SER)
            order.append((name, "begin", env.now))
            yield env.timeout(10)
            yield from server.commit(txn)

        env.process(client("a"))
        env.process(client("b"))
        env.run()
        begins = {name: t for name, _, t in order}
        assert begins["b"] - begins["a"] >= 10  # b waited for a's connection

    def test_abort_releases_connection(self, env):
        server = self.make_server(env, connections=1)

        def flow():
            txn = yield from server.begin(SER)
            yield from server.abort(txn)
            txn2 = yield from server.begin(SER)
            yield from server.commit(txn2)
            return True

        assert run(env, flow())

    def test_crud_roundtrip(self, env):
        server = self.make_server(env)

        def flow():
            txn = yield from server.begin(SER)
            yield from server.insert(txn, "t", {"k": 2, "v": "b"})
            yield from server.update(txn, "t", 1, {"v": "a2"})
            rows = yield from server.scan(txn, "t")
            yield from server.commit(txn)
            return sorted(r["v"] for r in rows)

        assert run(env, flow()) == ["a2", "b"]

    def test_xa_flow(self, env):
        server = self.make_server(env)

        def flow():
            txn = yield from server.begin(SER)
            yield from server.put(txn, "t", 3, {"k": 3, "v": "c"})
            yield from server.prepare(txn)
            yield from server.commit_prepared(txn)

        run(env, flow())
        assert server.engine.read_latest("t", 3)["v"] == "c"


class TestShardRouting:
    def test_routing_is_deterministic(self):
        assert shard_of("key-1", 4) == shard_of("key-1", 4)

    def test_routing_spreads_keys(self):
        shards = {shard_of(f"key-{i}", 4) for i in range(100)}
        assert shards == {0, 1, 2, 3}

    def test_invalid_shard_count(self, env):
        with pytest.raises(ValueError):
            ShardedDatabase(env, num_shards=0)


class TestShardedDatabase:
    @pytest.fixture
    def sdb(self, env):
        sharded = ShardedDatabase(env, num_shards=4, rtt_ms=1.0)
        sharded.create_table("accounts", primary_key="id")
        sharded.load(
            "accounts",
            [{"id": f"acct-{i}", "balance": 100} for i in range(20)],
        )
        return sharded

    def test_load_routes_rows(self, env, sdb):
        counts = [
            len(sdb.leader_engine(shard).all_rows("accounts"))
            for shard in range(sdb.num_shards)
        ]
        assert sum(counts) == 20
        assert all(c > 0 for c in counts)

    def test_single_shard_txn_one_phase(self, env, sdb):
        def flow():
            txn = sdb.begin(SER)
            row = yield from sdb.get(txn, "accounts", "acct-1")
            yield from sdb.put(txn, "accounts", "acct-1", {**row, "balance": 0})
            yield from sdb.commit(txn)

        run(env, flow())
        assert sdb.read_latest("accounts", "acct-1")["balance"] == 0
        assert sdb.stats.single_shard_commits == 1
        assert sdb.stats.distributed_commits == 0

    def _find_cross_shard_pair(self, sdb):
        base = shard_of("acct-0", 4)
        for i in range(1, 20):
            if shard_of(f"acct-{i}", 4) != base:
                return "acct-0", f"acct-{i}"
        raise AssertionError("no cross-shard pair found")

    def test_cross_shard_transfer_atomic(self, env, sdb):
        src, dst = self._find_cross_shard_pair(sdb)

        def flow():
            txn = sdb.begin(SER)
            a = yield from sdb.get(txn, "accounts", src)
            b = yield from sdb.get(txn, "accounts", dst)
            yield from sdb.put(txn, "accounts", src, {**a, "balance": a["balance"] - 30})
            yield from sdb.put(txn, "accounts", dst, {**b, "balance": b["balance"] + 30})
            yield from sdb.commit(txn)

        run(env, flow())
        assert sdb.read_latest("accounts", src)["balance"] == 70
        assert sdb.read_latest("accounts", dst)["balance"] == 130
        assert sdb.stats.distributed_commits == 1

    def test_commit_costs_one_round_trip_per_phase(self, env):
        """Under constant latency a local commit is one round trip and a
        cross-shard commit two — one for all prepares, one for all
        decisions — however many shards it touches."""
        rtt = 2.5
        sdb = ShardedDatabase(env, num_shards=4, rtt_ms=rtt)
        sdb.create_table("accounts", primary_key="id")
        by_shard = {}
        for i in range(20):
            by_shard.setdefault(shard_of(f"acct-{i}", 4), f"acct-{i}")
        keys = [by_shard[shard] for shard in sorted(by_shard)]
        sdb.load("accounts", [{"id": key, "balance": 100} for key in keys])

        def commit_cost(touched):
            txn = sdb.begin(SER)
            for key in touched:
                yield from sdb.put(txn, "accounts", key, {"id": key, "balance": 1})
            start = env.now
            yield from sdb.commit(txn)
            assert txn.status == "committed"
            return env.now - start

        assert run(env, commit_cost(keys[:1])) == rtt
        assert run(env, commit_cost(keys[:2])) == 2 * rtt
        assert run(env, commit_cost(keys[:3])) == 2 * rtt
        assert sdb.stats.single_shard_commits == 1
        assert sdb.stats.distributed_commits == 2

    def test_abort_rolls_back_all_branches(self, env, sdb):
        src, dst = self._find_cross_shard_pair(sdb)

        def flow():
            txn = sdb.begin(SER)
            yield from sdb.put(txn, "accounts", src, {"id": src, "balance": 0})
            yield from sdb.put(txn, "accounts", dst, {"id": dst, "balance": 0})
            sdb.abort(txn)

        run(env, flow())
        assert sdb.read_latest("accounts", src)["balance"] == 100
        assert sdb.read_latest("accounts", dst)["balance"] == 100

    def test_conservation_under_concurrent_transfers(self, env, sdb):
        """Money is conserved across shards under concurrency + 2PC."""
        from repro.db.errors import TransactionAborted

        rng = env.stream("test")

        def transfer(src, dst, amount):
            txn = sdb.begin(SER)
            try:
                a = yield from sdb.get(txn, "accounts", src)
                b = yield from sdb.get(txn, "accounts", dst)
                yield from sdb.put(
                    txn, "accounts", src, {**a, "balance": a["balance"] - amount}
                )
                yield from sdb.put(
                    txn, "accounts", dst, {**b, "balance": b["balance"] + amount}
                )
                yield from sdb.commit(txn)
            except TransactionAborted:
                sdb.abort(txn)

        for i in range(30):
            src = f"acct-{rng.randrange(20)}"
            dst = f"acct-{rng.randrange(20)}"
            if src != dst:
                env.process(transfer(src, dst, 10))
        env.run()
        total = sum(r["balance"] for r in sdb.all_rows("accounts"))
        assert total == 20 * 100
