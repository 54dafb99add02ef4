"""Tests for the WAL, object store, and LRU/TTL cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import Latency
from repro.sim import Environment
from repro.storage import LruCache, ObjectStore, ObjectStoreServer, WriteAheadLog
from repro.storage.object_store import NoSuchKey


class TestWal:
    def test_lsns_are_sequential(self):
        wal = WriteAheadLog()
        assert wal.append("a", 1) == 1
        assert wal.append("b", 2) == 2
        assert wal.last_lsn == 2

    def test_flush_moves_durability_horizon(self):
        wal = WriteAheadLog()
        wal.append("a", 1)
        assert wal.flushed_lsn == 0
        wal.flush()
        assert wal.flushed_lsn == 1

    def test_crash_loses_unflushed_tail(self):
        wal = WriteAheadLog()
        wal.append("keep", 1)
        wal.flush()
        wal.append("lose", 2)
        wal.crash()
        kinds = [r.kind for r in wal.records()]
        assert kinds == ["keep"]
        assert wal.last_lsn == 1

    def test_lsns_continue_after_crash(self):
        wal = WriteAheadLog()
        wal.append("a", 1)
        wal.flush()
        wal.append("b", 2)
        wal.crash()
        assert wal.append("c", 3) == 2  # reuses the lost LSN

    def test_durable_records_exclude_tail(self):
        wal = WriteAheadLog()
        wal.append("a", 1)
        wal.flush()
        wal.append("b", 2)
        assert [r.kind for r in wal.durable_records()] == ["a"]

    def test_read_by_lsn(self):
        wal = WriteAheadLog()
        wal.append("a", "x")
        wal.append("b", "y")
        assert wal.read(2).payload == "y"
        assert wal.read(99) is None

    def test_truncate(self):
        wal = WriteAheadLog()
        for i in range(5):
            wal.append("r", i)
        dropped = wal.truncate(before_lsn=3)
        assert dropped == 2
        assert [r.lsn for r in wal.records()] == [3, 4, 5]
        assert wal.read(1) is None
        assert wal.read(4).payload == 3

    def test_records_from_lsn(self):
        wal = WriteAheadLog()
        for i in range(4):
            wal.append("r", i)
        assert [r.payload for r in wal.records(from_lsn=3)] == [2, 3]


@settings(max_examples=50, deadline=None)
@given(
    flush_points=st.sets(st.integers(min_value=1, max_value=30)),
    count=st.integers(min_value=1, max_value=30),
)
def test_wal_crash_preserves_exactly_flushed_prefix(flush_points, count):
    """Property: after a crash, the log is exactly the flushed prefix."""
    wal = WriteAheadLog()
    flushed_upto = 0
    for i in range(1, count + 1):
        wal.append("rec", i)
        if i in flush_points:
            wal.flush()
            flushed_upto = i
    wal.crash()
    assert [r.payload for r in wal.records()] == list(range(1, flushed_upto + 1))


class TestObjectStore:
    def test_put_get_roundtrip(self):
        store = ObjectStore()
        store.put("ckpt", "state-1", {"a": 1})
        assert store.get("ckpt", "state-1") == {"a": 1}

    def test_missing_key_raises(self):
        store = ObjectStore()
        with pytest.raises(NoSuchKey):
            store.get("b", "missing")

    def test_list_prefix_sorted(self):
        store = ObjectStore()
        store.put("b", "ckpt/2", None)
        store.put("b", "ckpt/1", None)
        store.put("other", "ckpt/0", None)
        assert store.list("b") == ["ckpt/1", "ckpt/2"]

    def test_delete(self):
        store = ObjectStore()
        store.put("b", "k", 1)
        assert store.delete("b", "k")
        assert not store.exists("b", "k")
        assert not store.delete("b", "k")

    def test_server_charges_latency(self):
        env = Environment(seed=3)
        server = ObjectStoreServer(env, latency=Latency.constant(10.0))

        def writer(env):
            yield from server.put("b", "k", "v", size=100)
            return env.now

        proc = env.process(writer(env))
        env.run()
        assert proc.result() == pytest.approx(10.0 + 0.01 * 100)
        assert server.store.get("b", "k") == "v"

    def test_server_get_returns_value(self):
        env = Environment(seed=3)
        server = ObjectStoreServer(env, latency=Latency.constant(1.0))
        server.store.put("b", "k", 42)

        def reader(env):
            value = yield from server.get("b", "k")
            return value

        proc = env.process(reader(env))
        env.run()
        assert proc.result() == 42

    def test_durability_across_node_crash(self):
        """Objects survive crashes of the nodes that wrote them."""
        from repro.net import Network

        env = Environment(seed=3)
        net = Network(env)
        node = net.add_node("writer")
        server = ObjectStoreServer(env, latency=Latency.constant(1.0))

        def writer(env):
            yield from server.put("b", "k", "precious")

        node.spawn(writer(env))
        env.run()
        node.crash()
        assert server.store.get("b", "k") == "precious"


class TestLruCache:
    def test_basic_hit_miss(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction_order(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_put_refresh_does_not_grow(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("a", 2)
        cache.put("b", 3)
        assert len(cache) == 2
        assert cache.get("a") == 2

    def test_hit_rate(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LruCache(capacity=0)
