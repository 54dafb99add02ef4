"""Edge-case tests for paths the mainline suites do not reach."""

import pytest

from repro.core.faults import FaultEvent, FaultPlan
from repro.dataflow import JobGraph
from repro.db import Database, IsolationLevel
from repro.net import Network
from repro.sim import Environment
from repro.storage import LsmStore
from repro.storage import lsm as lsm_module


@pytest.fixture
def env():
    return Environment(seed=201)


def run(env, gen):
    return env.run_until(env.process(gen))


class TestFaultPlanEdges:
    def test_unknown_fault_kind_raises(self, env):
        net = Network(env)
        bad = FaultEvent(at=1.0, kind="meteor")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan._execute(net, bad)

    def test_plan_is_chainable_and_ordered(self, env):
        net = Network(env)
        net.add_node("n")
        net.add_node("m")
        plan = (FaultPlan()
                .loss(0.5, at=1.0)
                .duplication(0.1, at=2.0)
                .crash("n", at=3.0)
                .restart("n", at=4.0)
                .partition(["n"], ["m"], at=5.0, heal_at=6.0))
        assert [e.at for e in plan.events] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


class TestJobGraphEdges:
    def test_sink_cannot_produce(self):
        graph = JobGraph("g")
        graph.source("s")
        graph.sink("out")
        graph.operator("op", lambda s, k, v, e: None)
        with pytest.raises(ValueError, match="sink cannot produce"):
            graph.connect("out", "op")

    def test_cycle_detection(self):
        graph = JobGraph("g")
        graph.source("s")
        graph.operator("a", lambda s, k, v, e: None)
        graph.operator("b", lambda s, k, v, e: None)
        graph.sink("out")
        graph.connect("s", "a")
        graph.connect("a", "b")
        graph.connect("b", "a")  # cycle
        graph.connect("b", "out")
        with pytest.raises(ValueError, match="cycle"):
            graph.validate()


class TestDatabaseEdges:
    def test_duplicate_table_rejected(self, env):
        db = Database(env)
        db.create_table("t")
        with pytest.raises(ValueError):
            db.create_table("t")

    def test_resolve_unknown_in_doubt_is_noop(self, env):
        db = Database(env)
        db.resolve_in_doubt(999, commit=True)  # no exception

    def test_read_only_txn_commits(self, env):
        db = Database(env)
        db.create_table("t")
        db.load("t", [{"id": 1, "v": "x"}])

        def flow():
            txn = db.begin(IsolationLevel.SNAPSHOT)
            row = yield from db.get(txn, "t", 1)
            yield from db.commit(txn)
            return row

        assert run(env, flow())["v"] == "x"
        assert db.stats.committed == 1

    def test_delete_then_insert_same_key_in_txn(self, env):
        db = Database(env)
        db.create_table("t")
        db.load("t", [{"id": 1, "v": "old"}])

        def flow():
            txn = db.begin(IsolationLevel.SERIALIZABLE)
            yield from db.delete(txn, "t", 1)
            yield from db.insert(txn, "t", {"id": 1, "v": "new"})
            yield from db.commit(txn)

        run(env, flow())
        assert db.read_latest("t", 1)["v"] == "new"

    def test_snapshot_scan_is_stable_under_concurrent_inserts(self, env):
        db = Database(env)
        db.create_table("t")
        db.load("t", [{"id": i} for i in range(3)])
        counts = []

        def scanner():
            txn = db.begin(IsolationLevel.SNAPSHOT)
            rows1 = yield from db.scan(txn, "t")
            yield env.timeout(10)
            rows2 = yield from db.scan(txn, "t")
            yield from db.commit(txn)
            counts.extend([len(rows1), len(rows2)])

        def inserter():
            yield env.timeout(5)
            txn = db.begin(IsolationLevel.READ_COMMITTED)
            yield from db.insert(txn, "t", {"id": 99})
            yield from db.commit(txn)

        env.process(scanner())
        env.process(inserter())
        env.run()
        assert counts == [3, 3]  # no phantom inside the snapshot

    def test_multiple_loads_survive_recovery(self, env):
        db = Database(env)
        db.create_table("t")
        db.load("t", [{"id": 1}])
        db.load("t", [{"id": 2}])
        db.crash()
        db.recover()
        assert {r["id"] for r in db.all_rows("t")} == {1, 2}


class TestLsmEdges:
    @pytest.fixture(autouse=True)
    def small_levels(self, monkeypatch):
        monkeypatch.setattr(lsm_module, "LEVEL0_LIMIT", 2)
        monkeypatch.setattr(lsm_module, "LEVEL_RATIO", 2)

    def test_deep_compaction_cascade(self):
        lsm = LsmStore(memtable_limit=2)
        for i in range(200):
            lsm.put(f"k{i:04d}", i)
        lsm.flush()
        assert len(lsm) == 200
        for i in (0, 57, 123, 199):
            assert lsm.get(f"k{i:04d}") == i
        assert lsm.stats.compactions > 3
        assert sum(len(level) for level in lsm._levels) < 10

    def test_overwrite_heavy_workload_reclaims(self):
        lsm = LsmStore(memtable_limit=4)
        for round_index in range(20):
            for key_index in range(5):
                lsm.put(f"k{key_index}", round_index)
        assert len(lsm) == 5
        assert all(lsm.get(f"k{i}") == 19 for i in range(5))


class TestNodeEdges:
    def test_deliver_to_unbound_port_returns_false(self, env):
        net = Network(env)
        node = net.add_node("n")
        assert not node.deliver("ghost-port", "payload")

    def test_deliver_to_dead_node_returns_false(self, env):
        net = Network(env)
        node = net.add_node("n")
        node.bind("p")
        node.crash()
        assert not node.deliver("p", "payload")
