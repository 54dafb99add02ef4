"""Unit and property tests for the LSM-tree store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import LsmStore
from repro.storage import lsm as lsm_module


@pytest.fixture
def lsm(monkeypatch):
    monkeypatch.setattr(lsm_module, "LEVEL0_LIMIT", 2)
    return LsmStore(memtable_limit=8)


class TestBasics:
    def test_put_get(self, lsm):
        lsm.put("k", "v")
        assert lsm.get("k") == "v"

    def test_absent_returns_default(self, lsm):
        assert lsm.get("nope") is None
        assert lsm.get("nope", 0) == 0

    def test_overwrite_in_memtable(self, lsm):
        lsm.put("k", 1)
        lsm.put("k", 2)
        assert lsm.get("k") == 2

    def test_none_values_rejected(self, lsm):
        with pytest.raises(ValueError):
            lsm.put("k", None)

    def test_contains(self, lsm):
        lsm.put("k", 0)  # falsy value must still count as present
        assert "k" in lsm
        assert "other" not in lsm

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LsmStore(memtable_limit=0)


class TestFlushAndCompaction:
    def test_flush_triggered_by_memtable_limit(self, lsm):
        for i in range(8):
            lsm.put(f"k{i}", i)
        assert lsm.stats.flushes == 1
        assert lsm.get("k3") == 3

    def test_read_spans_memtable_and_runs(self, lsm):
        for i in range(20):
            lsm.put(f"key{i:03d}", i)
        for i in range(20):
            assert lsm.get(f"key{i:03d}") == i

    def test_newer_run_shadows_older(self, lsm):
        lsm.put("k", "old")
        lsm.flush()
        lsm.put("k", "new")
        lsm.flush()
        assert lsm.get("k") == "new"

    def test_compaction_triggered(self, lsm):
        for i in range(40):
            lsm.put(f"k{i:03d}", i)
        assert lsm.stats.compactions >= 1
        for i in range(40):
            assert lsm.get(f"k{i:03d}") == i

    def test_compaction_reduces_runs(self, monkeypatch):
        monkeypatch.setattr(lsm_module, "LEVEL0_LIMIT", 2)
        lsm = LsmStore(memtable_limit=4)
        for i in range(64):
            lsm.put(f"k{i:03d}", i)
        runs = sum(len(level) for level in lsm._levels)
        assert runs < 16  # without compaction there would be 16 runs

    def test_bloom_filter_skips_runs(self, lsm):
        for i in range(8):
            lsm.put(f"aaa{i}", i)
        lsm.flush()
        for _ in range(50):
            lsm.get("zzz-not-there")
        assert lsm.stats.bloom_skips > 0


class TestDeletes:
    def test_delete_in_memtable(self, lsm):
        lsm.put("k", 1)
        lsm.delete("k")
        assert lsm.get("k") is None
        assert "k" not in lsm

    def test_delete_shadows_flushed_value(self, lsm):
        lsm.put("k", 1)
        lsm.flush()
        lsm.delete("k")
        assert lsm.get("k") is None

    def test_tombstone_survives_flush(self, lsm):
        lsm.put("k", 1)
        lsm.flush()
        lsm.delete("k")
        lsm.flush()
        assert lsm.get("k") is None
        assert "k" not in dict(lsm.items())

    def test_len_ignores_deleted(self, lsm):
        lsm.put("a", 1)
        lsm.put("b", 2)
        lsm.delete("a")
        assert len(lsm) == 1


class TestRangeScans:
    def test_items_sorted(self, lsm):
        for key in ["c", "a", "b"]:
            lsm.put(key, key.upper())
        assert [k for k, _ in lsm.items()] == ["a", "b", "c"]


class TestSnapshotRestore:
    def test_roundtrip(self, lsm):
        for i in range(30):
            lsm.put(f"k{i:02d}", i)
        snap = lsm.snapshot()
        lsm.put("k00", 999)
        lsm.delete("k01")
        lsm.restore(snap)
        assert lsm.get("k00") == 0
        assert lsm.get("k01") == 1


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete", "get", "flush"]),
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=0, max_value=1000),
        ),
        max_size=200,
    )
)
def test_lsm_matches_dict_model(ops):
    """Property: LSM behaves exactly like a plain dict under any op sequence."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lsm_module, "LEVEL0_LIMIT", 2)
        patch.setattr(lsm_module, "LEVEL_RATIO", 2)
        lsm = LsmStore(memtable_limit=4)
        model = {}
        for op, key_index, value in ops:
            key = f"key{key_index:02d}"
            if op == "put":
                lsm.put(key, value)
                model[key] = value
            elif op == "delete":
                lsm.delete(key)
                model.pop(key, None)
            elif op == "flush":
                lsm.flush()
            else:
                assert lsm.get(key) == model.get(key)
    assert lsm.items() == sorted(model.items())
