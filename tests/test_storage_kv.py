"""Unit tests for the versioned key-value store."""

import pytest

from repro.storage import KeyValueStore


@pytest.fixture
def kv():
    return KeyValueStore()


class TestBasics:
    def test_get_absent_returns_default(self, kv):
        assert kv.get("x") is None
        assert kv.get("x", 7) == 7

    def test_put_then_get(self, kv):
        kv.put("x", 1)
        assert kv.get("x") == 1
        assert "x" in kv
        assert len(kv) == 1

    def test_overwrite(self, kv):
        kv.put("x", 1)
        kv.put("x", 2)
        assert kv.get("x") == 2

    def test_delete(self, kv):
        kv.put("x", 1)
        assert kv.delete("x")
        assert "x" not in kv
        assert not kv.delete("x")

    def test_update(self, kv):
        kv.put("n", 10)
        assert kv.update("n", lambda v: v + 5) == 15
        assert kv.get("n") == 15

    def test_update_with_default(self, kv):
        assert kv.update("n", lambda v: v + 1, default=0) == 1

    def test_scan_prefix(self, kv):
        kv.put("user:1", "a")
        kv.put("user:2", "b")
        kv.put("order:1", "c")
        assert kv.scan("user:") == [("user:1", "a"), ("user:2", "b")]


class TestVersions:
    def test_versions_increase(self, kv):
        assert kv.put("x", 1) == 1
        assert kv.put("x", 2) == 2
        assert kv.version("x") == 2

    def test_delete_bumps_version(self, kv):
        kv.put("x", 1)
        kv.delete("x")
        assert kv.version("x") == 2

    def test_get_versioned(self, kv):
        kv.put("x", "v")
        versioned = kv.get_versioned("x")
        assert versioned.value == "v"
        assert versioned.version == 1
        assert kv.get_versioned("nope") is None


class TestSnapshots:
    def test_snapshot_restore_roundtrip(self, kv):
        kv.put("a", 1)
        kv.put("b", 2)
        snap = kv.snapshot()
        kv.put("a", 99)
        kv.delete("b")
        kv.restore(snap)
        assert kv.get("a") == 1
        assert kv.get("b") == 2

    def test_snapshot_is_isolated(self, kv):
        kv.put("a", 1)
        snap = kv.snapshot()
        snap["a"] = 42
        assert kv.get("a") == 1
