"""Tests for invariants, the effect ledger, and the conflict-wave planner."""

import os
import subprocess
import sys
from typing import Any, NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transactions import (
    ConservationInvariant,
    EffectLedger,
    PredicateInvariant,
)
from repro.cluster.plan import conflict_waves


class _Txn(NamedTuple):
    """A TID-ordered batch entry whose payload is its declared key set."""

    tid: int
    payload: Any


def _payload(txn):
    return txn.payload


class TestInvariants:
    def test_conservation_holds(self):
        inv = ConservationInvariant("balance", 300)
        state = [{"balance": 100}, {"balance": 200}]
        assert inv.check(state) == []

    def test_conservation_violated_reports_drift(self):
        inv = ConservationInvariant("balance", 300)
        violations = inv.check([{"balance": 100}, {"balance": 150}])
        assert len(violations) == 1
        assert "-50" in violations[0].detail

    def test_predicate_invariant(self):
        inv = PredicateInvariant("even", lambda s: s % 2 == 0, "state is odd")
        assert inv.check(4) == []
        assert inv.check(3)[0].detail == "state is odd"


class TestEffectLedger:
    def test_clean_run(self):
        ledger = EffectLedger()
        for op in ("a", "b"):
            ledger.acknowledge(op)
            ledger.apply(op)
        report = ledger.reconcile()
        assert report.clean
        assert report.summary() == "clean"

    def test_lost_effect_detected(self):
        ledger = EffectLedger()
        ledger.acknowledge("op1")  # told the client it worked, never applied
        report = ledger.reconcile()
        assert report.lost_effects == 1
        assert ledger.lost() == ["op1"]
        assert "lost" in report.summary()

    def test_duplicate_effect_detected(self):
        ledger = EffectLedger()
        ledger.acknowledge("op1")
        ledger.apply("op1")
        ledger.apply("op1")  # replayed without dedup
        report = ledger.reconcile()
        assert report.duplicate_effects == 1
        assert ledger.duplicates() == ["op1"]

    def test_unacknowledged_apply_is_not_an_anomaly(self):
        ledger = EffectLedger()
        ledger.apply("op1")  # applied, but the client saw a timeout
        report = ledger.reconcile()
        assert report.clean
        assert report.unacknowledged_applied == 1

    def test_reconcile_with_invariants(self):
        ledger = EffectLedger()
        report = ledger.reconcile(
            invariants=[ConservationInvariant("balance", 100)],
            state=[{"balance": 90}],
        )
        assert not report.clean
        assert len(report.violations) == 1
        assert report.lost_effects == report.duplicate_effects == 0

    @settings(max_examples=50, deadline=None)
    @given(
        acked=st.sets(st.integers(0, 30)),
        applies=st.lists(st.integers(0, 30), max_size=100),
    )
    def test_ledger_accounting_is_exact(self, acked, applies):
        ledger = EffectLedger()
        for op in acked:
            ledger.acknowledge(op)
        for op in applies:
            ledger.apply(op)
        applied_set = set(applies)
        assert set(ledger.lost()) == acked - applied_set
        expected_dupes = {op for op in applied_set if applies.count(op) > 1}
        assert set(ledger.duplicates()) == expected_dupes
        assert set(ledger.unacknowledged()) == applied_set - acked


class TestPartitionConflicts:
    def _mk_batch(self, key_sets):
        return [
            _Txn(tid, None if keys is None else frozenset(keys))
            for tid, keys in enumerate(key_sets, start=1)
        ]

    def test_disjoint_txns_share_a_wave(self):
        batch = self._mk_batch([{"a"}, {"b"}, {"c"}])
        waves = conflict_waves(batch, _payload)
        assert len(waves) == 1
        assert len(waves[0]) == 3

    def test_conflicting_txns_split_into_ordered_waves(self):
        batch = self._mk_batch([{"a"}, {"a"}, {"a"}])
        waves = conflict_waves(batch, _payload)
        assert [len(w) for w in waves] == [1, 1, 1]
        tids = [w[0].tid for w in waves]
        assert tids == sorted(tids)

    def test_mixed_case(self):
        batch = self._mk_batch([{"a"}, {"b"}, {"a", "c"}, {"d"}])
        waves = conflict_waves(batch, _payload)
        # txn3 conflicts with txn1 -> wave 1; txn2, txn4 fit in wave 0.
        assert len(waves) == 2
        assert {t.tid for t in waves[0]} == {1, 2, 4}
        assert {t.tid for t in waves[1]} == {3}

    @settings(max_examples=60, deadline=None)
    @given(
        key_sets=st.lists(
            st.one_of(
                st.sets(st.integers(0, 8), min_size=1, max_size=3), st.none()
            ),
            max_size=30,
        )
    )
    def test_waves_preserve_conflict_order_and_are_conflict_free(self, key_sets):
        """Property: serial-equivalence conditions of deterministic locking.

        ``None`` is an undeclared key set: a barrier alone in its wave."""
        batch = self._mk_batch(key_sets)
        waves = conflict_waves(batch, _payload)
        # 1. Every txn appears exactly once, and no wave is empty.
        flat = [t for wave in waves for t in wave]
        assert all(waves)
        assert sorted(t.tid for t in flat) == [t.tid for t in batch]
        # 2. No intra-wave conflicts.
        for wave in waves:
            seen = set()
            for txn in wave:
                if txn.payload is None:
                    assert wave == [txn]
                    continue
                assert not (seen & txn.payload)
                seen |= txn.payload
        # 3. Conflicting txns appear in TID order across waves; an
        # undeclared txn conflicts with everything.
        wave_index = {t.tid: i for i, wave in enumerate(waves) for t in wave}
        for i, first in enumerate(batch):
            for second in batch[i + 1:]:
                if (first.payload is None or second.payload is None
                        or first.payload & second.payload):
                    assert wave_index[first.tid] < wave_index[second.tid]


_HASHSEED_PROBE = """
import sys
sys.path.insert(0, {src!r})
from repro.cluster.hashing import stable_hash
from repro.cluster.plan import by_partition, conflict_waves

batch = []
for i in range(40):
    if i % 5 == 4:
        keys = tuple({{("kv", f"k{{i}}"), ("kv", f"k{{(i * 7) % 40}}"), ("kv", "hot")}})
    else:
        keys = (("kv", f"k{{i}}"),)
    batch.append((i + 1, keys))
waves = conflict_waves(batch, lambda item: item[1])
digest = [("waves", [[tid for tid, _keys in wave] for wave in waves])]
for tid, keys in batch:
    parts = by_partition(keys, lambda key: stable_hash(key) % 5, {{}})
    digest.append((tid, list(parts.items())))
print(digest)
"""


def test_plan_is_hash_seed_invariant(tmp_path):
    """String keys through sets must not leak ``PYTHONHASHSEED`` into the
    plan: the same batch must produce the same conflict waves and the same
    partition lock order under different hash randomization seeds (the
    transactional dataflow's epochs and both ``lock_and_fetch``es rely on
    it)."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    script = tmp_path / "probe.py"
    script.write_text(_HASHSEED_PROBE.format(src=src))
    digests = set()
    for seed in ("0", "1", "424242"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        out = subprocess.run(
            [sys.executable, str(script)], env=env,
            capture_output=True, text=True, check=True,
        )
        digests.add(out.stdout)
    assert len(digests) == 1
