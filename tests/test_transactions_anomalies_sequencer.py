"""Tests for invariants, the effect ledger, and the deterministic sequencer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transactions import (
    ConservationInvariant,
    EffectLedger,
    NonNegativeInvariant,
    PredicateInvariant,
    Sequencer,
)
from repro.apps.core import HandlerSpec
from repro.parallel import plan_epoch
from repro.transactions.sequencer import partition_conflicts


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

    def test_non_negative(self):
        inv = NonNegativeInvariant("stock")
        state = [{"id": "a", "stock": 3}, {"id": "b", "stock": -2}]
        violations = inv.check(state)
        assert len(violations) == 1
        assert "'b'" in violations[0].detail

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
        assert report.total_anomalies == 1

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


class TestSequencer:
    def test_tids_are_gap_free_and_ordered(self):
        seq = Sequencer()
        txns = [seq.submit(f"payload-{i}") for i in range(5)]
        assert [t.tid for t in txns] == [1, 2, 3, 4, 5]

    def test_epoch_cut(self):
        seq = Sequencer()
        seq.submit("a")
        seq.submit("b")
        batch = seq.cut_epoch()
        assert [t.payload for t in batch] == ["a", "b"]
        assert seq.current_epoch == 1
        assert seq.pending_count == 0
        later = seq.submit("c")
        assert later.epoch == 1

    def test_epoch_full(self):
        seq = Sequencer(epoch_size=2)
        seq.submit("a")
        assert not seq.epoch_full()
        seq.submit("b")
        assert seq.epoch_full()

    def test_invalid_epoch_size(self):
        with pytest.raises(ValueError):
            Sequencer(epoch_size=0)


class TestPartitionConflicts:
    def _mk_batch(self, key_sets):
        seq = Sequencer()
        return [seq.submit(frozenset(keys)) for keys in key_sets]

    def test_disjoint_txns_share_a_wave(self):
        batch = self._mk_batch([{"a"}, {"b"}, {"c"}])
        waves = partition_conflicts(batch, keys_of=set)
        assert len(waves) == 1
        assert len(waves[0]) == 3

    def test_conflicting_txns_split_into_ordered_waves(self):
        batch = self._mk_batch([{"a"}, {"a"}, {"a"}])
        waves = partition_conflicts(batch, keys_of=set)
        assert [len(w) for w in waves] == [1, 1, 1]
        tids = [w[0].tid for w in waves]
        assert tids == sorted(tids)

    def test_mixed_case(self):
        batch = self._mk_batch([{"a"}, {"b"}, {"a", "c"}, {"d"}])
        waves = partition_conflicts(batch, keys_of=set)
        # txn3 conflicts with txn1 -> wave 1; txn2, txn4 fit in wave 0.
        assert len(waves) == 2
        assert {t.tid for t in waves[0]} == {1, 2, 4}
        assert {t.tid for t in waves[1]} == {3}

    @settings(max_examples=60, deadline=None)
    @given(
        key_sets=st.lists(
            st.sets(st.integers(0, 8), min_size=1, max_size=3), max_size=30
        )
    )
    def test_waves_preserve_conflict_order_and_are_conflict_free(self, key_sets):
        """Property: serial-equivalence conditions of deterministic locking."""
        batch = self._mk_batch(key_sets)
        waves = partition_conflicts(batch, keys_of=set)
        # 1. Every txn appears exactly once.
        flat = [t for wave in waves for t in wave]
        assert sorted(t.tid for t in flat) == [t.tid for t in batch]
        # 2. No intra-wave conflicts.
        for wave in waves:
            seen = set()
            for txn in wave:
                assert not (seen & txn.payload)
                seen |= txn.payload
        # 3. Conflicting txns appear in TID order across waves.
        wave_index = {t.tid: i for i, wave in enumerate(waves) for t in wave}
        for i, first in enumerate(batch):
            for second in batch[i + 1:]:
                if first.payload & second.payload:
                    assert wave_index[first.tid] < wave_index[second.tid]


def _touch_nothing(ctx, keys):
    return None
    yield  # pragma: no cover


#: an op here is just its key set, declared as ``("kv", key)`` reads
_KEYS_HANDLER = HandlerSpec(
    "keys", _touch_nothing,
    reads=lambda keys: [("kv", key) for key in sorted(keys, key=repr)],
    writes=lambda keys: [],
)


class TestPartitionQueues:
    """The queue view of the epoch planner, beside partition_conflicts."""

    def _mk_batch(self, key_sets):
        seq = Sequencer()
        for keys in key_sets:
            keys = frozenset(keys)
            seq.submit((keys, _KEYS_HANDLER, _KEYS_HANDLER.access(keys)))
        return seq.cut_epoch()

    def _queues(self, batch, shard_of, num_shards=8):
        return plan_epoch(batch, num_shards=num_shards, shard_of=shard_of).queues

    def test_empty_epoch_yields_no_queues(self):
        assert self._queues([], shard_of=lambda k: 0) == {}
        assert partition_conflicts([], keys_of=set) == []

    def test_single_hot_key_fills_one_queue_in_tid_order(self):
        batch = self._mk_batch([{"hot"}] * 5)
        queues = self._queues(batch, shard_of=lambda k: hash(k) % 4)
        (queue,) = queues.values()
        assert [t.tid for t in queue] == [t.tid for t in batch]
        # ... and the wave view degenerates to fully serial.
        keys_of = lambda payload: set(payload[0])
        assert len(partition_conflicts(batch, keys_of=keys_of)) == len(batch)

    def test_cross_shard_txn_lands_in_every_owning_queue_exactly_once(self):
        shard_of = lambda key: {"a": 0, "b": 1, "c": 2}[key]
        batch = self._mk_batch([{"a", "b"}, {"c"}, {"a", "b", "c"}])
        queues = self._queues(batch, shard_of=shard_of)
        for shard in (0, 1):
            assert [t.tid for t in queues[shard]] == [1, 3]
        assert [t.tid for t in queues[2]] == [2, 3]

    def test_queue_keys_are_sorted_shards(self):
        batch = self._mk_batch([{"b"}, {"a"}])
        queues = self._queues(batch, shard_of=lambda key: {"a": 0, "b": 7}[key])
        assert list(queues) == [0, 7]

    @settings(max_examples=40, deadline=None)
    @given(
        key_sets=st.lists(
            st.sets(st.integers(0, 12), min_size=1, max_size=4), max_size=25
        ),
        num_shards=st.integers(1, 5),
    )
    def test_queues_cover_batch_and_preserve_tid_order(self, key_sets, num_shards):
        batch = self._mk_batch(key_sets)
        shard_of = lambda key: key % num_shards
        queues = self._queues(batch, shard_of=shard_of, num_shards=num_shards)
        for shard, queue in queues.items():
            tids = [t.tid for t in queue]
            # TID (total) order within every queue, no duplicates.
            assert tids == sorted(tids)
            assert len(tids) == len(set(tids))
            # Only owners: every queued txn has a key on this shard.
            for txn in queue:
                assert any(shard_of(k) == shard for k in txn.op)
        # Every txn appears in exactly the queues of its owning shards.
        for txn in batch:
            owners = {shard_of(k) for k in txn.payload[0]}
            queued = {s for s, q in queues.items()
                      if txn.tid in [t.tid for t in q]}
            assert queued == owners
