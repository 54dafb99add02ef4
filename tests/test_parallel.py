"""Queue-oriented execution: planner, procedures, executor, serial oracle.

The contract under test is the one ``repro.parallel`` states: planning is
a pure function of the sequenced batch (hash-seed- and platform-stable),
and a planned epoch lands the authoritative engines in exactly the state
that applying the same procedures one by one in TID order would.
"""

import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Database, ShardedDatabase
from repro.parallel import (
    PROC_REGISTRY,
    EpochExecutor,
    TxnSpec,
    TxnView,
    UndeclaredKey,
    UnknownProcedure,
    execute_entries,
    plan_epoch,
    procedure,
    spin,
)
from repro.sim import Environment
from repro.transactions import Sequencer
from repro.transactions.sequencer import partition_queues


def _rmw(key, **kw):
    return TxnSpec(proc="kv.rmw", args=("kv", key), keys=(("kv", key),), **kw)


def _read(key):
    return TxnSpec(proc="kv.read", args=("kv", key), keys=(("kv", key),))


def _transfer(src, dst, amount=1):
    return TxnSpec(
        proc="kv.transfer",
        args=("kv", src, dst, amount),
        keys=(("kv", src), ("kv", dst)),
    )


def _sequence(specs):
    sequencer = Sequencer()
    return [sequencer.submit(spec) for spec in specs]


# -- planning ----------------------------------------------------------------


class TestPlanEpoch:
    def test_empty_epoch(self):
        plan = plan_epoch([], num_shards=4)
        assert plan.queues == {}
        assert plan.rounds == []
        assert plan.stats.txns == 0
        assert plan.stats.waves == 0

    def test_single_shard_txns_fill_one_round(self):
        route = lambda key: key % 4
        batch = _sequence([_rmw(k) for k in (0, 1, 2, 3, 4)])
        plan = plan_epoch(batch, num_shards=4, shard_of=route)
        assert plan.stats.rounds == 1
        assert plan.stats.cross_shard == 0
        (rnd,) = plan.rounds
        assert not rnd.rendezvous
        # Queue order within a shard is TID order.
        assert [t.tid for t in rnd.local[0]] == [1, 5]

    def test_hot_key_serializes_into_one_queue(self):
        batch = _sequence([_rmw("hot") for _ in range(6)])
        plan = plan_epoch(batch, num_shards=8)
        assert len(plan.queues) == 1
        (queue,) = plan.queues.values()
        assert [t.tid for t in queue] == [t.tid for t in batch]
        # Every txn conflicts with every other: the wave count is the
        # batch length — the planner reports the serialization it cannot
        # avoid instead of hiding it.
        assert plan.stats.waves == len(batch)
        assert plan.stats.max_queue == len(batch)

    def test_cross_shard_txn_in_every_owning_queue_exactly_once(self):
        route = lambda key: key % 3
        batch = _sequence([_rmw(0), _transfer(1, 2), _rmw(4)])
        plan = plan_epoch(batch, num_shards=3, shard_of=route)
        cross = batch[1].tid
        owning = [s for s, q in plan.queues.items()
                  if cross in [t.tid for t in q]]
        assert owning == [1, 2]
        for shard in owning:
            assert [t.tid for t in plan.queues[shard]].count(cross) == 1

    def test_rendezvous_cuts_rounds_in_tid_order(self):
        route = lambda key: key % 2
        batch = _sequence([
            _rmw(0), _rmw(1),          # round 0 locals
            _transfer(0, 1),           # round 0 rendezvous
            _rmw(2), _rmw(3),          # round 1 locals
            _transfer(2, 3),           # round 1 rendezvous
            _rmw(4),                   # round 2
        ])
        plan = plan_epoch(batch, num_shards=2, shard_of=route)
        assert plan.stats.rounds == 3
        assert [len(r.rendezvous) for r in plan.rounds] == [1, 1, 0]
        assert plan.rounds[0].rendezvous[0].tid == 3

    def test_zero_key_txn_is_rendezvous(self):
        # No declared keys means the planner cannot prove independence:
        # it lands at the barrier, not in an arbitrary queue.
        batch = _sequence([TxnSpec(proc="kv.read", args=("kv", "x"))])
        plan = plan_epoch(batch, num_shards=4)
        assert plan.rounds[0].rendezvous[0].tid == batch[0].tid

    def test_partition_queues_sorted_and_complete(self):
        batch = _sequence([_transfer("a", "b"), _rmw("c")])
        queues = partition_queues(
            batch,
            keys_of=lambda spec: set(spec.keys),
            shard_of=lambda ref: {"a": 2, "b": 0, "c": 1}[ref[1]],
        )
        assert list(queues) == sorted(queues)
        assert [t.tid for t in queues[0]] == [1]
        assert [t.tid for t in queues[2]] == [1]
        assert [t.tid for t in queues[1]] == [2]


_HASHSEED_PROBE = """
import sys
sys.path.insert(0, {src!r})
from repro.parallel import TxnSpec, plan_epoch
from repro.transactions import Sequencer

sequencer = Sequencer()
for i in range(40):
    if i % 5 == 4:
        keys = (("kv", f"k{{i}}"), ("kv", f"k{{(i * 7) % 40}}"), ("kv", "hot"))
        spec = TxnSpec(proc="kv.read", args=("kv", "hot"), keys=tuple(set(keys)))
    else:
        spec = TxnSpec(proc="kv.rmw", args=("kv", f"k{{i}}"),
                       keys=(("kv", f"k{{i}}"),))
    sequencer.submit(spec)
plan = plan_epoch(sequencer.cut_epoch(), num_shards=5)
digest = [
    (shard, [t.tid for t in queue]) for shard, queue in plan.queues.items()
]
digest.append(("rounds", [
    (sorted(r.local), [t.tid for t in r.rendezvous]) for r in plan.rounds
]))
print(digest)
"""


def test_plan_is_hash_seed_invariant(tmp_path):
    """String keys through sets must not leak ``PYTHONHASHSEED`` into the
    plan: the same batch must produce the same queues and rounds under
    different hash randomization seeds (the benches pin seed 0; plans made
    by unpinned processes must still agree)."""
    import os

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


# -- procedures and the execution kernel -------------------------------------


class TestProcs:
    def test_undeclared_access_raises(self):
        ctx = TxnView({}, frozenset({("kv", "a")}))
        with pytest.raises(UndeclaredKey):
            ctx.get("kv", "b")
        with pytest.raises(UndeclaredKey):
            ctx.put("kv", "b", {"id": "b"})

    def test_unknown_procedure(self):
        entries = _sequence([TxnSpec(proc="no.such.proc",
                                     keys=(("kv", "a"),))])
        plan = plan_epoch(entries, num_shards=1)
        with pytest.raises(UnknownProcedure):
            execute_entries({}, plan.queues[0])

    def test_later_txns_see_earlier_writes(self):
        batch = _sequence([_rmw("a"), _rmw("a"), _rmw("a")])
        plan = plan_epoch(batch, num_shards=1)
        store = {}
        results = execute_entries(store, plan.queues[0])
        assert [tid for tid, _writes in results] == [1, 2, 3]
        assert store[("kv", "a")]["counter"] == 3

    def test_spin_is_deterministic(self):
        assert spin(1000, salt=7) == spin(1000, salt=7)
        assert spin(1000, salt=7) != spin(1000, salt=8)


# -- the epoch executor -------------------------------------------------------


def _spec_mix(n=120, accounts=24, cross_every=6):
    specs = []
    for i in range(n):
        if i % cross_every == cross_every - 1:
            src = f"acct-{(i * 5 + 2) % accounts}"
            dst = f"acct-{(i * 7 + 3) % accounts}"
            if src == dst:
                dst = f"acct-{(i * 7 + 4) % accounts}"
            specs.append(_transfer(src, dst))
        else:
            specs.append(_rmw(f"acct-{(i * 13 + 1) % accounts}"))
    return specs


def _engine_state(db):
    return sorted(
        (row["id"], sorted(row.items())) for row in db.all_rows("kv")
    )


@procedure("tests.noop")
def _noop(ctx):
    """Declares and touches nothing: the planner's zero-key case."""


@procedure("tests.rotate")
def _rotate(ctx, table, keys):
    """Delete the first declared row, bump the rest: a transaction that
    spans as many shards as it has keys and merges a deletion."""
    ctx.delete(table, keys[0])
    for key in keys[1:]:
        row = ctx.get(table, key) or {"id": key, "counter": 0}
        ctx.put(table, key, {**row, "counter": row.get("counter", 0) + 1})


def _rotate_spec(keys):
    return TxnSpec(proc="tests.rotate", args=("kv", tuple(keys)),
                   keys=tuple(("kv", key) for key in keys))


def _serial_oracle(rows, specs):
    """Apply ``specs`` one by one in TID (= submission) order on a plain
    dict — no planner, no shards, no merge.  Returns the final state and
    each transaction's recorded writes."""
    store = {("kv", row["id"]): dict(row) for row in rows}
    writes = []
    for spec in specs:
        ctx = TxnView(store, frozenset(spec.keys))
        PROC_REGISTRY[spec.proc](ctx, *spec.args)
        writes.append(ctx.writes)
    state = sorted((ref[1], sorted(row.items())) for ref, row in store.items())
    return state, writes


def _assert_planned_equals_serial(sharded, specs, rows):
    env = Environment(seed=3)
    if sharded:
        db = ShardedDatabase(env, num_shards=3, name="shexec")
        engines, engine_of, executor_args = db.shards, db.router.shard_of, {}
    else:
        db = Database(env, name="exec")
        engines, engine_of, executor_args = [db], lambda key: 0, {"num_shards": 4}
    db.create_table("kv", primary_key="id")
    db.load("kv", rows)
    before = sum(engine._commit_seq for engine in engines)
    executor = EpochExecutor(db, **executor_args)
    for spec in specs:
        executor.submit(spec)
    result = executor.flush()

    state, writes = _serial_oracle(rows, specs)
    assert _engine_state(db) == state
    # One commit sequence per transaction on every engine it wrote.
    commits = sum(len({engine_of(ref[1]) for ref, _row in w}) for w in writes)
    assert result.applied == commits
    assert sum(engine._commit_seq for engine in engines) - before == commits
    assert result.txns == len(specs)


_KEYS = [f"acct-{i}" for i in range(6)]  # few keys: every one is hot
_key = st.sampled_from(_KEYS)


def _distinct_keys(lo, hi):
    return st.lists(_key, min_size=lo, max_size=hi, unique=True)


_spec = st.one_of(
    _key.map(_rmw),
    _distinct_keys(2, 2).map(lambda pair: _transfer(*pair)),
    _distinct_keys(1, 4).map(_rotate_spec),
    _key.map(_read),
    st.just(TxnSpec(proc="tests.noop")),
)


class TestEpochExecutor:
    @pytest.mark.parametrize("sharded", [False, True],
                             ids=["database", "sharded_database"])
    def test_planned_execution_equals_serial(self, sharded):
        rows = [{"id": f"acct-{i}", "counter": 0, "balance": 0}
                for i in range(24)]
        _assert_planned_equals_serial(sharded, _spec_mix(), rows)

    @pytest.mark.parametrize("sharded", [False, True],
                             ids=["database", "sharded_database"])
    @settings(max_examples=40, deadline=None)
    @given(specs=st.lists(_spec, max_size=30),
           loaded=st.sets(_key))
    def test_generated_mix_equals_serial(self, sharded, specs, loaded):
        rows = [{"id": key, "counter": 0, "balance": 0}
                for key in sorted(loaded)]
        _assert_planned_equals_serial(sharded, specs, rows)

    def test_multiple_epochs_accumulate(self):
        env = Environment(seed=5)
        db = Database(env, name="epochs")
        db.create_table("kv", primary_key="id")
        db.load("kv", [{"id": "a", "counter": 0}])
        executor = EpochExecutor(db, num_shards=2)
        for _ in range(2):
            for _ in range(3):
                executor.submit(_rmw("a"))
            executor.flush()
        assert executor.epochs_run == 2
        (row,) = db.all_rows("kv")
        assert row["counter"] == 6

    def test_epoch_writes_survive_crash_recovery(self):
        env = Environment(seed=6)
        db = Database(env, name="recov")
        db.create_table("kv", primary_key="id")
        executor = EpochExecutor(db, num_shards=2)
        executor.submit(TxnSpec(
            proc="kv.put", args=("kv", "k1", {"id": "k1", "v": 7}),
            keys=(("kv", "k1"),),
        ))
        executor.flush()
        db.crash()
        db.recover()
        (row,) = db.all_rows("kv")
        assert row["v"] == 7

    def test_read_only_txns_consume_no_commit_seq(self):
        env = Environment(seed=8)
        db = Database(env, name="ro")
        db.create_table("kv", primary_key="id")
        db.load("kv", [{"id": "a", "counter": 0}])
        before = db._commit_seq
        executor = EpochExecutor(db, num_shards=2)
        executor.submit(_read("a"))
        result = executor.flush()
        assert result.applied == 0
        assert db._commit_seq == before

    def test_undeclared_key_leaves_engine_untouched(self):
        env = Environment(seed=9)
        db = Database(env, name="undeclared")
        db.create_table("kv", primary_key="id")
        db.load("kv", [{"id": "a", "balance": 5}, {"id": "b", "balance": 5}])
        state, seq, lsn = _engine_state(db), db._commit_seq, db.wal.last_lsn
        executor = EpochExecutor(db, num_shards=1)
        executor.submit(TxnSpec(
            proc="kv.transfer", args=("kv", "a", "b", 1),
            keys=(("kv", "a"), ("kv", "b")),
        ))
        # Declares only "a" but transfers between "a" and "b".
        executor.submit(TxnSpec(
            proc="kv.transfer", args=("kv", "a", "b", 1),
            keys=(("kv", "a"),),
        ))
        with pytest.raises(UndeclaredKey):
            executor.flush()
        # Not even the well-formed first transfer was merged.
        assert _engine_state(db) == state
        assert (db._commit_seq, db.wal.last_lsn) == (seq, lsn)

    def test_requires_shard_count_for_single_engine(self):
        env = Environment(seed=10)
        db = Database(env, name="noshards")
        with pytest.raises(ValueError):
            EpochExecutor(db)
