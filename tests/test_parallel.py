"""Queue-oriented execution: planner, handlers, executor, serial oracle.

The contract under test is the one ``repro.parallel`` states: planning is
a pure function of the sequenced batch (hash-seed- and platform-stable),
and a planned epoch lands the authoritative engines in exactly the state
that running the same app ops one by one in TID order on a plain dict
(:func:`repro.apps.core.reference.run_op`) would.
"""

import subprocess
import sys
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.core import AppSpec, EntitySpec, HandlerSpec, UndeclaredAccess
from repro.apps.core.reference import ReferenceContext, run_op
from repro.db import Database, ShardedDatabase
from repro.parallel import EpochExecutor, plan_epoch
from repro.sim import Environment
from repro.transactions import Sequencer


@dataclass(frozen=True)
class KvOp:
    """One op of the test app: ``kind`` names its handler."""

    kind: str
    keys: tuple = ()
    amount: int = 1


def _rmw_body(ctx, op):
    key = op.keys[0]
    row = (yield from ctx.get("kv", key)) or {"id": key, "counter": 0}
    value = row.get("counter", 0) + 1
    yield from ctx.put("kv", key, {**row, "counter": value})
    return value


def _transfer_body(ctx, op):
    """Move ``amount`` between two rows — the canonical cross-shard txn."""
    src, dst = op.keys
    src_row = (yield from ctx.get("kv", src)) or {"id": src, "balance": 0}
    dst_row = (yield from ctx.get("kv", dst)) or {"id": dst, "balance": 0}
    src_balance = src_row.get("balance", 0) - op.amount
    dst_balance = dst_row.get("balance", 0) + op.amount
    yield from ctx.put("kv", src, {**src_row, "balance": src_balance})
    yield from ctx.put("kv", dst, {**dst_row, "balance": dst_balance})


def _rotate_body(ctx, op):
    """Delete the first declared row, bump the rest: a transaction that
    spans as many shards as it has keys and merges a deletion."""
    yield from ctx.delete("kv", op.keys[0])
    for key in op.keys[1:]:
        row = (yield from ctx.get("kv", key)) or {"id": key, "counter": 0}
        yield from ctx.put("kv", key, {**row, "counter": row.get("counter", 0) + 1})


def _read_body(ctx, op):
    row = yield from ctx.get("kv", op.keys[0])
    return row


def _noop_body(ctx, op):
    """Declares and touches nothing: the planner's zero-key case."""
    return None
    yield  # pragma: no cover


def _first(op):
    return [("kv", op.keys[0])]


def _every(op):
    return [("kv", key) for key in op.keys]


def _nothing(op):
    return []


KV = AppSpec(
    name="kv",
    entities=[EntitySpec("kv")],
    handlers=[
        HandlerSpec("rmw", _rmw_body, _first, _first),
        HandlerSpec("transfer", _transfer_body, _every, _every),
        HandlerSpec("rotate", _rotate_body, _every, _every),
        HandlerSpec("read", _read_body, _first, _nothing),
        HandlerSpec("noop", _noop_body, _nothing, _nothing),
        # Declares only the source but transfers between both keys.
        HandlerSpec("leaky", _transfer_body, _first, _first),
    ],
)


def _rmw(key):
    return KvOp("rmw", (key,))


def _read(key):
    return KvOp("read", (key,))


def _transfer(src, dst, amount=1):
    return KvOp("transfer", (src, dst), amount)


def _rotate(keys):
    return KvOp("rotate", tuple(keys))


def _sequence(ops):
    """Sequence ``ops`` as :meth:`EpochExecutor.submit` would."""
    sequencer = Sequencer()
    for op in ops:
        handler = KV.handler_for(op)
        sequencer.submit((op, handler, handler.access(op)))
    return sequencer.cut_epoch()


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
        batch = _sequence([KvOp("noop")])
        plan = plan_epoch(batch, num_shards=4)
        assert plan.rounds[0].rendezvous[0].tid == batch[0].tid

    def test_partition_queues_sorted_and_complete(self):
        batch = _sequence([_transfer("a", "b"), _rmw("c")])
        plan = plan_epoch(batch, num_shards=3,
                          shard_of=lambda key: {"a": 2, "b": 0, "c": 1}[key])
        assert list(plan.queues) == sorted(plan.queues)
        assert [t.tid for t in plan.queues[0]] == [1]
        assert [t.tid for t in plan.queues[2]] == [1]
        assert [t.tid for t in plan.queues[1]] == [2]


_HASHSEED_PROBE = """
import sys
sys.path.insert(0, {src!r})
from repro.apps.core import HandlerSpec
from repro.parallel import plan_epoch
from repro.transactions import Sequencer


def body(ctx, keys):
    return None
    yield


handler = HandlerSpec("h", body, reads=lambda keys: keys, writes=lambda keys: ())
sequencer = Sequencer()
for i in range(40):
    if i % 5 == 4:
        keys = tuple({{("kv", f"k{{i}}"), ("kv", f"k{{(i * 7) % 40}}"), ("kv", "hot")}})
    else:
        keys = (("kv", f"k{{i}}"),)
    sequencer.submit((keys, handler, handler.access(keys)))
plan = plan_epoch(sequencer.cut_epoch(), num_shards=5)
digest = [
    (shard, [t.tid for t in queue]) for shard, queue in plan.queues.items()
]
digest.append(("rounds", [
    (sorted(r.local), [t.tid for t in r.rendezvous]) for r in plan.rounds
]))
digest.append(("waves", plan.stats.waves))
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


# -- handlers and the reference run ------------------------------------------


class TestProcs:
    def test_undeclared_access_raises(self):
        op = _rmw("a")
        handler = KV.handler_for(op)
        ctx = ReferenceContext(op, handler, handler.access(op), {})
        with pytest.raises(UndeclaredAccess):
            next(ctx.get("kv", "b"))
        with pytest.raises(UndeclaredAccess):
            next(ctx.put("kv", "b", {"id": "b"}))

    def test_unknown_procedure(self):
        # An op no handler serves is refused at submit, before it takes a TID.
        executor = EpochExecutor(Database(Environment(seed=1)), KV, num_shards=1)
        with pytest.raises(KeyError):
            executor.submit(KvOp("no.such.proc", ("a",)))
        assert executor.sequencer.pending_count == 0

    def test_later_txns_see_earlier_writes(self):
        batch = _sequence([_rmw("a"), _rmw("a"), _rmw("a")])
        plan = plan_epoch(batch, num_shards=1)
        store = {}
        results = [run_op(t.handler, t.op, t.access, store) for t in plan.queues[0]]
        assert [result for result, _writes in results] == [1, 2, 3]
        assert store[("kv", "a")]["counter"] == 3

    def test_spin_is_deterministic(self):
        from benchmarks.perf.bench_parallel import spin

        assert spin(1000, salt=7) == spin(1000, salt=7)
        assert spin(1000, salt=7) != spin(1000, salt=8)


def test_yielding_handler_fails_loudly():
    """A body that waits on a simulator event cannot run without one: the
    epoch fails instead of dropping the rest of the body."""
    env = Environment(seed=4)

    def stall(ctx, op):
        yield env.timeout(1.0)
        yield from ctx.put("kv", op.keys[0], {"id": op.keys[0], "counter": 9})

    spec = AppSpec("stall", [EntitySpec("kv")],
                   [HandlerSpec("stall", stall, _first, _first)])
    db = Database(env, name="stall")
    db.create_table("kv", primary_key="id")
    executor = EpochExecutor(db, spec, num_shards=1)
    executor.submit(KvOp("stall", ("a",)))
    with pytest.raises(RuntimeError, match="yielded"):
        executor.flush()
    assert db.all_rows("kv") == []


# -- the epoch executor -------------------------------------------------------


def _op_mix(n=120, accounts=24, cross_every=6):
    ops = []
    for i in range(n):
        if i % cross_every == cross_every - 1:
            src = f"acct-{(i * 5 + 2) % accounts}"
            dst = f"acct-{(i * 7 + 3) % accounts}"
            if src == dst:
                dst = f"acct-{(i * 7 + 4) % accounts}"
            ops.append(_transfer(src, dst))
        else:
            ops.append(_rmw(f"acct-{(i * 13 + 1) % accounts}"))
    return ops


def _engine_state(db, table="kv"):
    return sorted(
        (repr(row["id"]), sorted(row.items())) for row in db.all_rows(table)
    )


def _store_state(store, table="kv"):
    return sorted(
        (repr(ref[1]), sorted(row.items()))
        for ref, row in store.items() if ref[0] == table
    )


def _serial_oracle(spec, store, ops):
    """Run ``ops`` one by one in TID (= submission) order on the plain dict
    ``store`` — no planner, no shards, no merge.  Returns each op's
    recorded writes."""
    writes = []
    for op in ops:
        handler = spec.handler_for(op)
        _result, op_writes = run_op(handler, op, handler.access(op), store)
        writes.append(op_writes)
    return writes


def _assert_planned_equals_serial(sharded, ops, rows):
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
    executor = EpochExecutor(db, KV, **executor_args)
    for op in ops:
        executor.submit(op)
    result = executor.flush()

    store = {("kv", row["id"]): dict(row) for row in rows}
    writes = _serial_oracle(KV, store, ops)
    assert _engine_state(db) == _store_state(store)
    # One commit sequence per transaction on every engine it wrote.
    commits = sum(len({engine_of(ref[1]) for ref, _row in w}) for w in writes)
    assert result.applied == commits
    assert sum(engine._commit_seq for engine in engines) - before == commits
    assert result.txns == len(ops)


_KEYS = [f"acct-{i}" for i in range(6)]  # few keys: every one is hot
_key = st.sampled_from(_KEYS)


def _distinct_keys(lo, hi):
    return st.lists(_key, min_size=lo, max_size=hi, unique=True)


_op = st.one_of(
    _key.map(_rmw),
    _distinct_keys(2, 2).map(lambda pair: _transfer(*pair)),
    _distinct_keys(1, 4).map(_rotate),
    _key.map(_read),
    st.just(KvOp("noop")),
)


class TestEpochExecutor:
    @pytest.mark.parametrize("sharded", [False, True],
                             ids=["database", "sharded_database"])
    def test_planned_execution_equals_serial(self, sharded):
        rows = [{"id": f"acct-{i}", "counter": 0, "balance": 0}
                for i in range(24)]
        _assert_planned_equals_serial(sharded, _op_mix(), rows)

    @pytest.mark.parametrize("sharded", [False, True],
                             ids=["database", "sharded_database"])
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(_op, max_size=30),
           loaded=st.sets(_key))
    def test_generated_mix_equals_serial(self, sharded, ops, loaded):
        rows = [{"id": key, "counter": 0, "balance": 0}
                for key in sorted(loaded)]
        _assert_planned_equals_serial(sharded, ops, rows)

    def test_ledger_spec_on_sharded_database(self):
        """The unmodified ledger app runs through an epoch on a 3-shard
        cluster, matches the serial oracle and keeps its three invariants."""
        from repro.apps.ledger import ledger_spec
        from repro.workloads import TransferWorkload

        env = Environment(seed=12)
        workload = TransferWorkload(num_accounts=12, theta=0.9)
        spec = ledger_spec(workload)
        db = ShardedDatabase(env, num_shards=3, name="ledger-epoch")
        for entity in spec.entities.values():
            db.create_table(entity.name, primary_key=entity.key)
        db.load("accounts", workload.initial_rows())
        ops = list(workload.operations(env.stream("ops:ledger-epoch"), 60))
        executor = EpochExecutor(db, spec)
        for op in ops:
            executor.submit(op)
        result = executor.flush()
        assert result.txns == 60 and result.cross_shard > 0

        store = {("accounts", row["id"]): row for row in workload.initial_rows()}
        _serial_oracle(spec, store, ops)
        for entity in spec.entities:
            assert _engine_state(db, entity) == _store_state(store, entity)
        state = {entity: db.all_rows(entity) for entity in spec.entities}
        assert len(spec.invariants) == 3
        for invariant in spec.invariants:
            assert invariant.check(state) == [], invariant.name

    def test_multiple_epochs_accumulate(self):
        env = Environment(seed=5)
        db = Database(env, name="epochs")
        db.create_table("kv", primary_key="id")
        db.load("kv", [{"id": "a", "counter": 0}])
        executor = EpochExecutor(db, KV, num_shards=2)
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
        executor = EpochExecutor(db, KV, num_shards=2)
        executor.submit(_rmw("k1"))
        executor.flush()
        db.crash()
        db.recover()
        (row,) = db.all_rows("kv")
        assert row == {"id": "k1", "counter": 1}

    def test_read_only_txns_consume_no_commit_seq(self):
        env = Environment(seed=8)
        db = Database(env, name="ro")
        db.create_table("kv", primary_key="id")
        db.load("kv", [{"id": "a", "counter": 0}])
        before = db._commit_seq
        executor = EpochExecutor(db, KV, num_shards=2)
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
        executor = EpochExecutor(db, KV, num_shards=1)
        executor.submit(_transfer("a", "b"))
        executor.submit(KvOp("leaky", ("a", "b")))
        with pytest.raises(UndeclaredAccess):
            executor.flush()
        # Not even the well-formed first transfer was merged.
        assert _engine_state(db) == state
        assert (db._commit_seq, db.wal.last_lsn) == (seq, lsn)

    def test_requires_shard_count_for_single_engine(self):
        env = Environment(seed=10)
        db = Database(env, name="noshards")
        with pytest.raises(ValueError):
            EpochExecutor(db, KV)
