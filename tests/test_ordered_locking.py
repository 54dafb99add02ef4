"""Deadlock freedom of the lock-based binders by ordered acquisition.

``ShardedDbBinder`` locks a handler's whole declared key set before the
body runs — shards in ascending id, keys in ``(table, repr(key))`` order
inside a shard — serves the body's reads from the fetched rows, and ships
its buffered writes inside the commit messages.  One round trip reaches
every touched shard; a shard whose lock is busy ends the round, and the
next round re-sends the higher shards' requests, so a transaction waits
only while holding locks on lower shards.  Every transaction acquires in
one global order, so a waits-for cycle cannot form, not even across
shards where no single lock manager could see it.  ``DbBinder`` takes
the same order on its one engine.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.core import AppSpec, EntitySpec, HandlerSpec, bind
from repro.apps.ledger import ledger_spec
from repro.db import IsolationLevel, ShardedDatabase
from repro.db.errors import InvalidTransactionState
from repro.db.locks import LockManager, LockMode
from repro.cluster import shard_of
from repro.sim import Environment
from repro.workloads.transfers import TransferOp, TransferWorkload


def shard_engines(db):
    """Every shard's leader engine, in shard order."""
    return [db.leader_engine(shard) for shard in range(db.num_shards)]


def run(env, gen):
    return env.run_until(env.process(gen))


def _cross_shard_pair(db, workload):
    """Two accounts that route to different shards."""
    first = workload.account(0)
    for index in range(1, workload.num_accounts):
        other = workload.account(index)
        if db.router.shard_of(other) != db.router.shard_of(first):
            return first, other
    raise AssertionError("every account routes to one shard")


def test_cross_shard_cycle_commits_on_first_attempt():
    """a→b and b→a on different shards, started in the same instant.

    Body-order locking closes a cycle here — each reads both accounts
    (S) and then upgrades its source to X against the other's S — which
    spans both shards.  Ordered X-first acquisition makes one simply
    queue behind the other.
    """
    env = Environment(seed=3)
    workload = TransferWorkload(num_accounts=8, initial_balance=100, amount=10)
    binder = bind("cluster", env, ledger_spec(workload), num_shards=2)
    a, b = _cross_shard_pair(binder.db, workload)

    begins = []
    begin = binder.db.begin

    def counted_begin(*args, **kwargs):
        begins.append(env.now)
        return begin(*args, **kwargs)

    binder.db.begin = counted_begin
    ops = [TransferOp("x-ab", a, b, 10), TransferOp("x-ba", b, a, 10)]
    results = {}

    def one(op):
        results[op.op_id] = yield from binder.execute(op)

    def main():
        procs = [env.process(one(op)) for op in ops]
        for proc in procs:
            yield proc

    run(env, binder.setup())
    run(env, main())
    assert results == {"x-ab": True, "x-ba": True}
    assert len(begins) == 2
    assert all(engine.locks.stats.deadlocks == 0 for engine in shard_engines(binder.db))
    balances = {row["id"]: row["balance"] for row in binder.snapshot()["accounts"]}
    assert balances[a] == balances[b] == 100


def _probe_spec(reads, writes, seen):
    """An app whose one handler reads ``reads``, writes ``writes`` and
    records the clock as its body starts and ends."""

    def body(ctx, op):
        seen.append(("start", ctx.env.now))
        for entity, key in reads:
            yield from ctx.get(entity, key)
        for entity, key in writes:
            yield from ctx.put(entity, key, {"id": key, "v": op})
        seen.append(("end", ctx.env.now))
        return True

    return AppSpec(
        name="probe",
        entities=[EntitySpec("alpha"), EntitySpec("beta")],
        handlers=[
            HandlerSpec("probe", body, lambda op: reads, lambda op: writes)
        ],
        initial_rows={
            "alpha": [{"id": key, "v": 0} for _, key in reads],
        },
        kind="probe",
    )


def _record_acquires(db):
    """Log every lock request on every shard as ``(shard, resource, mode)``."""
    acquired = []
    for shard, engine in enumerate(shard_engines(db)):
        def recorded(tid, resource, mode, _shard=shard, _acquire=engine.locks.acquire):
            acquired.append((_shard, resource, mode))
            return _acquire(tid, resource, mode)

        engine.locks.acquire = recorded
    return acquired


def test_lock_round_visits_shards_in_order_and_keys_sorted():
    """Uncontended, one round trip reaches every touched shard."""
    reads = [("alpha", f"r{i}") for i in range(6)]
    writes = [("beta", f"w{i}") for i in range(6)]
    seen: list = []
    env = Environment(seed=4)
    binder = bind("cluster", env, _probe_spec(reads, writes, seen),
                  num_shards=4, rtt_ms=2.5)
    db = binder.db

    rounds = []
    charge = db._round

    def recorded_round(shards):
        rounds.append((list(shards), env.now))
        yield from charge(shards)

    db._round = recorded_round
    acquired = _record_acquires(db)

    run(env, binder.setup())
    start = env.now

    run(env, binder.execute(1))
    touched = sorted({db.router.shard_of(key) for _, key in reads + writes})
    assert len(touched) > 2
    # One round carries every touched shard's request; the body starts
    # one round trip in, however many shards the keys span.
    assert rounds == [(touched, start)]
    assert seen == [("start", start + 2.5), ("end", start + 2.5)]
    # Within each shard, rows lock in (table, repr(key)) order: X for
    # declared writes, S for read-only keys, each under its intention lock.
    writable = set(writes)
    for shard in touched:
        rows = [(res, mode) for s, res, mode in acquired
                if s == shard and res[0] == "row"]
        refs = [(res[1], res[2]) for res, _ in rows]
        assert refs == sorted(refs, key=lambda ref: (ref[0], repr(ref[1])))
        for (_, table, key), mode in rows:
            assert mode is (LockMode.X if (table, key) in writable else LockMode.S)
        tables = [(res, mode) for s, res, mode in acquired
                  if s == shard and res[0] == "table"]
        assert {mode for _, mode in tables} <= {LockMode.IS, LockMode.IX}
    # Shards lock in ascending id.
    assert [s for s, _, _ in acquired] == sorted(s for s, _, _ in acquired)


def _keys_on(shards, per_shard, num_shards):
    """``per_shard`` keys routing to each of ``shards``, in shard order."""
    keys = []
    for shard in shards:
        found = (f"k{i}" for i in range(10_000) if shard_of(f"k{i}", num_shards) == shard)
        keys.extend(next(found) for _ in range(per_shard))
    return keys


def test_wait_at_a_busy_shard_ends_the_round_below_every_higher_shard():
    """A holder sits on the middle of three shards.  The waiter locks
    shard 0, queues at shard 1 holding nothing above it, and once shard
    1 is granted a second round re-sends the shard-2 request."""
    keys = [("beta", key) for key in _keys_on(range(3), 1, 3)]
    seen: list = []
    env = Environment(seed=8)
    binder = bind("cluster", env, _probe_spec([], keys, seen),
                  num_shards=3, rtt_ms=2.0)
    db = binder.db
    acquired = _record_acquires(db)
    release = 20.0
    mid_wait = []

    def holder():
        txn = db.begin(IsolationLevel.SERIALIZABLE)
        yield from db.lock_and_fetch(txn, [keys[1]], {keys[1]})  # held from t=2
        yield env.timeout(release - env.now)
        db.abort(txn)

    def inspect():
        yield env.timeout(release / 2)
        mid_wait.append([
            dict(db.leader_engine(shard).locks.holders(("row", *keys[shard])))
            for shard in range(3)
        ])

    def waiter():
        yield env.timeout(1.0)
        yield from binder.execute(1)

    def main():
        procs = [env.process(gen) for gen in (holder(), inspect(), waiter())]
        for proc in procs:
            yield proc

    run(env, main())
    # Mid-wait the waiter holds shard 0's key, the holder shard 1's, and
    # nobody holds anything on shard 2.
    assert [len(holders) for holders in mid_wait[0]] == [1, 1, 0]
    assert seen[0] == ("start", release + 2.0)
    rows = [shard for shard, resource, _ in acquired if resource[0] == "row"]
    assert rows == [1, 0, 1, 2]  # the holder's, then the waiter's in order
    assert all(engine.locks.stats.deadlocks == 0 for engine in shard_engines(db))


@dataclass(frozen=True)
class _KeySetOp:
    reads: tuple
    writes: tuple


_PROPERTY_KEYS = [("alpha", key) for key in _keys_on(range(4), 3, 4)]
_key_sets = st.lists(st.sampled_from(_PROPERTY_KEYS), max_size=5, unique=True)


@pytest.mark.parametrize("runtime", ["db", "cluster"])
@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(_key_sets, _key_sets, st.sampled_from([0.0, 0.5, 1.0, 2.0])),
    min_size=2, max_size=12,
))
def test_random_declared_key_sets_commit_first_time_without_deadlock(runtime, ops):
    """Both lock-based binders: one ``begin`` per op, zero deadlocks."""
    def body(ctx, op):
        for entity, key in op.reads:
            yield from ctx.get(entity, key)
        for entity, key in op.writes:
            yield from ctx.put(entity, key, {"id": key, "v": 1})
        return True

    spec = AppSpec(
        name="keysets",
        entities=[EntitySpec("alpha")],
        handlers=[HandlerSpec(
            "keysets", body, lambda op: op.reads, lambda op: op.writes
        )],
        initial_rows={"alpha": [{"id": key, "v": 0} for _, key in _PROPERTY_KEYS]},
        kind="keysets",
    )
    env = Environment(seed=9)
    opts = {"num_shards": 4} if runtime == "cluster" else {}
    binder = bind(runtime, env, spec, **opts)
    begins = []
    begin = binder.db.begin

    def counted_begin(*args, **kwargs):
        begins.append(env.now)
        return begin(*args, **kwargs)

    binder.db.begin = counted_begin
    results = []

    def client(op, delay):
        yield env.timeout(delay)
        results.append((yield from binder.execute(op)))

    def main():
        procs = [
            env.process(client(_KeySetOp(tuple(reads), tuple(writes)), delay))
            for reads, writes, delay in ops
        ]
        for proc in procs:
            yield proc

    run(env, main())
    assert results == [True] * len(ops)
    assert len(begins) == len(ops)
    engines = shard_engines(binder.db) if runtime == "cluster" else [binder.db.engine]
    assert all(engine.locks.stats.deadlocks == 0 for engine in engines)


def test_body_reads_its_own_buffered_writes():
    observed = []

    def body(ctx, op):
        row = yield from ctx.get("alpha", "x")
        yield from ctx.put("alpha", "x", {"id": "x", "v": row["v"] + 1})
        observed.append((yield from ctx.get("alpha", "x"))["v"])
        # Not yet installed anywhere: the write is buffered in the body.
        observed.append(binder.db.read_latest("alpha", "x")["v"])
        yield from ctx.delete("alpha", "y")
        observed.append((yield from ctx.get("alpha", "y")))
        yield from ctx.put("alpha", "z", {"v": 7})
        observed.append((yield from ctx.get("alpha", "z")))
        return True

    spec = AppSpec(
        name="ryw",
        entities=[EntitySpec("alpha")],
        handlers=[HandlerSpec(
            "ryw", body,
            lambda op: [("alpha", "x"), ("alpha", "y")],
            lambda op: [("alpha", "x"), ("alpha", "y"), ("alpha", "z")],
        )],
        initial_rows={"alpha": [{"id": "x", "v": 1}, {"id": "y", "v": 5}]},
        kind="ryw",
    )
    env = Environment(seed=5)
    binder = bind("cluster", env, spec, num_shards=2)
    run(env, binder.setup())
    run(env, binder.execute(1))
    assert observed == [2, 1, None, {"v": 7}]
    assert binder.snapshot() == {
        "alpha": [{"id": "x", "v": 2}, {"id": "z", "v": 7}]
    }


def test_lock_and_fetch_returns_the_branch_own_write():
    env = Environment(seed=6)
    db = ShardedDatabase(env, num_shards=2, num_nodes=2)
    db.create_table("t")
    db.load("t", [{"id": "k", "v": 1}])
    txn = db.begin(IsolationLevel.SERIALIZABLE)

    def body():
        rows = yield from db.lock_and_fetch(txn, [("t", "k")], {("t", "k")})
        assert rows == {("t", "k"): {"id": "k", "v": 1}}
        shard = db.router.shard_of("k")
        txn.replicas[shard].engine.buffer_write(txn.branches[shard], "t", "k", {"v": 2})
        again = yield from db.lock_and_fetch(txn, [("t", "k")], {("t", "k")})
        assert again == {("t", "k"): {"id": "k", "v": 2}}
        yield from db.commit(txn)

    run(env, body())
    assert db.read_latest("t", "k") == {"id": "k", "v": 2}


def test_commit_refuses_writes_the_lock_round_did_not_lock_exclusively():
    env = Environment(seed=7)
    db = ShardedDatabase(env, num_shards=2, num_nodes=2)
    db.create_table("t")
    db.load("t", [{"id": "k", "v": 1}])
    txn = db.begin(IsolationLevel.SERIALIZABLE)

    def body():
        yield from db.lock_and_fetch(txn, [("t", "k")], ())
        yield from db.commit(txn, {("t", "k"): {"v": 2}})

    with pytest.raises(InvalidTransactionState):
        run(env, body())


def _sharded_hot_run(seed, ops=600, clients=16):
    """The ``ledger_sharded_hot`` configuration: 200 accounts, θ 0.9,
    four shards, a closed loop of 16 clients."""
    env = Environment(seed=seed)
    workload = TransferWorkload(
        num_accounts=200, initial_balance=10**6, amount=1, theta=0.9
    )
    binder = bind("cluster", env, ledger_spec(workload), num_shards=4)
    pending = iter(list(workload.operations(env.stream("ops"), ops)))
    failures = []
    acked = []

    def client():
        for op in pending:
            try:
                yield from binder.execute(op)
                acked.append(op.op_id)
            except Exception as exc:  # noqa: BLE001 — any client-visible failure
                failures.append((op.op_id, repr(exc)))

    def main():
        procs = [env.process(client()) for _ in range(clients)]
        for proc in procs:
            yield proc

    run(env, binder.setup())
    run(env, main())
    return binder, acked, failures


def test_ordered_acquisition_rarely_searches_for_a_cycle(monkeypatch):
    """Ordered acquisition cannot deadlock, and the lock manager searches
    the waits-for graph only where an edge can close a cycle: never on a
    wake-up here, and on a tail enqueue only when the waiter already
    holds a row another transaction queues on (it had waited for that
    row, and the queue formed behind it before it resumed).  Seed 0 waits
    341 times and searches twice, finding nothing."""
    searches = []
    find_cycle = LockManager._find_cycle

    def counted(self, tid):
        cycle = find_cycle(self, tid)
        searches.append(cycle)
        return cycle
    monkeypatch.setattr(LockManager, "_find_cycle", counted)
    binder, acked, failures = _sharded_hot_run(0)
    assert failures == [] and len(acked) == 600
    engines = shard_engines(binder.db)
    assert sum(engine.locks.stats.waited for engine in engines) == 341
    assert searches == [None, None]


@pytest.mark.parametrize(
    "seed", [0] + [pytest.param(seed, marks=pytest.mark.chaos) for seed in range(1, 10)]
)
def test_sharded_hot_sweep_has_no_failures_and_no_deadlocks(seed):
    binder, acked, failures = _sharded_hot_run(seed)
    assert failures == []
    assert len(acked) == 600
    assert all(engine.locks.stats.deadlocks == 0 for engine in shard_engines(binder.db))
    state = binder.snapshot()
    for invariant in binder.invariants():
        assert invariant.check(state) == [], invariant.name
