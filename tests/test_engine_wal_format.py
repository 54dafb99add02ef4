"""The engine's durable format, pinned record by record.

One :class:`Database` goes through every path that writes its WAL: bulk
load, an interactive commit, prepare followed by either decision,
replicated commit / prepare / decide entries (staged on the leader's
engine and applied as a follower would), a checkpoint, crash and
recovery with in-doubt resolution, and a snapshot install.  The exact
``(kind, payload)`` sequence each step appends is asserted, so a refactor
of the engine's durability code that changes what reaches the log, or in
which order, fails here.

Replicated entries reach the engine through a one-replica group, whose
leader applies each proposal synchronously — the same reader a real
replica uses.
"""

from repro.db.engine import Database, IsolationLevel
from repro.db.locks import LockMode
from repro.net import Network
from repro.replication import ReplicaGroup
from repro.sim import Environment

SER = IsolationLevel.SERIALIZABLE


def _row(key, balance):
    return {"id": key, "balance": balance}


def _write(tid, key, balance):
    return ("write", (tid, "accounts", key, None if balance is None else _row(key, balance)))


def _drive(env, gen):
    return env.run_until(env.process(gen))


class _Log:
    """Reads the records appended since the previous call."""

    def __init__(self, db):
        self.db = db
        self.seen = 0

    def new(self):
        records = [
            (r.kind, r.payload) for r in self.db.wal.records(self.seen + 1)
        ]
        self.seen = self.db.wal.last_lsn
        return records


def _x_holders(db, key):
    return db.locks.holders(("row", "accounts", key))


def test_every_durable_path_appends_the_pinned_records():
    env = Environment(seed=5)
    engines = []

    def factory(node_name):
        db = Database(env, name="pinned")
        engines.append(db)
        return db

    group = ReplicaGroup(
        env, Network(env), name="g",
        engine_factory=factory, node_names=["n0"],
    )
    (db,) = engines
    (leader,) = group.replicas
    log = _Log(db)

    def apply(command):
        # committed and applied as proposed: the ack is the applied index
        assert leader.propose(command) == leader.applied_index

    def interactive(key, balance):
        txn = db.begin(SER)
        _drive(env, db.put(txn, "accounts", key, _row(key, balance)))
        return txn

    # schema and bulk load
    db.create_table("accounts")
    db.create_index("accounts", "balance", ordered=True)
    db.load("accounts", [_row("a", 10), _row("b", 20)])
    assert log.new() == [
        ("create_table", ("accounts", "id")),
        ("create_index", ("accounts", "balance", True)),
        _write(0, "a", 10), _write(0, "b", 20), ("commit", (0,)),
    ]

    # an interactive commit, then prepare with each decision
    txn = interactive("a", 11)
    _drive(env, db.delete(txn, "accounts", "b"))
    _drive(env, db.commit(txn))
    committed = db.begin(SER)
    _drive(env, db.put(committed, "accounts", "c", _row("c", 30)))
    _drive(env, db.prepare(committed))
    db.commit_prepared(committed)
    aborted = interactive("a", 99)
    _drive(env, db.prepare(aborted))
    db.abort_prepared(aborted)
    assert log.new() == [
        _write(txn.tid, "a", 11), _write(txn.tid, "b", None),
        ("commit", (txn.tid,)),
        _write(committed.tid, "c", 30), ("prepare", (committed.tid,)),
        ("commit", (committed.tid,)),
        _write(aborted.tid, "a", 99), ("prepare", (aborted.tid,)),
        ("abort", (aborted.tid,)),
    ]

    # replicated entries staged on this (the leader's) engine
    staged = interactive("a", 12)
    apply(("commit", "g1", db.stage_replicated(staged, "g1")))
    staged = interactive("c", 31)
    apply(("prepare", "g2", db.stage_replicated(staged, "g2", prepared=True)))
    assert _x_holders(db, "c") == {staged.tid: LockMode.X}
    apply(("decide", "g2", True))
    # ... and applied as a follower does: no branch, locks under the gid
    apply(("commit", "g3", ((("accounts", "d"), _row("d", 40)),)))
    apply(("prepare", "g4", ((("accounts", "d"), _row("d", 41)),)))
    assert _x_holders(db, "d") == {"g4": LockMode.X}
    apply(("decide", "g4", False))
    apply(("decide", "g4", False))  # a retried decide is a no-op
    assert _x_holders(db, "d") == {}
    assert log.new() == [
        _write("g1", "a", 12), ("commit", ("g1",)),
        _write("g2", "c", 31), ("prepare", ("g2",)), ("commit", ("g2",)),
        _write("g3", "d", 40), ("commit", ("g3",)),
        _write("g4", "d", 41), ("prepare", ("g4",)), ("abort", ("g4",)),
    ]

    # a checkpoint carries one in-doubt set and truncates the prefix
    before = interactive("c", 32)
    _drive(env, db.prepare(before))
    log.new()
    db.checkpoint()
    image = {
        "tables": {"accounts": {
            "primary_key": "id",
            "indexes": [("balance", True)],
            "rows": {"a": _row("a", 12), "c": _row("c", 31), "d": _row("d", 40)},
        }},
        "in_doubt": {before.tid: {("accounts", "c"): _row("c", 32)}},
    }
    assert log.new() == [("checkpoint", image)]
    assert [r.kind for r in db.wal.records()] == ["checkpoint"]

    # a prepare after the checkpoint; crash, recover, resolve both
    after = interactive("d", 42)
    _drive(env, db.prepare(after))
    assert log.new() == [_write(after.tid, "d", 42), ("prepare", (after.tid,))]
    db.crash()
    db.recover()
    assert sorted(db.in_doubt()) == [before.tid, after.tid]
    assert db._in_doubt == {
        before.tid: {("accounts", "c"): _row("c", 32)},
        after.tid: {("accounts", "d"): _row("d", 42)},
    }
    assert _x_holders(db, "c") == {before.tid: LockMode.X}
    assert _x_holders(db, "d") == {after.tid: LockMode.X}
    assert db.locks.holders(("table", "accounts")) == {
        before.tid: LockMode.IX, after.tid: LockMode.IX,
    }
    assert sorted(db.all_rows("accounts"), key=lambda r: r["id"]) == [
        _row("a", 12), _row("c", 31), _row("d", 40),
    ]
    db.resolve_in_doubt(before.tid, commit=True)
    db.resolve_in_doubt(after.tid, commit=False)
    db.resolve_in_doubt(after.tid, commit=True)  # already decided: no-op
    assert log.new() == [("commit", (before.tid,)), ("abort", (after.tid,))]
    assert db.in_doubt() == [] and _x_holders(db, "c") == {}
    assert db.read_latest("accounts", "c") == _row("c", 32)

    # a snapshot install replaces everything, in-doubt locks included
    snapshot = {
        "tables": {"accounts": {
            "primary_key": "id",
            "indexes": [("balance", True)],
            "rows": {"z": _row("z", 1)},
        }},
        "in_doubt": {"g9": {("accounts", "y"): _row("y", 2)}},
    }
    db.install_snapshot(snapshot)
    assert log.new() == [("checkpoint", snapshot)]
    assert db.all_rows("accounts") == [_row("z", 1)]
    assert db._in_doubt == {"g9": {("accounts", "y"): _row("y", 2)}}
    assert _x_holders(db, "y") == {"g9": LockMode.X}
    db.crash()
    db.recover()
    assert db.all_rows("accounts") == [_row("z", 1)]
    assert _x_holders(db, "y") == {"g9": LockMode.X}
