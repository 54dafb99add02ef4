"""The two-phase-commit coordinator (``repro.transactions.commit``).

One policy, three transports: sharded-database replica groups (a
group of one by default), microservices and transactional actors all
commit through :func:`~repro.transactions.commit.two_phase`.  The unit tests pin the
policy against a fake transport; the rule test cuts the commit decision
off from the first participant on every real transport and checks that
the others installed before the error surfaced.
"""

import pytest

from repro.actors import (
    Actor,
    ActorRuntime,
    ActorTransactionCoordinator,
    CommitUncertain,
    transactional,
)
from repro.apps.core import AppUncertain, bind
from repro.apps.ledger import ledger_spec
from repro.db import FencedOut, IsolationLevel, ShardedDatabase
from repro.db.engine import TxnStatus
from repro.cluster import shard_of
from repro.replication import ReplicaUnavailable, ReplicationConfig
from repro.sim import Environment
from repro.transactions.commit import PREPARED, REFUSED, two_phase
from repro.workloads.transfers import TransferOp, TransferWorkload

SER = IsolationLevel.SERIALIZABLE


def run(env, gen):
    return env.run_until(env.process(gen))


# -- the policy, against a fake transport --------------------------------------


class FakeTransport:
    """Rounds that take no time: fixed votes, fixed delivery errors."""

    def __init__(self, votes, delivery=None):
        self.votes = votes
        self.delivery = delivery or {}
        self.decided = None

    def prepare(self, participants):
        return list(self.votes)
        yield  # pragma: no cover

    def decide(self, targets, commit):
        self.decided = (list(targets), commit)
        return [self.delivery.get(target) for target in targets]
        yield  # pragma: no cover


def finish(gen):
    with pytest.raises(StopIteration) as stop:
        next(gen)
    return stop.value.value


NO = RuntimeError("prepare failed")
LOST = RuntimeError("decision lost")


@pytest.mark.parametrize(
    "votes, targets",
    [
        ([PREPARED, PREPARED, PREPARED], ["a", "b", "c"]),
        ([PREPARED, REFUSED, PREPARED], ["a", "c"]),
        ([REFUSED, REFUSED, REFUSED], []),
        # a failed or unreached participant may hold a prepared branch
        ([NO, PREPARED, None], ["a", "b", "c"]),
        ([PREPARED, "unexpected", REFUSED], ["a", "b"]),
    ],
)
def test_abort_goes_to_everyone_but_a_refused_voter(votes, targets):
    transport = FakeTransport(votes)
    committed, _error = finish(two_phase(transport, ["a", "b", "c"]))
    commit = all(vote == PREPARED for vote in votes)
    assert committed is commit
    assert transport.decided == (targets, commit)


@pytest.mark.parametrize(
    "votes, delivery, expected",
    [
        ([PREPARED, PREPARED], {}, (True, None)),
        ([PREPARED, PREPARED], {"b": LOST}, (True, LOST)),
        ([PREPARED, REFUSED], {}, (False, None)),
        ([PREPARED, REFUSED], {"a": LOST}, (False, LOST)),
        # the first prepare failure wins over any abort-delivery failure
        ([PREPARED, NO], {"a": LOST}, (False, NO)),
    ],
)
def test_the_first_prepare_failure_surfaces_over_a_delivery_failure(
    votes, delivery, expected
):
    transport = FakeTransport(votes, delivery)
    assert finish(two_phase(transport, ["a", "b"])) == expected


# -- one participant cut off from the commit decision, on every transport ------


def key_on(shard, num_shards):
    return next(k for k in range(1000) if shard_of(k, num_shards) == shard)


def sharded_db(env, num_shards, replication=None):
    db = ShardedDatabase(
        env, num_shards=num_shards, name="bank", rtt_ms=1.0,
        num_nodes=None if replication is None else 3, replication=replication,
    )
    db.create_table("accounts")
    refs = [("accounts", key_on(shard, num_shards)) for shard in range(num_shards)]
    db.load("accounts", [{"id": key, "balance": 100} for _, key in refs])
    return db, refs


def moved(rows, deltas):
    return {
        ref: {"id": ref[1], "balance": rows[ref]["balance"] + delta}
        for ref, delta in deltas.items()
    }


def fence_decides(monkeypatch, env, group):
    """Every replica of ``group`` acknowledges its ``decide`` entries
    fenced out: each entry still applies, but its proposer's wait fails
    with :class:`FencedOut`."""
    for replica in group.replicas:
        def propose(command, inner=replica.propose):
            ack = inner(command)
            if command[0] != "decide":
                return ack
            return env.future().succeed(("err", FencedOut(command[1], 0, 1)))
        monkeypatch.setattr(replica, "propose", propose)


def cut_group_of_one(monkeypatch):
    """The default shards: shard 0's commit ``decide`` fails its wait;
    shard 1's decide must have installed by the time the error surfaces."""
    return _cut_group(monkeypatch, Environment(seed=1), None)


def cut_replica_group(monkeypatch):
    """Factor-3 groups: shard 0's commit ``decide`` fails its wait (a
    fenced ack); shard 1's decide must have landed on its leader by the
    time the error surfaces."""
    return _cut_group(monkeypatch, Environment(seed=10), ReplicationConfig())


def _cut_group(monkeypatch, env, replication):
    db, refs = sharded_db(env, 2, replication)
    fence_decides(monkeypatch, env, db.replica_group(0))
    txn = db.begin(SER)
    rows = run(env, db.lock_and_fetch(txn, refs, set(refs)))
    with pytest.raises(FencedOut) as raised:
        run(env, db.commit(txn, moved(rows, dict(zip(refs, (-10, 10))))))
    assert txn.status == "uncertain"
    return raised.value, {"shard 1": db.read_latest(*refs[1])["balance"] == 110}


def cut_service(monkeypatch):
    """Every ``commit_txn`` to accounts (first in the round) is lost;
    postings and audit must still commit."""
    env = Environment(seed=4)
    workload = TransferWorkload(num_accounts=4, initial_balance=100, amount=10)
    binder = bind("microservice", env, ledger_spec(workload), request_timeout=20.0)
    run(env, binder.setup())

    def gather(requests, retries=2, inner=binder.gather):
        if requests and requests[0][1] == "commit_txn":
            binder.app.net.partition(["edge-client"], ["accounts"])
        return (yield from inner(requests, retries=retries))
    monkeypatch.setattr(binder, "gather", gather)
    op = TransferOp("xfer-0", workload.account(0), workload.account(1), 10)
    with pytest.raises(AppUncertain) as raised:
        run(env, binder.execute(op))
    assert len(binder.prepared["accounts"]) == 1  # still awaiting its decision

    def installed(service):
        row = binder.app.database_of(service).engine.read_latest(service, op.op_id)
        return row is not None and binder.prepared[service] == {}
    return raised.value, {service: installed(service) for service in ("postings", "audit")}


@transactional
class Account(Actor):
    initial_state = {"balance": 100}

    def add(self, amount):
        self.state["balance"] += amount
        return self.state["balance"]
        yield  # pragma: no cover


def cut_actor(monkeypatch):
    """Actor ``a`` (first in sorted order) is partitioned from the client
    once every prepare record is durable; ``b`` must still install."""
    env = Environment(seed=31)
    runtime = ActorRuntime(env, num_silos=3)
    runtime.register(Account)
    coordinator = ActorTransactionCoordinator(runtime)
    silo_a = runtime.place("Account", "a").name
    assert runtime.place("Account", "b").name != silo_a
    provider = runtime.provider

    def save_then_partition(items, inner=provider.save_many):
        yield from inner(items)
        runtime.net.partition(["actor-client"], [silo_a])
    monkeypatch.setattr(provider, "save_many", save_then_partition)
    with pytest.raises(CommitUncertain) as raised:
        run(env, coordinator.execute([
            ("Account", "a", "add", (-30,)),
            ("Account", "b", "add", (30,)),
        ]))
    return raised.value, {"b": provider.peek("Account", "b") == {"balance": 130}}


@pytest.mark.parametrize(
    "cut",
    [cut_group_of_one, cut_replica_group, cut_service, cut_actor],
    ids=["shards", "replica_groups", "services", "actors"],
)
def test_commit_decision_cut_off_from_one_participant_reaches_the_rest(
    cut, monkeypatch
):
    """The decision round tries every participant before the error
    surfaces: each case raises, and at that instant every participant but
    the cut one has installed."""
    error, installed = cut(monkeypatch)
    assert error is not None
    assert installed and all(installed.values()), installed


# -- replica groups: a fenced abort decide releases every branch --------------


def test_fenced_abort_decide_still_releases_the_read_only_branch(monkeypatch):
    """Shard 1's leader dies during the prepare round trip, after shard
    0's prepare was proposed, so the decision is abort.  Shard 0's abort
    decide acks fenced out.  The read-only shard 2 and the never-proposed
    shard 1 are still released, and the prepare failure is what surfaces."""
    env = Environment(seed=22)
    db, refs = sharded_db(env, 3, ReplicationConfig())
    fence_decides(monkeypatch, env, db.replica_group(0))
    txn = db.begin(SER)
    rows = run(env, db.lock_and_fetch(txn, refs, {refs[0], refs[1]}))
    env.schedule(db.rtt_ms / 2, txn.replicas[1].node.crash, "test")
    with pytest.raises(ReplicaUnavailable):
        run(env, db.commit(txn, moved(rows, {refs[0]: -10, refs[1]: 10})))
    assert txn.status == "aborted"
    for shard in (1, 2):
        branch = txn.branches[shard]
        assert branch.status is TxnStatus.ABORTED
        assert txn.replicas[shard].engine.locks.held_by(branch.tid) == set()
