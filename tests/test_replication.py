"""Tests for quorum-replicated shards (``repro.replication``).

Covers the replica-group protocol (deterministic bootstrap, quorum
commits, elections after leader loss, split votes), the fencing rule (a
deposed leader's in-flight commit is installed by the quorum but its
acknowledgement is refused), snapshot + log-suffix catch-up after a
follower restart, consistency levels (linearizable leader reads,
bounded-stale follower reads with read-your-writes sessions), the
replicated :class:`~repro.db.sharding.ShardedDatabase` (single-shard and
2PC commits, whole-group migration, a migration racing a leader
election), the ``kill_leader`` fault class, chaos regressions of the
replicated-shard commit path, and hash-seed invariance of the whole
election/replication path.
"""

import subprocess
import sys

import pytest

from repro.chaos import run_trial
from repro.chaos.mutants import UnfencedShardedDatabase
from repro.chaos.nemesis import Episode
from repro.cluster import ClusterError, Rebalancer
from repro.core.faults import FaultPlan, FaultPlanError
from repro.db import FencedOut, IsolationLevel, ShardedDatabase
from repro.db.engine import Database, TxnStatus
from repro.db.sharding import shard_of
from repro.net import Network
from repro.replication import (
    NoLeader,
    QuorumTimeout,
    ReplicaGroup,
    ReplicaUnavailable,
    ReplicationConfig,
    Session,
)
from repro.sim import Environment

SER = IsolationLevel.SERIALIZABLE


def run(env, gen, label="test"):
    return env.run_until(env.process(gen, label=label))


def make_group(env, config=None, name="g", nodes=("n0", "n1", "n2")):
    net = Network(env)

    def factory(node_name):
        engine = Database(env, name=f"{name}@{node_name}")
        engine.create_table("kv")
        return engine

    group = ReplicaGroup(
        env, net, name=name, config=config or ReplicationConfig(),
        engine_factory=factory, node_names=list(nodes),
    )
    return net, group


def commit_row(env, group, key, value, replica=None, gid=None):
    """Stage one write on the leader engine and replicate it to quorum."""
    leader = replica or group.leader_replica()
    engine = leader.engine
    txn = engine.begin(SER)
    yield from engine.put(txn, "kv", key, {"id": key, "value": value})
    gid = gid or ("t", env.next_id("test-gid"))
    writes = engine.stage_replicated(txn, gid)
    index = yield from group.replicate(("commit", gid, writes), replica=leader)
    return index


def key_on(shard, num_shards, start=0):
    """The first integer key at/after ``start`` that routes to ``shard``."""
    key = start
    while shard_of(key, num_shards) != shard:
        key += 1
    return key


class TestReplicaGroup:
    def test_deterministic_bootstrap_and_quorum_commit(self):
        env = Environment(seed=1)
        _net, group = make_group(env)
        leader = group.leader_replica()
        assert leader is group.replicas[0] and leader.term == 1

        index = run(env, commit_row(env, group, "a", 7))
        assert index == 2  # index 1 is the term-start no-op
        env.run(until=env.now + 100.0)
        for replica in group.replicas:
            assert replica.applied_index == 2
            assert replica.engine.read_latest("kv", "a") == {"id": "a", "value": 7}

    def test_commit_requires_quorum(self):
        env = Environment(seed=2)
        net, group = make_group(env)
        leader = group.leader_replica()
        # Cut the leader off from both followers: nothing can commit.
        net.partition(["n0"], ["n1", "n2"])

        with pytest.raises(QuorumTimeout):
            run(env, commit_row(env, group, "a", 1, replica=leader))
        assert leader.engine.read_latest("kv", "a") is None  # never committed
        for follower in group.replicas[1:]:
            assert follower.engine.read_latest("kv", "a") is None

        # The followers elected a fresh leader behind the partition; on
        # heal the new leadership truncates the never-replicated entry —
        # the timeout meant "unknown", and the outcome resolved to abort,
        # consistently on every replica.
        net.heal()
        env.run(until=env.now + 300.0)
        new_leader = group.leader_replica()
        assert new_leader is not None and new_leader.term >= 2
        for replica in group.replicas:
            assert replica.engine.read_latest("kv", "a") is None
        assert leader.engine.stats.aborted == 1  # the staged txn rolled back


class TestElections:
    def test_failover_elects_new_leader_and_catches_up_crashed_node(self):
        env = Environment(seed=3)
        net, group = make_group(env)
        run(env, commit_row(env, group, "a", 1))

        net.nodes["n0"].crash("test")
        env.run(until=env.now + 400.0)
        leader = group.leader_replica()
        assert leader is not None and leader.node.name in ("n1", "n2")
        assert leader.term >= 2

        index = run(env, commit_row(env, group, "b", 2, replica=leader))
        net.nodes["n0"].restart()
        env.run(until=env.now + 300.0)
        n0 = group.replica_on("n0")
        assert n0.role == "follower"
        assert n0.applied_index >= index
        assert n0.engine.read_latest("kv", "b") == {"id": "b", "value": 2}

    def test_split_vote_then_reelection(self):
        env = Environment(seed=4)
        net, group = make_group(env)
        net.nodes["n0"].crash("test")
        # Both survivors start an election in the same instant: each votes
        # for itself, denies the other, and the round yields no leader.
        group.replica_on("n1").force_election()
        group.replica_on("n2").force_election()
        env.run(until=env.now + 1.0)
        assert group.replica_on("n1").role == "candidate"
        assert group.replica_on("n2").role == "candidate"
        assert group.replica_on("n1").term == 2
        assert group.replica_on("n2").term == 2
        assert group.leader_replica() is None

        # The randomized timers break the tie in a later term.
        env.run(until=env.now + 600.0)
        leader = group.leader_replica()
        assert leader is not None and leader.term >= 3
        others = [r for r in group.replicas[1:] if r is not leader]
        assert all(r.role != "leader" for r in others)
        run(env, commit_row(env, group, "a", 1, replica=leader))


    @pytest.mark.parametrize("seed", range(8))
    def test_election_deadline_counts_from_the_last_leader_contact(self, seed):
        """A follower whose leader goes silent starts an election within
        ``election_timeout[1]`` of its last contact, not a full span after
        whichever timer wake-up last saw that contact."""
        _lo, hi = ReplicationConfig().election_timeout
        env = Environment(seed=seed)
        net, group = make_group(env)
        env.run(until=250.0)  # heartbeats flowing
        net.nodes["n0"].crash("test")
        followers = group.replicas[1:]
        while all(replica.term == 1 for replica in followers):
            assert env.step()
        candidate = next(replica for replica in followers if replica.term > 1)
        assert env.now <= candidate._last_contact + hi


class TestFencing:
    def test_stale_leader_is_fenced_mid_commit(self):
        """A leader that proposes, replicates, then gets deposed must not
        acknowledge: the entry commits under the new leadership, but the
        old leader's engine refuses the ack (FencedOut)."""
        env = Environment(seed=5)
        net, group = make_group(env)
        leader = group.leader_replica()

        def scenario():
            engine = leader.engine
            txn = engine.begin(SER)
            yield from engine.put(txn, "kv", "k", {"id": "k", "value": 7})
            writes = engine.stage_replicated(txn, ("t", 1))
            # The entry reaches the followers, but every reply back to the
            # leader is lost — it can never learn the quorum outcome.
            net.set_loss(1.0, src="n1", dst="n0")
            net.set_loss(1.0, src="n2", dst="n0")
            yield from group.replicate(("commit", ("t", 1), writes),
                                       replica=leader)

        outcome = env.future(label="fence-outcome")

        def guarded():
            try:
                yield from scenario()
            except Exception as exc:  # noqa: BLE001 - asserted below
                outcome.try_succeed(exc)
                return
            outcome.try_succeed(None)

        def heal():
            net.set_loss(0.0, src="n1", dst="n0")
            net.set_loss(0.0, src="n2", dst="n0")

        env.process(guarded(), label="fence-test")
        # t=45: the entry has replicated (the first append round holds the
        # sync slot until the 30 ms rpc timeout, so the entry ships on the
        # second round at ~30 ms); n1 wins on log completeness.  t=80: the
        # deposed leader reconnects and learns the outcome — fenced.
        env.schedule(45.0, group.replica_on("n1").force_election)
        env.schedule(80.0, heal)
        result = env.run_until(outcome)

        assert isinstance(result, FencedOut)
        n0 = group.replica_on("n0")
        assert n0.role == "follower"  # deposed by the term-2 append
        assert n0.engine.stats.fenced_acks == 1
        new_leader = group.leader_replica()
        assert new_leader is group.replica_on("n1")
        # The write is committed state everywhere — installed exactly once.
        env.run(until=env.now + 100.0)
        for replica in group.replicas:
            assert replica.engine.read_latest("kv", "k") == {"id": "k", "value": 7}
            assert replica.engine.stats.committed == 1


class TestSnapshotCatchup:
    def test_follower_restart_catches_up_from_snapshot_plus_suffix(self):
        env = Environment(seed=6)
        config = ReplicationConfig(compact_threshold=8, compact_keep=2)
        net, group = make_group(env, config=config)
        net.nodes["n2"].crash("test")

        leader = group.leader_replica()
        for i in range(20):
            run(env, commit_row(env, group, f"k{i}", i, replica=leader))
        assert leader.log.snapshot_index > 0  # the leader compacted

        net.nodes["n2"].restart()
        env.run(until=env.now + 300.0)
        n2 = group.replica_on("n2")
        # Catch-up went through InstallSnapshot (the compacted prefix is
        # gone from the leader's log) plus the live suffix.
        assert n2.log.snapshot_index >= leader.log.snapshot_index > 0
        assert n2.applied_index == leader.applied_index
        assert n2.log.last_index == leader.log.last_index
        for i in (0, 10, 19):
            assert n2.engine.read_latest("kv", f"k{i}") == {"id": f"k{i}", "value": i}


class TestReads:
    def test_leader_read_and_follower_read(self):
        env = Environment(seed=7)
        _net, group = make_group(env)
        session = Session()
        index = run(env, commit_row(env, group, "a", 1))
        session.observe(index)

        row = run(env, group.leader_read("kv", "a"))
        assert row == {"id": "a", "value": 1}
        # The read-index barrier costs a quorum round trip: time advanced.
        assert env.now > 0

        row = run(env, group.follower_read("kv", "a", session=session))
        assert row == {"id": "a", "value": 1}

    def test_read_your_writes_survives_failover(self):
        env = Environment(seed=8)
        net, group = make_group(env)
        session = Session()
        session.observe(run(env, commit_row(env, group, "a", 1)))

        net.nodes["n0"].crash("test")
        env.run(until=env.now + 400.0)
        leader = group.leader_replica()
        session.observe(run(env, commit_row(env, group, "a", 2, replica=leader)))

        # The restarted old leader is behind; a session read pinned to it
        # must wait for catch-up rather than serve the stale value.
        net.nodes["n0"].restart()
        env.run(until=env.now + 1.0)
        row = run(env, group.follower_read("kv", "a", session=session, node="n0"))
        assert row == {"id": "a", "value": 2}
        assert group.replica_on("n0").applied_index >= session.min_index


class TestHashseedInvariance:
    _PROBE = '''\
import hashlib
import sys

sys.path.insert(0, {src!r})

from repro.db import IsolationLevel
from repro.db.engine import Database
from repro.net import Network
from repro.replication import ReplicaGroup, ReplicationConfig
from repro.sim import Environment

env = Environment(seed=7)
net = Network(env)


def factory(node_name):
    engine = Database(env, name="probe@" + node_name)
    engine.create_table("kv")
    return engine


group = ReplicaGroup(env, net, name="probe", config=ReplicationConfig(),
                     engine_factory=factory, node_names=["n0", "n1", "n2"])


def commit(key, value):
    leader = group.leader_replica()
    engine = leader.engine
    txn = engine.begin(IsolationLevel.SERIALIZABLE)
    yield from engine.put(txn, "kv", key, {{"id": key, "value": value}})
    gid = ("t", env.next_id("gid"))
    writes = engine.stage_replicated(txn, gid)
    return (yield from group.replicate(("commit", gid, writes), replica=leader))


trace = []
for round_no in range(3):
    for k in range(4):
        index = env.run_until(env.process(commit(f"k{{round_no}}-{{k}}",
                                                 round_no * 10 + k)))
        trace.append((round_no, k, index, round(env.now, 6)))
    victim = group.leader_replica().node
    victim.crash("probe")
    env.run(until=env.now + 400.0)
    victim.restart()
    env.run(until=env.now + 400.0)
    leader = group.leader_replica()
    trace.append((leader.node.name, leader.term, round(env.now, 6)))

keys = [f"k{{i}}-{{j}}" for i in range(3) for j in range(4)]
state = [
    (r.node.name, r.term, r.applied_index,
     tuple((key, (r.engine.read_latest("kv", key) or {{}}).get("value"))
           for key in keys))
    for r in group.replicas
]
print(hashlib.sha256(repr((trace, state)).encode()).hexdigest())
'''

    def test_elections_and_replication_are_hashseed_invariant(self, tmp_path):
        """The full propose/elect/failover/catch-up path must not leak
        ``PYTHONHASHSEED``: named streams and stable iteration orders only."""
        import os

        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        script = tmp_path / "probe.py"
        script.write_text(self._PROBE.format(src=src))
        digests = set()
        for seed in ("0", "1", "424242"):
            out = subprocess.run(
                [sys.executable, str(script)],
                env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1 and "" not in digests


class TestReplicatedShardedDatabase:
    def _make_db(self, env, num_shards=2, num_nodes=3, replication=None,
                 db_class=ShardedDatabase, **kwargs):
        db = db_class(
            env, num_shards=num_shards, num_nodes=num_nodes, name="bank",
            rtt_ms=1.0, replication=replication or ReplicationConfig(), **kwargs,
        )
        db.create_table("accounts")
        return db

    def _transfer(self, db, src, dst, amount):
        txn = db.begin(SER)
        try:
            a = yield from db.get(txn, "accounts", src)
            b = yield from db.get(txn, "accounts", dst)
            yield from db.put(txn, "accounts", src,
                              {"id": src, "balance": a["balance"] - amount})
            yield from db.put(txn, "accounts", dst,
                              {"id": dst, "balance": b["balance"] + amount})
            yield from db.commit(txn)
        finally:
            if txn.status == "active":
                db.abort(txn)
        return txn

    def test_single_shard_commit_replicates_to_quorum(self):
        env = Environment(seed=9)
        db = self._make_db(env)
        k1 = key_on(0, 2)
        k2 = key_on(0, 2, start=k1 + 1)
        db.load("accounts", [{"id": k, "balance": 100} for k in (k1, k2)])

        txn = run(env, self._transfer(db, k1, k2, 30))
        assert txn.status == "committed"
        assert not txn.is_distributed
        assert 0 in txn.applied  # the quorum-acked log index
        assert db.read_latest("accounts", k1)["balance"] == 70

        env.run(until=env.now + 100.0)
        for engine in db.replica_group(0).engines():
            assert engine.read_latest("accounts", k1)["balance"] == 70
            assert engine.read_latest("accounts", k2)["balance"] == 130

    def test_cross_shard_2pc_commits_on_both_groups(self):
        env = Environment(seed=10)
        db = self._make_db(env)
        k0, k1 = key_on(0, 2), key_on(1, 2)
        db.load("accounts", [{"id": k, "balance": 100} for k in (k0, k1)])

        txn = run(env, self._transfer(db, k0, k1, 25))
        assert txn.status == "committed"
        assert txn.is_distributed
        assert set(txn.applied) == {0, 1}
        total = sum(row["balance"] for row in db.all_rows("accounts"))
        assert total == 200

        env.run(until=env.now + 200.0)
        for shard in (0, 1):
            for engine in db.replica_group(shard).engines():
                assert engine.in_doubt() == []  # no torn prepares left

    def _load_one_per_shard(self, db, shards):
        keys = [key_on(shard, db.num_shards) for shard in shards]
        db.load("accounts", [{"id": k, "balance": 100} for k in keys])
        return [("accounts", k) for k in keys]

    def _moved(self, rows, deltas):
        return {
            ref: {"id": ref[1], "balance": rows[ref]["balance"] + delta}
            for ref, delta in deltas.items()
        }

    @pytest.mark.parametrize(
        "factor, sound, expected",
        [
            (3, True, [(3.813778, 66), (2.950343, 31), (3.134485, 28)]),
            # a group of one commits at start(): what a plain engine costs
            (1, True, [(1.0, 3), (1.0, 3), (1.0, 3)]),
            # the unfenced mutant acks at start() too: no event for the ack
            (3, False, [(1.0, 23), (1.0, 7), (1.0, 10)]),
        ],
    )
    def test_single_shard_commit_schedule_is_pinned(self, factor, sound, expected):
        """``replicate()`` is ``start()`` then ``wait()``: a single-shard
        commit costs exactly the virtual time and kernel events it did
        as one loop, less the ack event :meth:`ReplicaGroup.wait` saves
        when the ack landed at ``start()``."""
        env = Environment(seed=9)
        db = self._make_db(
            env, replication=ReplicationConfig(factor=factor),
            db_class=ShardedDatabase if sound else UnfencedShardedDatabase,
        )
        k1 = key_on(0, 2)
        k2 = key_on(0, 2, start=k1 + 1)
        db.load("accounts", [{"id": k, "balance": 100} for k in (k1, k2)])
        refs = [("accounts", k1), ("accounts", k2)]
        costs = []
        for _ in range(3):
            txn = db.begin(SER)
            rows = run(env, db.lock_and_fetch(txn, refs, set(refs)))
            start, events = env.now, env.events_executed
            run(env, db.commit(txn, self._moved(rows, {refs[0]: -1})))
            costs.append((round(env.now - start, 6), env.events_executed - events))
        assert costs == expected

    def test_2pc_proposes_every_shard_before_awaiting_any_ack(self, monkeypatch):
        """Each phase is one round: every write shard's ``prepare`` (then
        ``decide``) entry is proposed at one virtual instant, and only
        then does the coordinator wait on an acknowledgement."""
        env = Environment(seed=20)
        db = self._make_db(env, num_shards=3)
        refs = self._load_one_per_shard(db, range(3))
        trace = []
        for shard in range(3):
            group = db.replica_group(shard)
            for replica in group.replicas:
                def propose(command, shard=shard, inner=replica.propose):
                    trace.append(("propose", command[0], shard, env.now))
                    return inner(command)
                monkeypatch.setattr(replica, "propose", propose)

            def wait(proposal, shard=shard, inner=group.wait):
                trace.append(("wait", proposal.command[0], shard, env.now))
                return (yield from inner(proposal))
            monkeypatch.setattr(group, "wait", wait)

        txn = db.begin(SER)
        rows = run(env, db.lock_and_fetch(txn, refs, set(refs)))
        run(env, db.commit(txn, self._moved(rows, dict(zip(refs, (-10, 5, 5))))))
        assert txn.status == "committed" and set(txn.applied) == {0, 1, 2}

        instants = []
        for kind in ("prepare", "decide"):
            steps = [step for step in trace if step[1] == kind]
            proposals = [step for step in steps if step[0] == "propose"]
            assert [step[2] for step in proposals] == [0, 1, 2]
            assert len({step[3] for step in proposals}) == 1
            first_wait = next(i for i, step in enumerate(steps) if step[0] == "wait")
            assert first_wait == 3  # all three proposed before any wait
            instants.append(proposals[0][3])
        assert instants[0] < instants[1]
        assert sum(r["balance"] for r in db.all_rows("accounts")) == 300

    def test_leader_lost_before_prepare_aborts_every_proposed_shard(self):
        """Shard 1's leader crashes during the prepare round trip, after
        shard 0's prepare could be proposed: the caller gets a definite
        failure, shard 0 receives the abort decide, nothing stays in
        doubt anywhere and no money moves."""
        env = Environment(seed=22)
        db = self._make_db(env)
        refs = self._load_one_per_shard(db, (0, 1))
        txn = db.begin(SER)
        rows = run(env, db.lock_and_fetch(txn, refs, set(refs)))
        node = txn.replicas[1].node

        def commit():
            env.schedule(db.rtt_ms / 2, node.crash, "test")
            try:
                yield from db.commit(txn, self._moved(rows, dict(zip(refs, (-10, 10)))))
            except ReplicaUnavailable as exc:
                return exc
            return None

        assert isinstance(run(env, commit()), ReplicaUnavailable)
        assert txn.status == "aborted"
        leader0 = db.replica_group(0).leader_replica()
        decides = [
            entry.command for entry in leader0.log.entries
            if entry.command[0] == "decide"
        ]
        assert [command[2] for command in decides] == [False]
        node.restart()
        env.run(until=env.now + 500.0)
        for shard in (0, 1):
            for engine in db.replica_group(shard).engines():
                assert engine.in_doubt() == []
        assert sum(r["balance"] for r in db.all_rows("accounts")) == 200
        assert db.read_latest(*refs[0])["balance"] == 100

    def test_read_only_branch_on_crashed_replica_still_commits(self):
        """The read-only branch's replica crashes mid-commit.  Releasing a
        read-only branch on a crashed engine raises nothing — its lock
        table is already gone — so the decided transaction commits."""
        env = Environment(seed=21)
        db = self._make_db(env)
        refs = self._load_one_per_shard(db, (0, 1))
        txn = db.begin(SER)
        rows = run(env, db.lock_and_fetch(txn, refs, {refs[0]}))
        node = txn.replicas[1].node
        env.schedule(db.rtt_ms / 2, node.crash, "test")
        run(env, db.commit(txn, self._moved(rows, {refs[0]: -10})))
        assert not node.alive
        assert txn.status == "committed"
        assert txn.branches[1].status is TxnStatus.COMMITTED
        assert db.read_latest(*refs[0])["balance"] == 90

    def test_unreplicated_mode_is_unchanged(self):
        """The default shard is a replica group of one: one replica per
        shard, leading term 1 from bootstrap on the shard's node, and a
        migration's membership is the destination alone."""
        env = Environment(seed=11)
        db = ShardedDatabase(env, num_shards=4)
        assert db.replication.factor == 1
        for shard in range(4):
            group = db.replica_group(shard)
            (replica,) = group.replicas
            assert replica.peers == [] and replica.servable
            assert replica.term == 1
            assert db.leader_engine(shard) is replica.engine
            assert db.directory.owner_of(shard) == db.nodes[shard]
            assert db.directory.group_of(shard) == (db.nodes[shard],)
        with pytest.raises(ClusterError):
            run(env, db.migrate_shard(0, db.nodes[1], [db.nodes[1], db.nodes[2]]))
        run(env, db.migrate_shard(0, db.nodes[1]))
        assert db.directory.group_of(0) == (db.nodes[1],)
        assert db.replica_group(0).leader_name() == db.nodes[1]

    def test_migration_moves_whole_group_atomically(self):
        env = Environment(seed=12)
        db = self._make_db(env, num_nodes=4)
        keys = [key_on(0, 2, start=i * 7) for i in range(6)]
        db.load("accounts", [{"id": k, "balance": 50} for k in dict.fromkeys(keys)])
        old_group = db.replica_group(0)
        dest = db.nodes[3]

        run(env, db.migrate_shard(0, dest))
        new_group = db.replica_group(0)
        assert new_group is not old_group
        assert all(r.role == "stopped" for r in old_group.replicas)
        assert db.directory.group_of(0)[0] == dest
        assert new_group.leader_name() == dest
        assert db.migration_stats.completed == 1

        # Data survived the move and the shard still takes writes.
        k1, k2 = sorted(dict.fromkeys(keys))[:2]
        txn = run(env, self._transfer(db, k1, k2, 5))
        assert txn.status == "committed"
        total = sum(row["balance"] for row in db.all_rows("accounts"))
        assert total == 50 * len(dict.fromkeys(keys))

    def test_migration_racing_leader_election_aborts_cleanly(self):
        """Satellite regression: a leader election (here: leader crash)
        during the copy phase aborts the migration — ownership unchanged,
        the old group keeps serving after failover."""
        env = Environment(seed=13)
        db = self._make_db(env, num_nodes=4, drain_timeout_ms=250.0)
        keys = list(dict.fromkeys(key_on(0, 2, start=i * 3) for i in range(120)))
        db.load("accounts", [{"id": k, "balance": 10} for k in keys])
        old_group = db.replica_group(0)
        leader_node = old_group.leader_replica().node

        env.schedule(5.0, leader_node.crash, "race")
        with pytest.raises(ClusterError):
            run(env, db.migrate_shard(0, db.nodes[3]))
        assert db.replica_group(0) is old_group
        assert db.migration_stats.aborted == 1
        assert db.directory.group_of(0)[0] == db.nodes[0]

        # After the failover (and the crashed node's restart) the shard
        # serves transactions from the surviving replicas.
        leader_node.restart()
        env.run(until=env.now + 500.0)
        txn = run(env, self._transfer(db, keys[0], keys[1], 1))
        assert txn.status == "committed"
        total = sum(row["balance"] for row in db.all_rows("accounts"))
        assert total == 10 * len(keys)

    def test_rebalancer_plans_full_group_membership(self):
        env = Environment(seed=14)
        db = self._make_db(env, num_shards=4, num_nodes=5)
        rebalancer = Rebalancer(env, db, min_load=0.5)
        for _ in range(4):
            db.shard_stats.record(0, 10.0)
        db.shard_stats.roll_window()

        move = rebalancer.plan()
        assert move is not None and move.shard == 0
        assert move.dest_nodes and move.dest_nodes[0] == move.dest
        assert len(move.dest_nodes) == db.replication.factor
        assert len(set(move.dest_nodes)) == len(move.dest_nodes)
        assert all(node in db.nodes for node in move.dest_nodes)

    def test_rebalancer_plan_is_empty_membership_when_unreplicated(self):
        env = Environment(seed=15)
        db = ShardedDatabase(env, num_shards=4, name="plain")
        rebalancer = Rebalancer(env, db, min_load=0.5)
        for _ in range(4):
            db.shard_stats.record(0, 10.0)
        db.shard_stats.roll_window()
        move = rebalancer.plan()
        assert move is not None and move.dest_nodes == (move.dest,)


class TestGroupOfOne:
    """The default shard is a replica group of one: it costs what a plain
    engine costs, idles silently, and recovers on its own."""

    def _make_db(self, env):
        db = ShardedDatabase(env, num_shards=2, name="bank", rtt_ms=1.0)
        db.create_table("accounts")
        k0 = key_on(0, 2)
        keys = (k0, key_on(0, 2, start=k0 + 1), key_on(1, 2))
        db.load("accounts", [{"id": k, "balance": 100} for k in keys])
        return db, [("accounts", k) for k in keys]

    def _transfer(self, env, db, src, dst, amount):
        txn = db.begin(SER)
        rows = run(env, db.lock_and_fetch(txn, [src, dst], {src, dst}))
        writes = {
            src: {"id": src[1], "balance": rows[src]["balance"] - amount},
            dst: {"id": dst[1], "balance": rows[dst]["balance"] + amount},
        }
        return txn, db.commit(txn, writes)

    def test_default_commit_costs_one_round_trip_per_phase_and_no_extra_event(self):
        """One-phase commit: 1 ms and 3 events; 2PC: 2 ms and 5 events.
        Each phase is one round trip (its timeout and the resume), and the
        log entries commit and acknowledge without an event of their own."""
        env = Environment(seed=9)
        db, (a, b, c) = self._make_db(env)
        for dst, expected in [(b, (1.0, 3)), (c, (2.0, 5))] * 3:
            txn, commit = self._transfer(env, db, a, dst, 1)
            start, events = env.now, env.events_executed
            run(env, commit)
            assert txn.status == "committed"
            assert (round(env.now - start, 6), env.events_executed - events) == expected
        assert db.stats.single_shard_commits == db.stats.distributed_commits == 3

    def test_an_idle_group_of_one_schedules_no_event(self):
        env = Environment(seed=9)
        db, (a, b, _c) = self._make_db(env)
        txn, commit = self._transfer(env, db, a, b, 1)
        run(env, commit)
        env.run(until=env.now + 1.0)
        events = env.events_executed
        env.run(until=env.now + 1000.0)
        assert env.events_executed == events
        assert env.pending_events == 0

    def test_restart_leads_without_election_and_settles_the_prepared_branch(self):
        """The replica crashes after its shard's prepare applied and before
        the decide: the decide keeps retrying, the restarted replica
        recovers its rows and the prepared branch from its WAL, leads the
        next term at once, and the decide commits the branch there."""
        env = Environment(seed=9)
        db, (a, b, c) = self._make_db(env)
        run(env, self._transfer(env, db, a, b, 10)[1])
        (replica,) = db.replica_group(0).replicas
        node = replica.node
        seen = {}

        def restart():
            node.restart()
            seen.update(
                role=replica.role, term=replica.term, servable=replica.servable,
                in_doubt=len(replica.engine.in_doubt()),
                balance=replica.engine.read_latest(*a)["balance"],
            )

        txn, commit = self._transfer(env, db, a, c, 5)
        start = env.now
        env.schedule(1.5, node.crash, "test")  # prepared, not yet decided
        env.schedule(40.0, restart)
        run(env, commit)
        assert seen == {"role": "leader", "term": 2, "servable": True,
                        "in_doubt": 1, "balance": 90}
        assert txn.status == "committed" and env.now > start + 40.0
        assert replica.engine.in_doubt() == []
        assert [db.read_latest(*ref)["balance"] for ref in (a, b, c)] == [85, 110, 105]
        assert db.directory.owner_of(0) == node.name


class TestKillLeaderFault:
    def test_plan_validates_and_requires_resolver(self):
        plan = FaultPlan().kill_leader("shard0", at=10.0, until=50.0)
        plan.validate()
        env = Environment(seed=16)
        net = Network(env)
        with pytest.raises(FaultPlanError):
            plan.apply(env, net)

    def test_kill_leader_crashes_resolved_node_and_restarts_it(self):
        env = Environment(seed=17)
        net = Network(env)
        net.add_node("n0")
        plan = FaultPlan().kill_leader("shard0", at=10.0, until=50.0)
        plan.apply(env, net, resolver=lambda label: "n0")
        env.run(until=20.0)
        assert not net.nodes["n0"].alive
        env.run(until=60.0)
        assert net.nodes["n0"].alive

    def test_kill_leader_skips_leaderless_group(self):
        env = Environment(seed=18)
        net = Network(env)
        net.add_node("n0")
        plan = FaultPlan().kill_leader("shard0", at=10.0, until=50.0)
        plan.apply(env, net, resolver=lambda label: None)
        env.run(until=60.0)
        assert net.nodes["n0"].alive


class TestReplicationChaos:
    def test_sound_trial_is_clean_and_deterministic(self):
        first = run_trial("replication", seed=11)
        second = run_trial("replication", seed=11)
        assert first.violations == []
        assert first.history_digest == second.history_digest
        assert first.plan_json == second.plan_json

    def test_broken_no_fencing_variant_is_caught(self):
        result = run_trial("replication", seed=8, broken=True)
        assert result.violations, "the unfenced mutant must violate the oracles"
        invariants = {v.invariant for v in result.violations}
        assert invariants & {"conservation(accounts.balance)",
                             "double_entry(accounts<-postings)",
                             "applied_exactly(postings)"}

    def test_a_decided_round_survives_its_coordinator(self):
        """Invoicing seed 68, shrunk: shard 1 has no leader when the 2PC
        decision is made, and the app node running the coordinator
        crashes while the decide still waits for one.  The decide must
        land anyway, or shard 1 keeps the invoice prepared and its
        counter locked (a gap in the invoice numbers)."""
        result = run_trial("invoicing", 68, episodes=[
            Episode(kind="kill_leader", start=14.953, duration=38.42,
                    target="shard1"),
            Episode(kind="crash", start=161.754, duration=10.396,
                    target="invoicing-app0"),
        ])
        assert result.violations == []

    def test_a_new_leader_applies_earlier_terms_before_serving(self):
        """Replication seed 182, shrunk: two kills of shard 0's leader.
        A node that wins a term with a posting's commit entry still
        unapplied must not serve a transaction before that entry
        applies: one that does reads a stale balance and overwrites the
        debit (conservation drift +10)."""
        result = run_trial("replication", 182, episodes=[
            Episode(kind="kill_leader", start=24.623, duration=49.192,
                    target="shard0"),
            Episode(kind="kill_leader", start=167.952, duration=44.788,
                    target="shard0"),
        ])
        assert result.violations == []

    def test_a_new_leader_serves_no_stale_invoice_counter(self):
        """Invoicing seed 435, shrunk: the same gap behind a kill-leader
        and a partition hands out invoice number 8 twice."""
        cluster = "invoicing-cluster/"
        result = run_trial("invoicing", 435, episodes=[
            Episode(kind="crash", start=92.486, duration=65.36,
                    target=cluster + "node3"),
            Episode(kind="kill_leader", start=159.076, duration=62.766,
                    target="shard0"),
            Episode(kind="partition", start=240.233, duration=36.196,
                    group_a=(cluster + "node0", cluster + "node2"),
                    group_b=(cluster + "node1", cluster + "node3")),
        ])
        assert result.violations == []
