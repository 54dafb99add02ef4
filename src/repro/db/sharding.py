"""Hash-sharded database with cross-shard 2PC and live shard rebalancing.

Models the scale-out relational tier: each *logical shard* is a replica
group (:class:`~repro.replication.ReplicaGroup`) of ``replication.factor``
:class:`~repro.db.engine.Database` engines, placed on *nodes* through the
shared cluster layer (:mod:`repro.cluster`).  The default group has one
replica: it commits an entry when it proposes it and runs no election
timer and no heartbeat, so it costs the virtual time and kernel events a
plain engine would.
Single-shard transactions commit in one phase and cross-shard
transactions run 2PC, both as entries of the touched groups' logs.  This
is the "cross-engine transactions ... at a lower level than the
application" design the paper points to as promising (§5.2).

What a commit costs is its sequential message delays, not its messages:
a one-phase commit is one round trip, and 2PC is two however many shards
it touches — every group's ``prepare`` entry is proposed in one round and
every ``decide`` in the next, before any acknowledgement is awaited.
:meth:`ShardedDatabase.lock_and_fetch` is one round too when no lock is
busy; its ascending shard order, which is what makes it deadlock-free,
binds only the waits, so each shard at which it has to wait costs one
more round.

Placement and elasticity:

- routing is key → shard (:func:`~repro.cluster.shard_of`, the crc32 formula)
  → owning node (:class:`~repro.cluster.PlacementDirectory`): the
  shard's group leader;
- :meth:`ShardedDatabase.migrate_shard` moves a shard's whole group
  between nodes live, through the drain → copy → flip → forward protocol
  of :mod:`repro.cluster.migration`: new transactions touching the shard
  wait out the bar, in-flight ones (including distributed transactions
  holding locks there) drain first, state copies row-by-row through the
  storage layer, and ownership flips atomically in the directory;
- after a flip, the first request per stale route pays one extra
  round-trip (the straggler forward) and repairs its cache;
- with ``service_ms > 0`` every operation also occupies one of the owning
  node's ``node_concurrency`` service slots, which is what makes node
  count a real capacity limit (benchmark C14's elasticity curve).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Container,
    Generator,
    Hashable,
    Iterable,
    Optional,
)

from repro.cluster import (
    ClusterError,
    MigrationStats,
    PlacementDirectory,
    Router,
    ShardStats,
)
from repro.cluster.migration import migrate_shard as _run_migration
from repro.cluster.plan import by_partition
from repro.db.engine import Database, IsolationLevel, Transaction
from repro.db.errors import FencedOut
from repro.net import Network
from repro.replication.config import ReplicationConfig
from repro.replication.errors import (
    NoLeader,
    NotLeader,
    ReplicationError,
    ReplicaUnavailable,
)
from repro.replication.group import ReplicaGroup
from repro.replication.replica import HEARTBEAT_MS
from repro.sim import Environment, Future, Interrupted, Semaphore, any_of
from repro.transactions.commit import PREPARED, two_phase

#: Effectively-unbounded deadline for 2PC decision entries: a decided
#: transaction's outcome must reach every participant group no matter how
#: many elections happen in between, or atomicity tears (conservation
#: violation).  The decide keeps retrying through whichever leader emerges,
#: even after the coordinator's own process dies (:meth:`_Round.decide`).
_DECIDE_TIMEOUT_MS = 1e9


@dataclass
class DistributedTransaction:
    """A transaction that may touch several shards."""

    isolation: IsolationLevel
    branches: dict[int, Transaction] = field(default_factory=dict)
    #: the leader replica each branch executed on, whose engine holds the
    #: branch — proposals pin to it so a deposed leader yields a definite
    #: NotLeader instead of silently re-routing half-executed state.
    replicas: dict[int, Any] = field(default_factory=dict)
    #: log index each shard's commit/decide entry applied at (read-your-writes
    #: session tokens for follower reads).
    applied: dict[int, int] = field(default_factory=dict)
    #: the shard of every ``(table, key)`` :meth:`ShardedDatabase.lock_and_fetch`
    #: locked, so the commit routes each write without hashing its key again
    locked: dict[tuple[str, Hashable], int] = field(default_factory=dict)
    status: str = "active"

    @property
    def is_distributed(self) -> bool:
        return len(self.branches) > 1


@dataclass
class ShardedDbStats:
    """Commit outcomes of one :class:`ShardedDatabase`, by shard count."""

    single_shard_commits: int = 0
    distributed_commits: int = 0


class _Mover:
    """The :class:`~repro.cluster.migration.ShardMover` of the sharded DB:
    moves a shard's whole replica group onto ``members`` atomically.

    Quiescence bars new branches, lets the in-flight ones drain, then
    waits for the group's log to be fully applied with no outstanding
    acknowledgement or in-doubt transaction.  The copy re-checks
    leadership after every yield, so a migration racing a leader election
    (or a leader crash) aborts cleanly with :class:`ClusterError` instead
    of flipping ownership to a group built from a deposed leader's state.
    """

    def __init__(self, db: "ShardedDatabase", members: list[str]) -> None:
        self.db = db
        self.members = members

    def quiesce(self, shard: int) -> Generator:
        db, env = self.db, self.db.env
        db._barriers[shard] = env.future(label=f"shard{shard}.barrier")
        if db._active_branches.get(shard, 0):
            drained = env.future(label=f"shard{shard}.drained")
            db._drain_waiters[shard] = drained
            winner = yield any_of(
                env, [drained, env.timeout(db.drain_timeout_ms, "timeout")]
            )
            db._drain_waiters.pop(shard, None)
            if winner[0] == 1:
                raise ClusterError(
                    f"shard {shard} failed to drain within {db.drain_timeout_ms}ms "
                    f"({db._active_branches.get(shard, 0)} branch(es) still active)"
                )
        group = db._groups[shard]
        deadline = env.now + db.drain_timeout_ms
        while not group.quiescent():
            if env.now >= deadline:
                raise ClusterError(
                    f"shard {shard} replica group failed to quiesce within "
                    f"{db.drain_timeout_ms}ms"
                )
            yield env.timeout(HEARTBEAT_MS)

    def transfer(self, shard: int, source: str, dest: str) -> Generator:
        """Stream the leader's rows, table by table: each table costs one
        round trip to open its stream, then a per-row copy cost, so the
        state moves through the storage layer, not by reference."""
        db = self.db
        group = db._groups[shard]
        leader = group.leader_replica()  # live, or None
        if leader is None:
            raise ClusterError(f"shard {shard} has no leader to copy from")
        start_index = leader.applied_index
        copied: dict[str, list[dict]] = {}
        for table in db._primary_keys:
            rows = leader.engine.all_rows(table)
            yield db.env.timeout(db.rtt_ms)
            if rows:
                yield db.env.timeout(db.copy_ms_per_row * len(rows))
            if group.leader_replica() is not leader:
                raise ClusterError(
                    f"shard {shard} leadership changed mid-copy; "
                    "migration aborted"
                )
            copied[table] = rows
        for member in self.members:
            node = db.repl_net.nodes.get(member)
            if node is not None and not node.alive:
                raise ClusterError(
                    f"shard {shard} migration member {member!r} is down; "
                    "migration aborted"
                )
        db.install_group(shard, self.members, copied, start_index).stop()
        return sum(len(rows) for rows in copied.values())

    def resume(self, shard: int) -> None:
        barrier = self.db._barriers.pop(shard, None)
        if barrier is not None:
            barrier.try_succeed(None)


class _Round:
    """The :func:`~repro.transactions.commit.two_phase` transport: both
    phases are log entries of the touched replica groups.

    A round is one round trip, then every group's entry is proposed
    (:meth:`ReplicaGroup.start`) before any ack is awaited, and the acks
    are collected in shard order; a group of one's entry has committed
    by the time it is proposed (it starts as its applied index), so it
    leaves nothing to await, and a round with nothing to await collects
    nothing.  The ``prepare`` entries are pinned to the leader each
    branch executed on; the idempotent ``decide`` entries are
    re-proposed through whichever leader emerges until they land,
    because a torn decision is an atomicity violation the conservation
    oracle would catch.  Read-only branches hold no writes to replicate;
    they are settled locally in the decision round.
    """

    def __init__(self, db: "ShardedDatabase", txn: DistributedTransaction) -> None:
        self.db, self.txn = db, txn
        self.gid = ("repl", db.env.next_id("repl-gid"))
        #: the shards whose ``prepare`` entry was proposed: they get a
        #: ``decide``
        self.proposed: list[int] = []

    def prepare(self, shards: list[int]) -> Generator:
        """A failed round (a deposed leader, a ``NotLeader``/``NoLeader``
        proposal, a failed ack) is every write shard's vote."""
        db, txn, gid, proposed = self.db, self.txn, self.gid, self.proposed
        writing = [index for index in shards if txn.branches[index].writes]
        pending: list[tuple[int, Any]] = []
        try:
            if writing:
                yield db.env.timeout(db.rtt_ms)
            for index in writing:
                engine = txn.replicas[index].engine
                db._check_replica(txn, index)
                writes = engine.stage_replicated(txn.branches[index], gid, prepared=True)
                try:
                    proposal = db._groups[index].start(
                        ("prepare", gid, writes), txn.replicas[index]
                    )
                except (NotLeader, NoLeader):
                    engine.discard_replicated(gid)
                    raise
                proposed.append(index)
                if proposal.__class__ is not int:
                    pending.append((index, proposal))
            if pending:
                yield from self._collect(pending)
        except Exception as exc:
            return [exc if index in writing else PREPARED for index in shards]
        return [PREPARED] * len(shards)

    def decide(self, shards: list[int], commit: bool) -> Generator:
        db, txn, groups = self.db, self.txn, self.db._groups
        # Mark the outcome first so a concurrent abort() won't touch staged
        # branches while the decides are in flight.  An abort decision is
        # always safe while no commit decision replicated: shards whose
        # prepare did (or will) land see the abort; shards where it never
        # landed settle by truncation-discard or crash.
        txn.status = "uncertain" if commit else "aborted"
        proposed = self.proposed
        if commit or proposed:  # an abort no group must log settles locally
            yield db.env.timeout(db.rtt_ms)
        decide = ("decide", self.gid, commit)
        applied = txn.applied
        pending: list[tuple[int, Any]] = []
        for index in proposed:
            proposal = groups[index].start(decide, None, _DECIDE_TIMEOUT_MS, True)
            if proposal.__class__ is int:
                applied[index] = proposal
            else:
                pending.append((index, proposal))
        errors: dict[int, Exception] = {}
        for index in shards:
            if index in proposed:
                continue
            engine, branch = txn.replicas[index].engine, txn.branches[index]
            try:
                if commit:
                    yield from engine.commit(branch)
                else:
                    engine.abort(branch)
            except Exception as exc:
                errors[index] = exc
        if pending:
            try:
                applied.update((yield from self._collect(pending, errors)))
            except Interrupted:
                # The coordinator's node crashed, but the decision is made:
                # a detached process keeps collecting the decides, or the
                # shards they have not reached stay prepared and locked.
                db.env.process(
                    self._collect(pending, {}), label=f"{db.name}.decide:{self.gid}"
                )
                raise
        return [errors.get(index) for index in shards]

    def _collect(
        self,
        pending: list[tuple[int, Any]],
        errors: Optional[dict[int, Exception]] = None,
    ) -> Generator:
        """Await pending proposals in shard order, inside the calling
        process (:meth:`ReplicaGroup.wait`); returns ``{shard: applied
        log index}``.  The first failed wait raises, unless ``errors`` is
        given: then each shard's failure is recorded there and the rest
        are still awaited."""
        groups = self.db._groups
        applied: dict[int, int] = {}
        for index, proposal in pending:
            try:
                applied[index] = yield from groups[index].wait(proposal)
            except (ReplicationError, FencedOut) as exc:
                if errors is None:
                    raise
                errors[index] = exc
        return applied


class ShardedDatabase:
    """N logical shards placed on nodes behind a routing layer with 2PC.

    The API mirrors :class:`~repro.db.engine.Database`; rows are routed by
    primary key.  ``commit`` runs one-phase for single-shard transactions
    and prepare/commit over every touched shard otherwise, charging
    ``rtt_ms`` per round — one for a local commit, one for all prepares
    plus one for all decisions under 2PC — so the extra round trip is
    visible.  Every shard is a replica group of ``replication.factor``
    replicas (default: one).
    """

    #: the class every shard's replica group is built from
    group_class = ReplicaGroup

    def __init__(
        self,
        env: Environment,
        num_shards: int = 4,
        name: str = "sharded-db",
        rtt_ms: float = 1.0,
        num_nodes: Optional[int] = None,
        service_ms: float = 0.0,
        node_concurrency: int = 8,
        copy_ms_per_row: float = 0.05,
        drain_timeout_ms: float = 500.0,
        *,
        replication: Optional[ReplicationConfig] = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if num_nodes is not None and num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.env = env
        self.name = name
        self.num_shards = num_shards
        self.rtt_ms = rtt_ms
        self.service_ms = service_ms
        self.node_concurrency = node_concurrency
        self.copy_ms_per_row = copy_ms_per_row
        self.drain_timeout_ms = drain_timeout_ms
        self.replication = replication or ReplicationConfig(factor=1)
        self.stats = ShardedDbStats()
        # -- cluster placement ------------------------------------------------
        self.directory = PlacementDirectory(env)
        self.router = Router(num_shards, self.directory)
        self.shard_stats = ShardStats(num_shards)
        self.migration_stats = MigrationStats()
        self.nodes: list[str] = []
        self._gates: dict[str, Semaphore] = {}
        for _ in range(num_nodes if num_nodes is not None else num_shards):
            self.add_node()
        factor = self.replication.factor
        if len(self.nodes) < factor:
            raise ValueError(
                f"replication factor {factor} needs at "
                f"least {factor} nodes, have {len(self.nodes)}"
            )
        #: table -> primary-key column, in create_table order: the schema
        #: every new engine replays
        self._primary_keys: dict[str, str] = {}
        #: replica traffic runs over its own network so the replication
        #: RPCs share fault injection (partitions, crashes) with the
        #: chaos layer without disturbing the client-facing model
        self.repl_net = Network(env)
        self._groups: dict[int, ReplicaGroup] = {}
        self._generations: dict[int, int] = {}
        for shard in range(num_shards):
            members = [
                self.nodes[(shard + j) % len(self.nodes)] for j in range(factor)
            ]
            self.install_group(shard, members)
            self.directory.assign(shard, members[0])
        self._active_branches: dict[int, int] = {}
        self._drain_waiters: dict[int, Future] = {}
        self._barriers: dict[int, Future] = {}

    # -- topology -----------------------------------------------------------------

    def add_node(self, name: Optional[str] = None) -> str:
        """Provision a new (initially empty) node; returns its name."""
        node = name or f"{self.name}/node{len(self.nodes)}"
        if node in self.nodes:
            raise ValueError(f"node {node!r} already exists")
        self.nodes.append(node)
        if self.service_ms > 0:
            self._gates[node] = Semaphore(
                self.env, self.node_concurrency, label=f"{node}.service"
            )
        return node

    def cluster_nodes(self) -> list[str]:
        """Nodes eligible to own shards (the RebalanceTarget view)."""
        return list(self.nodes)

    def install_group(
        self,
        shard: int,
        members: list[str],
        rows_by_table: Optional[dict[str, list[dict]]] = None,
        start_index: int = 0,
    ) -> Optional[ReplicaGroup]:
        """Back ``shard`` with a new replica group; return the one it
        replaced, for the caller to retire (:meth:`ReplicaGroup.stop`).

        The group's engines are fresh on ``members`` (the first one leads),
        with the schema replayed and ``rows_by_table`` loaded; its log
        starts at ``start_index``.  The service name carries a generation
        counter so a rebuilt group never collides with its predecessor's
        RPC ports.  Ownership is the caller's to flip."""

        def engine(node_name: str) -> Database:
            engine = Database(self.env, name=f"{self.name}/shard{shard}@{node_name}")
            for table, primary_key in self._primary_keys.items():
                engine.create_table(table, primary_key)
            for table, rows in (rows_by_table or {}).items():
                if rows:
                    engine.load(table, rows)
            return engine

        generation = self._generations.get(shard, -1) + 1
        group = self.group_class(
            self.env,
            self.repl_net,
            name=f"{self.name}/s{shard}",
            engine_factory=engine,
            node_names=list(members),
            service=f"{self.name}-s{shard}g{generation}",
            start_index=start_index,
        )

        def on_leader(node: str) -> None:
            # an election flips the shard's owner; a retired group's don't
            if self._groups.get(shard) is group:
                self.directory.set_group_leader(shard, node)

        group.on_leader = on_leader
        replaced = self._groups.get(shard)
        self._groups[shard] = group
        self._generations[shard] = generation
        self.directory.assign_group(shard, tuple(members))
        return replaced

    def replica_group(self, shard: int) -> ReplicaGroup:
        """The replica group currently backing ``shard``."""
        return self._groups[shard]

    def leader_engine(self, shard: int) -> Database:
        """``shard``'s current leader engine.

        Mid-election, falls back to the most advanced live replica's, so
        final-state reads stay serviceable."""
        group = self._groups[shard]
        leader = group.leader_replica()
        if leader is None:
            live = [r for r in group.replicas if r.node.alive and r.role != "stopped"]
            leader = max(
                live, key=lambda r: (r.term, r.applied_index), default=group.replicas[0]
            )
        return leader.engine

    def migrate_shard(
        self,
        shard: int,
        dest: str,
        dest_nodes: Optional[list[str]] = None,
    ) -> Generator:
        """Live-migrate one shard's replica group to ``dest`` (drain →
        copy → flip).

        The whole group moves atomically: ``dest`` becomes the new
        group's bootstrap leader and ``dest_nodes`` (default: ``dest``
        plus enough existing nodes) names the full new membership.  The
        old group is retired at the flip; the new log starts at the old
        leader's applied index so session read-your-writes tokens stay
        monotone across the move.
        """
        factor = self.replication.factor
        members = list(dest_nodes) if dest_nodes is not None else [
            dest, *[node for node in self.nodes if node != dest][:factor - 1]
        ]
        if not (0 <= shard < self.num_shards):
            raise ClusterError(f"unknown shard {shard}")
        if (
            members[:1] != [dest]
            or len(members) != factor or len(set(members)) != factor
            or not set(members) <= set(self.nodes)
        ):
            raise ClusterError(
                f"shard {shard} needs a group of {factor} distinct known "
                f"nodes led by {dest!r}, got {members}"
            )
        return (yield from _run_migration(
            self.env, self.directory, _Mover(self, members), shard, dest,
            self.migration_stats,
        ))

    # -- schema -----------------------------------------------------------------

    def _engines(self) -> Generator:
        """Every replica's engine: what a DDL statement must reach."""
        for group in self._groups.values():
            yield from group.engines()

    def create_table(self, name: str, primary_key: str = "id") -> None:
        self._primary_keys[name] = primary_key
        for engine in self._engines():
            engine.create_table(name, primary_key)

    def load(self, table: str, rows: list[dict]) -> None:
        """Setup-time load sits below the log: every replica gets its
        shard's rows directly, like a restored base snapshot."""
        primary_key = self._primary_keys[table]
        shard_of = self.router.shard_of
        buckets: dict[int, list[dict]] = {}
        for row in rows:
            buckets.setdefault(shard_of(row[primary_key]), []).append(row)
        for shard, shard_rows in buckets.items():
            for engine in self._groups[shard].engines():
                engine.load(table, shard_rows)

    # -- transactions --------------------------------------------------------------

    def begin(self, isolation: IsolationLevel = IsolationLevel.SERIALIZABLE) -> DistributedTransaction:
        return DistributedTransaction(isolation=isolation)

    def _reach(self, txn: DistributedTransaction, key: Hashable) -> Generator:
        """Open ``txn``'s branch on ``key``'s shard if needed and charge
        one round to it; returns ``(engine, branch)``."""
        shard = self.router.shard_of(key)
        yield from self._open_branch(txn, shard)
        yield from self._round([shard])
        return txn.replicas[shard].engine, txn.branches[shard]

    def _open_branch(self, txn: DistributedTransaction, shard: int) -> Generator:
        """Open ``txn``'s branch on ``shard``'s leader unless it already
        has one.

        Opening a branch on a migrating shard waits out the migration bar
        (drain + copy), then for a servable leader; operations on branches
        opened *before* the bar proceed, which is what lets in-flight
        transactions drain.
        """
        if shard in txn.branches:
            self._check_replica(txn, shard)
            return
        leader = self._groups[shard].leader_replica()
        while shard in self._barriers or leader is None or not leader.servable:
            # wait out the bar, then for a servable leader; a migration may
            # raise its bar again meanwhile — wait that out too, rather
            # than dodging the drain
            while shard in self._barriers:
                yield self._barriers[shard]
            leader = yield from self._groups[shard].wait_leader()
        txn.branches[shard] = leader.engine.begin(txn.isolation)
        txn.replicas[shard] = leader
        self._active_branches[shard] = self._active_branches.get(shard, 0) + 1

    def _check_replica(self, txn: DistributedTransaction, shard: int) -> None:
        """Refuse further work on a branch whose leader was deposed.

        The branch's buffered state lives on one specific replica's
        engine; once that replica stops leading (crash, election) the
        transaction cannot commit there, so fail fast and definitely."""
        replica = txn.replicas[shard]
        if replica.role != "leader" or not replica.node.alive:
            raise ReplicaUnavailable(self._groups[shard].name, replica.node.name)

    def _close_branches(self, txn: DistributedTransaction) -> None:
        """Release drain accounting once a transaction fully settles."""
        for shard in txn.branches:
            remaining = self._active_branches.get(shard, 1) - 1
            self._active_branches[shard] = remaining
            if remaining == 0:
                waiter = self._drain_waiters.get(shard)
                if waiter is not None:
                    waiter.try_succeed(None)

    def _round(self, shards: list[int]) -> Generator:
        """Charge one round reaching every shard in ``shards`` at once.

        One round trip, plus one forward hop when any cached route went
        stale, plus — when node capacity is modeled — a service slot on
        every owning node for one ``service_ms`` (slots taken in node-name
        order, so two rounds cannot each hold a slot the other waits for).
        Each shard's load is recorded after the charge.  The interactive
        operations charge a one-shard round per call."""
        routes = [self.router.resolve_shard(shard) for shard in shards]
        yield self.env.timeout(self.rtt_ms)
        for route in routes:
            if route.forwarded:
                yield self.env.timeout(self.rtt_ms)
                break
        if self.service_ms > 0:
            gates = [self._gates[node] for node in sorted({r.node for r in routes})]
            held = []
            try:
                for gate in gates:
                    yield gate.acquire()
                    held.append(gate)
                yield self.env.timeout(self.service_ms)
            finally:
                for gate in held:
                    gate.release()
        for shard in shards:
            self.shard_stats.record(shard)

    def get(self, txn: DistributedTransaction, table: str, key: Hashable) -> Generator:
        engine, branch = yield from self._reach(txn, key)
        return (yield from engine.get(branch, table, key))

    def put(self, txn: DistributedTransaction, table: str, key: Hashable, row: dict) -> Generator:
        engine, branch = yield from self._reach(txn, key)
        yield from engine.put(branch, table, key, row)

    def insert(self, txn: DistributedTransaction, table: str, row: dict) -> Generator:
        engine, branch = yield from self._reach(txn, row[self._primary_keys[table]])
        yield from engine.insert(branch, table, row)

    def update(self, txn: DistributedTransaction, table: str, key: Hashable, changes: dict) -> Generator:
        engine, branch = yield from self._reach(txn, key)
        return (yield from engine.update(branch, table, key, changes))

    def delete(self, txn: DistributedTransaction, table: str, key: Hashable) -> Generator:
        engine, branch = yield from self._reach(txn, key)
        yield from engine.delete(branch, table, key)

    def lock_and_fetch(
        self,
        txn: DistributedTransaction,
        refs: Iterable[tuple[str, Hashable]],
        writable: Container[tuple[str, Hashable]],
    ) -> Generator:
        """Lock every ``(table, key)`` in ``refs`` up front; return their rows.

        Every touched shard's branch opens first, in ascending shard id
        (each open waits out a migration bar or a leader election).  Then
        rounds: one :meth:`_round` carries the request of every shard not
        yet locked, and the shards lock in ascending id, each engine
        taking its keys in ``(table, repr(key))`` order
        (:meth:`Database.lock_and_fetch`) — X for refs in ``writable``, S
        for the rest.  A shard whose locking had to wait ends the round:
        the requests to the higher shards count as cancelled (released in
        the same reply round) and the next round re-sends them.  So the
        transaction waits at a shard only while it holds locks on lower
        shards, every acquisition follows the one global order
        ``(shard, table, repr(key))``, and no waits-for cycle can form,
        across shards included, where no single shard's lock manager
        could see it.  Uncontended, that is one round however many shards
        are touched; each wait adds one.  Returns
        ``{(table, key): row or None}``.
        """
        by_shard = by_partition(refs, self.router.shard_of, txn.locked)
        pending = list(by_shard)
        for shard in pending:
            yield from self._open_branch(txn, shard)
        rows: dict[tuple[str, Hashable], Optional[dict]] = {}
        while pending:
            yield from self._round(pending)
            for done, shard in enumerate(pending, 1):
                asked = self.env.now
                fetched = yield from txn.replicas[shard].engine.lock_and_fetch(
                    txn.branches[shard], by_shard[shard], writable
                )
                rows.update(fetched)
                if self.env.now != asked:
                    break  # it waited: the next round re-sends the rest
            pending = pending[done:]
        return rows

    def commit(
        self,
        txn: DistributedTransaction,
        writes: Optional[dict[tuple[str, Hashable], Optional[dict]]] = None,
    ) -> Generator:
        """One-phase commit if local, else 2PC across touched shards.

        A one-phase commit is one round trip (:meth:`_commit_one`).  2PC
        is :func:`~repro.transactions.commit.two_phase` over
        :class:`_Round`: two rounds, one carrying every shard's prepare
        and the next every decision.  Once the locks are held the shards
        are independent, so neither round waits for one shard before
        messaging the next.  A commit decision that did not reach every
        shard leaves ``txn.status == "uncertain"`` and raises its first
        delivery error.

        ``writes`` — ``{(table, key): row, or None to delete}`` over keys
        :meth:`lock_and_fetch` locked exclusively — travel inside each
        shard's commit message (the one-phase commit or the prepare), so
        buffering them costs no hop of its own.
        """
        for shard in txn.branches:
            # a deposed leader's lock table is gone: fail definitely
            self._check_replica(txn, shard)
        if writes:
            locked = txn.locked
            for ref, row in writes.items():
                shard = locked.get(ref)
                if shard is None:  # never locked: routed, then refused there
                    shard = self.router.shard_of(ref[1])
                txn.replicas[shard].engine.buffer_write(
                    txn.branches[shard], ref[0], ref[1], row
                )
        if not txn.branches:
            txn.status = "committed"
            return
        try:
            if not txn.is_distributed:
                yield from self._commit_one(txn)
                return
            committed, error = yield from two_phase(
                _Round(self, txn), sorted(txn.branches)
            )
            if not committed:
                txn.status = "aborted"
            elif error is None:
                txn.status = "committed"
                self.stats.distributed_commits += 1
            else:
                txn.status = "uncertain"
            if error is not None:
                raise error
        finally:
            if txn.status != "active":
                self._close_branches(txn)

    def _commit_one(self, txn: DistributedTransaction) -> Generator:
        """One-phase commit of a single-shard transaction through its
        replica group's log.

        The writes replicate as one ``commit`` entry, and the commit waits
        for its quorum acknowledgement — pinned to the leader the
        transaction executed on, so a deposed leader yields a definite
        :class:`NotLeader` (clean abort) before proposing and an
        *uncertain* outcome after (the log settles the branch: apply,
        truncate-discard, or crash).  A read-only branch has nothing to
        replicate and settles locally.
        """
        (index,) = txn.branches
        engine = txn.replicas[index].engine
        branch = txn.branches[index]
        yield self.env.timeout(self.rtt_ms)
        if not branch.writes:
            yield from engine.commit(branch)
            txn.status = "committed"
            self.stats.single_shard_commits += 1
            return
        self._check_replica(txn, index)
        gid = ("repl", self.env.next_id("repl-gid"))
        writes = engine.stage_replicated(branch, gid)
        try:
            applied = yield from self._groups[index].replicate(
                ("commit", gid, writes), replica=txn.replicas[index]
            )
        except (NotLeader, NoLeader):
            # definitely never proposed: unstage and report a
            # clean abort (caller's abort() finishes the rollback)
            engine.discard_replicated(gid)
            raise
        except (ReplicationError, FencedOut):
            # proposed: the log settles the branch (a FencedOut
            # entry in fact installed — but the deposed leader
            # must not report success it could not verify)
            txn.status = "uncertain"
            raise
        txn.applied[index] = applied
        txn.status = "committed"
        self.stats.single_shard_commits += 1

    def abort(self, txn: DistributedTransaction) -> None:
        if txn.status != "active":
            return
        for index, branch in txn.branches.items():
            txn.replicas[index].engine.abort(branch)
        txn.status = "aborted"
        self._close_branches(txn)

    # -- helpers --------------------------------------------------------------------

    def owner_of(self, key: Hashable) -> str:
        """The node currently owning ``key``'s shard (tests, scenarios)."""
        return self.directory.owner_of(self.router.shard_of(key))

    def read_latest(self, table: str, key: Hashable) -> Optional[dict]:
        return self.leader_engine(self.router.shard_of(key)).read_latest(table, key)

    def all_rows(self, table: str) -> list[dict]:
        rows: list[dict] = []
        for shard in range(self.num_shards):
            rows.extend(self.leader_engine(shard).all_rows(table))
        return rows
