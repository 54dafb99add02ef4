"""Hash-sharded database with cross-shard 2PC and live shard rebalancing.

Models the scale-out relational tier: each *logical shard* is a full
:class:`~repro.db.engine.Database`, shards are placed on *nodes* through
the shared cluster layer (:mod:`repro.cluster`), single-shard transactions
commit locally, and cross-shard transactions run 2PC over the shards' XA
interface.  This is the "cross-engine transactions ... at a lower level
than the application" design the paper points to as promising (§5.2).

What a commit costs is its sequential message delays, not its messages:
a one-phase commit is one round trip, and 2PC is two however many shards
it touches — every shard's prepare goes out in one round and every
decision in the next (under replication, every group's ``prepare`` or
``decide`` log entry is proposed before any quorum ack is awaited).
:meth:`ShardedDatabase.lock_and_fetch` is one round too when no lock is
busy; its ascending shard order, which is what makes it deadlock-free,
binds only the waits, so each shard at which it has to wait costs one
more round.

Placement and elasticity:

- routing is key → shard (``ModHashRing``, the historical crc32 formula)
  → owning node (:class:`~repro.cluster.PlacementDirectory`);
- :meth:`ShardedDatabase.migrate_shard` moves a shard between nodes live,
  through the drain → copy → flip → forward protocol of
  :mod:`repro.cluster.migration`: new transactions touching the shard
  wait out the bar, in-flight ones (including distributed transactions
  holding locks there) drain first, state copies row-by-row through the
  storage layer, and ownership flips atomically in the directory;
- after a flip, the first request per stale route pays one extra
  round-trip (the straggler forward) and repairs its cache;
- with ``service_ms > 0`` every operation also occupies one of the owning
  node's ``node_concurrency`` service slots, which is what makes node
  count a real capacity limit (benchmark C14's elasticity curve).

The default configuration (one node per shard, no service gate, no
migrations) is byte-identical to the pre-cluster implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Container,
    Generator,
    Hashable,
    Iterable,
    Optional,
)

from repro.cluster import (
    ClusterError,
    MigrationStats,
    ModHashRing,
    PlacementDirectory,
    Router,
    ShardStats,
    stable_hash,
)
from repro.cluster.migration import migrate_shard as _run_migration
from repro.cluster.plan import by_partition
from repro.db.engine import Database, IsolationLevel, Transaction, TxnStatus
from repro.db.errors import FencedOut
from repro.replication.config import ReplicationConfig
from repro.replication.errors import (
    NoLeader,
    NotLeader,
    ReplicationError,
    ReplicaUnavailable,
)
from repro.sim import Environment, Future, Interrupted, Semaphore, any_of
from repro.transactions.commit import PREPARED, two_phase

if TYPE_CHECKING:
    from repro.replication.group import Proposal

#: Effectively-unbounded deadline for 2PC decision entries: a decided
#: transaction's outcome must reach every participant group no matter how
#: many elections happen in between, or atomicity tears (conservation
#: violation).  The decide keeps retrying through whichever leader emerges,
#: even after the coordinator's own process dies (:meth:`_GroupRound.decide`).
_DECIDE_TIMEOUT_MS = 1e9


def shard_of(key: Hashable, num_shards: int) -> int:
    """Deterministic, platform-stable shard routing (cluster formula)."""
    return stable_hash(key) % num_shards


@dataclass
class DistributedTransaction:
    """A transaction that may touch several shards."""

    isolation: IsolationLevel
    branches: dict[int, Transaction] = field(default_factory=dict)
    #: the engine each branch was opened against — normally the shard's
    #: current engine, but pinned here so a branch always settles where it
    #: wrote (the drain bar makes the two identical in sound operation).
    engines: dict[int, "Database"] = field(default_factory=dict)
    #: under replication, the leader replica each branch executed on —
    #: proposals pin to it so a deposed leader yields a definite NotLeader
    #: instead of silently re-routing half-executed state.
    replicas: dict[int, Any] = field(default_factory=dict)
    #: log index each shard's commit/decide entry applied at (read-your-writes
    #: session tokens for follower reads).
    applied: dict[int, int] = field(default_factory=dict)
    status: str = "active"

    @property
    def shards_touched(self) -> list[int]:
        return sorted(self.branches)

    @property
    def is_distributed(self) -> bool:
        return len(self.branches) > 1


@dataclass
class ShardedDbStats:
    """Commit outcomes of one :class:`ShardedDatabase`, by shard count."""

    single_shard_commits: int = 0
    distributed_commits: int = 0
    distributed_aborts: int = 0


class _ShardedMover:
    """The :class:`~repro.cluster.migration.ShardMover` of the sharded DB."""

    def __init__(self, db: "ShardedDatabase") -> None:
        self.db = db

    def quiesce(self, shard: int) -> Generator:
        db = self.db
        db._barriers[shard] = db.env.future(label=f"shard{shard}.barrier")
        if db._active_branches.get(shard, 0) == 0:
            return
        drained = db.env.future(label=f"shard{shard}.drained")
        db._drain_waiters[shard] = drained
        winner = yield any_of(
            db.env, [drained, db.env.timeout(db.drain_timeout_ms, "timeout")]
        )
        db._drain_waiters.pop(shard, None)
        if winner[0] == 1:
            raise ClusterError(
                f"shard {shard} failed to drain within {db.drain_timeout_ms}ms "
                f"({db._active_branches.get(shard, 0)} branch(es) still active)"
            )

    def transfer(self, shard: int, source: str, dest: str) -> Generator:
        db = self.db
        copied = yield from self._copy(db.shards[shard])
        db.shards[shard] = db.new_engine(f"{db.name}/shard{shard}", copied)
        return sum(len(rows) for rows in copied.values())

    def _copy(
        self, engine: Database, check: Callable[[], None] = lambda: None
    ) -> Generator:
        """Stream ``engine``'s rows, table by table; returns ``{table:
        rows}``.  Each table costs one round trip to open its stream, then
        a per-row copy cost: the state moves through the storage layer,
        not by reference.  ``check`` runs after each table's charges."""
        db = self.db
        copied: dict[str, list[dict]] = {}
        for kind, args in db._schema:
            if kind != "table":
                continue
            rows = engine.all_rows(args[0])
            yield db.env.timeout(db.rtt_ms)
            if rows:
                yield db.env.timeout(db.copy_ms_per_row * len(rows))
            check()
            copied[args[0]] = rows
        return copied

    def resume(self, shard: int) -> None:
        barrier = self.db._barriers.pop(shard, None)
        if barrier is not None:
            barrier.try_succeed(None)


class _LeaderView:
    """Sequence façade: ``db.shards[i]`` is shard *i*'s current leader engine.

    Keeps the unreplicated code paths (schema helpers, ``read_latest``)
    working unchanged when a shard is a replica group rather than a single
    engine.  Mid-election, falls back to the most advanced live replica so
    final-state reads stay serviceable.
    """

    def __init__(self, db: "ShardedDatabase") -> None:
        self.db = db

    def __len__(self) -> int:
        return self.db.num_shards

    def _engine(self, shard: int) -> Database:
        group = self.db._groups[shard]
        leader = group.leader_replica()
        if leader is not None:
            return leader.engine
        live = [
            r for r in group.replicas
            if r.node.alive and r.role != "stopped"
        ]
        if live:
            return max(live, key=lambda r: (r.term, r.applied_index)).engine
        return group.replicas[0].engine

    def __getitem__(self, shard: int) -> Database:
        return self._engine(shard)

    def __iter__(self):
        for shard in range(len(self)):
            yield self._engine(shard)


class _ReplicatedMover(_ShardedMover):
    """Shard mover that migrates a whole replica group atomically.

    Quiescence additionally waits for the group's log to be fully applied
    with no outstanding acknowledgements or in-doubt transactions; the
    copy re-checks leadership after every yield so a migration racing a
    leader election (or a leader crash) aborts cleanly with
    :class:`ClusterError` instead of flipping ownership to a group built
    from a deposed leader's state.
    """

    def __init__(self, db: "ShardedDatabase", members: list[str]) -> None:
        super().__init__(db)
        self.members = members

    def quiesce(self, shard: int) -> Generator:
        yield from super().quiesce(shard)
        db = self.db
        group = db._groups[shard]
        deadline = db.env.now + db.drain_timeout_ms
        while not group.quiescent():
            if db.env.now >= deadline:
                raise ClusterError(
                    f"shard {shard} replica group failed to quiesce within "
                    f"{db.drain_timeout_ms}ms"
                )
            yield db.env.timeout(db.replication.heartbeat_ms)

    def transfer(self, shard: int, source: str, dest: str) -> Generator:
        db = self.db
        group = db._groups[shard]
        leader = group.leader_replica()
        if leader is None or not leader.node.alive:
            raise ClusterError(f"shard {shard} has no leader to copy from")
        start_index = leader.applied_index

        def still_leading() -> None:
            if (
                not leader.node.alive
                or leader.role != "leader"
                or group.leader_replica() is not leader
            ):
                raise ClusterError(
                    f"shard {shard} leadership changed mid-copy; "
                    "migration aborted"
                )

        copied = yield from self._copy(leader.engine, still_leading)
        for member in self.members:
            node = db.repl_net.nodes.get(member)
            if node is not None and not node.alive:
                raise ClusterError(
                    f"shard {shard} migration member {member!r} is down; "
                    "migration aborted"
                )
        generation = db._group_generation[shard] + 1
        new_group = db._build_group(
            shard, self.members, generation,
            start_index=start_index, preload=copied,
        )
        db._group_generation[shard] = generation
        old_group = db._groups[shard]
        db._groups[shard] = new_group
        db.directory.assign_group(shard, tuple(self.members))
        old_group.stop()
        return sum(len(rows) for rows in copied.values())


class _ShardRound:
    """The :func:`~repro.transactions.commit.two_phase` transport over
    unreplicated shards: a round is one ``rtt_ms`` charge, then each
    shard's engine call (the shards' XA interface)."""

    def __init__(self, db: "ShardedDatabase", txn: DistributedTransaction) -> None:
        self.env, self.rtt_ms, self.txn = db.env, db.rtt_ms, txn

    def prepare(self, shards: list[int]) -> Generator:
        """Each shard's vote is a synchronous log flush; the first failure
        ends the round, and the shards after it are never asked."""
        txn = self.txn
        yield self.env.timeout(self.rtt_ms)
        votes: list[Any] = [None] * len(shards)
        for position, index in enumerate(shards):
            try:
                yield from txn.engines[index].prepare(txn.branches[index])
            except Exception as exc:
                votes[position] = exc
                break
            votes[position] = PREPARED
        return votes

    def decide(self, shards: list[int], commit: bool) -> Generator:
        txn = self.txn
        yield self.env.timeout(self.rtt_ms)
        errors: list[Optional[Exception]] = []
        for index in shards:
            engine, branch = txn.engines[index], txn.branches[index]
            try:
                if commit:
                    engine.commit_prepared(branch)
                elif branch.status is TxnStatus.PREPARED:
                    engine.abort_prepared(branch)
                else:
                    engine.abort(branch)
            except Exception as exc:
                errors.append(exc)
            else:
                errors.append(None)
        return errors


class _GroupRound:
    """The :func:`~repro.transactions.commit.two_phase` transport over
    replica groups: both phases are log entries.

    A round is one round trip, then every group's entry is proposed
    (:meth:`ReplicaGroup.start`) before any ack is awaited, and the acks
    are collected in shard order.  The ``prepare`` entries are pinned to
    the leader each branch executed on; the idempotent ``decide`` entries
    are re-proposed through whichever leader emerges until they land,
    because a torn decision is an atomicity violation the conservation
    oracle would catch.  Read-only branches hold no writes to replicate;
    they are settled locally in the decision round.
    """

    def __init__(self, db: "ShardedDatabase", txn: DistributedTransaction) -> None:
        self.db, self.txn = db, txn
        self.gid = ("repl", db.env.next_id("repl-gid"))
        #: shards whose ``prepare`` entry was proposed: they get a ``decide``
        self.proposed: list[int] = []

    def prepare(self, shards: list[int]) -> Generator:
        """A failed round (a deposed leader, a ``NotLeader``/``NoLeader``
        proposal, a failed ack) is every write shard's vote."""
        db, txn = self.db, self.txn
        writing = [index for index in shards if txn.branches[index].writes]
        started: list[tuple[int, Proposal]] = []
        try:
            if writing:
                yield db.env.timeout(db.rtt_ms)
            for index in writing:
                engine = txn.engines[index]
                db._check_replica(txn, index)
                writes = engine.stage_replicated(
                    txn.branches[index], self.gid, prepared=True
                )
                try:
                    started.append((index, db._groups[index].start(
                        ("prepare", self.gid, writes), replica=txn.replicas[index],
                    )))
                except (NotLeader, NoLeader):
                    engine.discard_replicated(self.gid)
                    raise
            yield from db._collect(started)
            failure = None
        except Exception as exc:
            failure = exc
        self.proposed = [index for index, _ in started]
        return [
            failure if failure is not None and index in writing else PREPARED
            for index in shards
        ]

    def decide(self, shards: list[int], commit: bool) -> Generator:
        db, txn = self.db, self.txn
        # Mark the outcome first so a concurrent abort() won't touch staged
        # branches while the decides are in flight.  An abort decision is
        # always safe while no commit decision replicated: shards whose
        # prepare did (or will) land see the abort; shards where it never
        # landed settle by truncation-discard or crash.
        txn.status = "uncertain" if commit else "aborted"
        proposed = [index for index in shards if index in self.proposed]
        if commit or proposed:  # an abort no group must log settles locally
            yield db.env.timeout(db.rtt_ms)
        decides = [
            (index, db._groups[index].start(
                ("decide", self.gid, commit), retry=True, timeout=_DECIDE_TIMEOUT_MS,
            ))
            for index in proposed
        ]
        errors: dict[int, Exception] = {}
        for index in shards:
            if index in proposed:
                continue
            engine, branch = txn.engines[index], txn.branches[index]
            try:
                if commit:
                    yield from engine.commit(branch)
                else:
                    engine.abort(branch)
            except Exception as exc:
                errors[index] = exc
        try:
            txn.applied.update((yield from db._collect(decides, errors)))
        except Interrupted:
            # The coordinator's node crashed, but the decision is made:
            # a detached process keeps collecting the decides, or the
            # shards they have not reached stay prepared and locked.
            db.env.process(
                db._collect(decides, {}), label=f"{db.name}.decide:{self.gid}"
            )
            raise
        return [errors.get(index) for index in shards]


class ShardedDatabase:
    """N logical shards placed on nodes behind a routing layer with 2PC.

    The API mirrors :class:`~repro.db.engine.Database`; rows are routed by
    primary key.  ``commit`` runs one-phase for single-shard transactions
    and prepare/commit over every touched shard otherwise, charging
    ``rtt_ms`` per round — one for a local commit, one for all prepares
    plus one for all decisions under 2PC — so the extra round trip is
    visible.
    """

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
        if replication is None:
            if num_nodes is not None and not (0 < num_nodes <= num_shards):
                raise ValueError("num_nodes must be in [1, num_shards]")
        elif num_nodes is not None and num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.env = env
        self.name = name
        self.num_shards = num_shards
        self.rtt_ms = rtt_ms
        self.service_ms = service_ms
        self.node_concurrency = node_concurrency
        self.copy_ms_per_row = copy_ms_per_row
        self.drain_timeout_ms = drain_timeout_ms
        self.replication = replication
        if replication is None:
            self.shards = [
                Database(env, name=f"{name}/shard{i}") for i in range(num_shards)
            ]
        self.stats = ShardedDbStats()
        # -- cluster placement ------------------------------------------------
        self.directory = PlacementDirectory(env)
        self.router = Router(ModHashRing(num_shards), self.directory)
        self.shard_stats = ShardStats(num_shards)
        self.migration_stats = MigrationStats()
        self.nodes: list[str] = []
        self._gates: dict[str, Semaphore] = {}
        count = num_nodes if num_nodes is not None else num_shards
        for i in range(count):
            self.add_node()
        self._schema: list[tuple[str, tuple]] = []
        if replication is None:
            for shard in range(num_shards):
                self.directory.assign(shard, self.nodes[shard % len(self.nodes)])
        else:
            if len(self.nodes) < replication.factor:
                raise ValueError(
                    f"replication factor {replication.factor} needs at "
                    f"least {replication.factor} nodes, have {len(self.nodes)}"
                )
            from repro.net import Network

            #: replica traffic runs over its own network so the replication
            #: RPCs share fault injection (partitions, crashes) with the
            #: chaos layer without disturbing the unreplicated model
            self.repl_net = Network(env)
            self._groups: dict[int, Any] = {}
            self._group_generation: dict[int, int] = {}
            for shard in range(num_shards):
                members = [
                    self.nodes[(shard + j) % len(self.nodes)]
                    for j in range(replication.factor)
                ]
                group = self._build_group(shard, members, 0)
                self._groups[shard] = group
                self._group_generation[shard] = 0
                self.directory.assign_group(shard, tuple(members))
                self.directory.assign(shard, members[0])
            self.shards = _LeaderView(self)
        self._active_branches: dict[int, int] = {}
        self._drain_waiters: dict[int, Future] = {}
        self._barriers: dict[int, Future] = {}
        self._mover = _ShardedMover(self)

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

    def _build_group(
        self,
        shard: int,
        members: list[str],
        generation: int,
        start_index: int = 0,
        preload: Optional[dict[str, list]] = None,
    ) -> Any:
        """One shard's replica group: fresh engines on ``members``, schema
        replayed, optionally preloaded with migrated rows.  The service
        name carries a generation counter so a rebuilt group never
        collides with its retired predecessor's RPC ports."""
        from repro.replication.group import ReplicaGroup

        group = ReplicaGroup(
            self.env,
            self.repl_net,
            name=f"{self.name}/s{shard}",
            config=self.replication,
            engine_factory=lambda node_name: self.new_engine(
                f"{self.name}/shard{shard}@{node_name}", preload
            ),
            node_names=list(members),
            service=f"{self.name}-s{shard}g{generation}",
            start_index=start_index,
        )
        group._on_leader_ext = (
            lambda node, s=shard, g=group: self._on_group_leader(s, g, node)
        )
        return group

    def new_engine(
        self, name: str, rows_by_table: Optional[dict[str, list[dict]]] = None
    ) -> Database:
        """A fresh shard engine: this database's schema replayed, then
        ``rows_by_table`` loaded (a migrated or restored shard's rows)."""
        engine = Database(self.env, name=name)
        for kind, args in self._schema:
            if kind == "table":
                engine.create_table(*args)
            else:
                engine.create_index(*args)
        for table, rows in (rows_by_table or {}).items():
            if rows:
                engine.load(table, rows)
        return engine

    def _on_group_leader(self, shard: int, group: Any, node: str) -> None:
        """A replica group elected a new leader: flip the shard's owner.

        Callbacks from retired (pre-migration) groups are ignored — only
        the group currently backing the shard routes traffic."""
        if self._groups.get(shard) is not group:
            return
        self.directory.set_group_leader(shard, node)

    def replica_group(self, shard: int) -> Any:
        """The replica group currently backing ``shard`` (replicated mode)."""
        if self.replication is None:
            raise ClusterError(f"{self.name} is not replicated")
        return self._groups[shard]

    def _plan_group_members(
        self, dest: str, dest_nodes: Optional[list[str]]
    ) -> list[str]:
        factor = self.replication.factor
        if dest_nodes is not None:
            members = list(dest_nodes)
            if not members or members[0] != dest:
                raise ClusterError(
                    "dest_nodes must start with the migration destination "
                    "(the new group's bootstrap leader)"
                )
        else:
            members = [dest]
            for node in self.nodes:
                if len(members) == factor:
                    break
                if node != dest:
                    members.append(node)
        if len(members) != factor or len(set(members)) != len(members):
            raise ClusterError(
                f"replica group needs {factor} distinct nodes, got {members}"
            )
        for node in members:
            if node not in self.nodes:
                raise ClusterError(f"unknown node {node!r}")
        return members

    def migrate_shard(
        self,
        shard: int,
        dest: str,
        dest_nodes: Optional[list[str]] = None,
    ) -> Generator:
        """Live-migrate one shard to ``dest`` (drain → copy → flip).

        Under replication the whole replica group moves atomically:
        ``dest`` becomes the new group's bootstrap leader and
        ``dest_nodes`` (default: ``dest`` plus enough existing nodes)
        names the full new membership.  The old group is retired at the
        flip; the new log starts at the old leader's applied index so
        session read-your-writes tokens stay monotone across the move.
        """
        if not (0 <= shard < len(self.shards)):
            raise ClusterError(f"unknown shard {shard}")
        if dest not in self.nodes:
            raise ClusterError(f"unknown node {dest!r}")
        if self.replication is None:
            if dest_nodes is not None:
                raise ClusterError("dest_nodes requires replication")
            rows = yield from _run_migration(
                self.env, self.directory, self._mover, shard, dest,
                self.migration_stats,
            )
            return rows
        members = self._plan_group_members(dest, dest_nodes)
        mover = _ReplicatedMover(self, members)
        rows = yield from _run_migration(
            self.env, self.directory, mover, shard, dest, self.migration_stats
        )
        return rows

    # -- schema -----------------------------------------------------------------

    def _schema_engines(self) -> Generator:
        """Every engine a DDL statement must reach (all replicas, if any)."""
        if self.replication is not None:
            for shard in range(self.num_shards):
                yield from self._groups[shard].engines()
        else:
            yield from self.shards

    def create_table(self, name: str, primary_key: str = "id") -> None:
        self._schema.append(("table", (name, primary_key)))
        for engine in self._schema_engines():
            engine.create_table(name, primary_key)

    def create_index(self, table: str, column: str, ordered: bool = False) -> None:
        self._schema.append(("index", (table, column, ordered)))
        for engine in self._schema_engines():
            engine.create_index(table, column, ordered=ordered)

    def load(self, table: str, rows: list[dict]) -> None:
        buckets: dict[int, list[dict]] = {}
        for row in rows:
            primary_key = self.shards[0]._table(table).primary_key
            buckets.setdefault(self.router.shard_of(row[primary_key]), []).append(row)
        for index, shard_rows in buckets.items():
            if self.replication is not None:
                # Setup-time load sits below the log: every replica gets
                # the same rows directly, like a restored base snapshot.
                for engine in self._groups[index].engines():
                    engine.load(table, shard_rows)
            else:
                self.shards[index].load(table, shard_rows)

    # -- transactions --------------------------------------------------------------

    def begin(self, isolation: IsolationLevel = IsolationLevel.SERIALIZABLE) -> DistributedTransaction:
        return DistributedTransaction(isolation=isolation)

    def _branch(self, txn: DistributedTransaction, key: Hashable) -> Generator:
        """Resolve the shard for ``key`` and open its branch if needed."""
        shard = self.router.shard_of(key)
        yield from self._open_branch(txn, shard)
        return shard

    def _open_branch(self, txn: DistributedTransaction, shard: int) -> Generator:
        """Open ``txn``'s branch on ``shard`` unless it already has one.

        Opening a branch on a migrating shard waits out the migration bar
        (drain + copy); operations on branches opened *before* the bar
        proceed, which is what lets in-flight transactions drain.
        """
        if shard not in txn.branches:
            while True:
                while shard in self._barriers:
                    yield self._barriers[shard]
                if self.replication is None:
                    txn.branches[shard] = self.shards[shard].begin(txn.isolation)
                    txn.engines[shard] = self.shards[shard]
                    break
                leader = yield from self._groups[shard].wait_leader()
                if shard in self._barriers:
                    # a migration raised its bar while we waited for a
                    # leader — wait it out rather than dodging the drain
                    continue
                txn.branches[shard] = leader.engine.begin(txn.isolation)
                txn.engines[shard] = leader.engine
                txn.replicas[shard] = leader
                break
            self._active_branches[shard] = self._active_branches.get(shard, 0) + 1
        elif self.replication is not None:
            self._check_replica(txn, shard)

    def _check_replica(self, txn: DistributedTransaction, shard: int) -> None:
        """Refuse further work on a branch whose leader was deposed.

        The branch's buffered state lives on one specific replica's
        engine; once that replica stops leading (crash, election) the
        transaction cannot commit there, so fail fast and definitely."""
        replica = txn.replicas.get(shard)
        if replica is None:
            return
        if (
            not replica.node.alive
            or replica.role != "leader"
            or replica.engine is not txn.engines[shard]
        ):
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
        if any(route.forwarded for route in routes):
            yield self.env.timeout(self.rtt_ms)
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
        shard = yield from self._branch(txn, key)
        yield from self._round([shard])
        return (yield from txn.engines[shard].get(txn.branches[shard], table, key))

    def put(self, txn: DistributedTransaction, table: str, key: Hashable, row: dict) -> Generator:
        shard = yield from self._branch(txn, key)
        yield from self._round([shard])
        yield from txn.engines[shard].put(txn.branches[shard], table, key, row)

    def insert(self, txn: DistributedTransaction, table: str, row: dict) -> Generator:
        primary_key = self.shards[0]._table(table).primary_key
        shard = yield from self._branch(txn, row[primary_key])
        yield from self._round([shard])
        yield from txn.engines[shard].insert(txn.branches[shard], table, row)

    def update(self, txn: DistributedTransaction, table: str, key: Hashable, changes: dict) -> Generator:
        shard = yield from self._branch(txn, key)
        yield from self._round([shard])
        return (yield from txn.engines[shard].update(txn.branches[shard], table, key, changes))

    def delete(self, txn: DistributedTransaction, table: str, key: Hashable) -> Generator:
        shard = yield from self._branch(txn, key)
        yield from self._round([shard])
        yield from txn.engines[shard].delete(txn.branches[shard], table, key)

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
        by_shard = by_partition(refs, self.router.shard_of)
        pending = list(by_shard)
        for shard in pending:
            yield from self._open_branch(txn, shard)
        rows: dict[tuple[str, Hashable], Optional[dict]] = {}
        while pending:
            yield from self._round(pending)
            for done, shard in enumerate(pending, 1):
                asked = self.env.now
                fetched = yield from txn.engines[shard].lock_and_fetch(
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

        A one-phase commit is one round trip (:meth:`_commit_replicated`
        under replication).  2PC is :func:`~repro.transactions.commit.two_phase`
        over :class:`_ShardRound` or, under replication, :class:`_GroupRound`:
        two rounds, one carrying every shard's prepare and the next every
        decision.  Once the locks are held the shards are independent, so
        neither round waits for one shard before messaging the next.  A
        commit decision that did not reach every shard leaves
        ``txn.status == "uncertain"`` and raises its first delivery error.

        ``writes`` — ``{(table, key): row, or None to delete}`` over keys
        :meth:`lock_and_fetch` locked exclusively — travel inside each
        shard's commit message (the one-phase commit, the prepare, or the
        replicated stage), so buffering them costs no hop of its own.
        """
        if writes:
            shard_of = self.router.shard_of
            for (table, key), row in writes.items():
                shard = shard_of(key)
                if self.replication is not None:
                    # a deposed leader's lock table is gone: fail definitely
                    self._check_replica(txn, shard)
                txn.engines[shard].buffer_write(txn.branches[shard], table, key, row)
        if not txn.branches:
            txn.status = "committed"
            return
        try:
            if not txn.is_distributed:
                if self.replication is not None:
                    yield from self._commit_replicated(txn)
                    return
                (index,) = txn.branches
                yield self.env.timeout(self.rtt_ms)
                yield from txn.engines[index].commit(txn.branches[index])
                txn.status = "committed"
                self.stats.single_shard_commits += 1
                return
            rounds = _ShardRound if self.replication is None else _GroupRound
            committed, error = yield from two_phase(
                rounds(self, txn), txn.shards_touched
            )
            if not committed:
                txn.status = "aborted"
                self.stats.distributed_aborts += 1
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

    def _commit_replicated(self, txn: DistributedTransaction) -> Generator:
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
        engine = txn.engines[index]
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

    def _collect(
        self,
        started: list[tuple[int, Proposal]],
        errors: Optional[dict[int, Exception]] = None,
    ) -> Generator:
        """Await started proposals in shard order, inside the calling
        process; returns ``{shard: applied log index}``.  An ack that
        landed while an earlier one was awaited is taken without an
        event; anything else gets :meth:`ReplicaGroup.wait`'s full
        discipline on the proposal's own deadline.  The first failed wait
        raises, unless ``errors`` is given: then each shard's failure is
        recorded there and the rest are still awaited."""
        applied: dict[int, int] = {}
        for index, proposal in started:
            ack = proposal.ack
            if ack is not None and ack.done:
                status, value = ack.result()
                if status == "ok":
                    applied[index] = value
                    continue
            try:
                applied[index] = yield from self._groups[index].wait(proposal)
            except (ReplicationError, FencedOut) as exc:
                if errors is None:
                    raise
                errors[index] = exc
        return applied

    def abort(self, txn: DistributedTransaction) -> None:
        if txn.status != "active":
            return
        for index, branch in txn.branches.items():
            txn.engines[index].abort(branch)
        txn.status = "aborted"
        self._close_branches(txn)

    # -- helpers --------------------------------------------------------------------

    def owner_of(self, key: Hashable) -> str:
        """The node currently owning ``key``'s shard (tests, scenarios)."""
        return self.directory.owner_of(self.router.shard_of(key))

    def read_latest(self, table: str, key: Hashable) -> Optional[dict]:
        return self.shards[self.router.shard_of(key)].read_latest(table, key)

    def all_rows(self, table: str) -> list[dict]:
        rows: list[dict] = []
        for shard in self.shards:
            rows.extend(shard.all_rows(table))
        return rows
