"""The four runtimes under test, behind one chaos-scenario interface.

Each scenario wires an application (from :mod:`repro.apps`) to a network
whose nodes the nemesis may crash and partition, declares a default
:class:`~repro.chaos.config.ChaosConfig` budget, classifies the
exceptions its operations raise into Jepsen outcomes (``fail`` = the
effect definitely did not happen, ``info`` = unknown), and names the
oracles entitled to judge it.

``broken=True`` selects the intentionally unsound configuration — the
actor bank in ``plain`` mode, whose two independent actor calls per
transfer are atomic per actor but not across them (§4.2's default).  The
chaos harness must find and shrink that bug; it is the end-to-end test
that the detector detects.  Scenarios without such a control (dataflow,
FaaS) refuse ``broken=True`` rather than run their sound configuration.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.actors import ActorError, CommitUncertain, TransactionFailed
from repro.apps import ActorBank, FaasBank, MicroserviceShop, TxnDataflowBank
from repro.apps.core import AppFailure, AppUncertain
from repro.apps.core.binders import MicroserviceBinder, ShardedDbBinder
from repro.apps.invoicing import invoicing_spec
from repro.apps.ledger import ledger_spec
from repro.chaos.config import ChaosConfig
from repro.cluster import ClusterError
from repro.db import Database, IsolationLevel, ShardedDatabase, TxnStatus
from repro.db.errors import TransactionAborted
from repro.flow import AdmissionController, PRIORITY_LOW, RetryBudget
from repro.chaos.oracles import (
    ConservationOracle,
    Oracle,
    SagaAtomicityOracle,
    SnapshotAuditOracle,
    TransferExactlyOnceOracle,
)
from repro.dataflow import TxnAbort
from repro.faas.workflows import WorkflowAborted
from repro.messaging import RpcError, RpcRejected, RpcRemoteError, RpcTimeout
from repro.messaging.idempotency import IdempotencyStore
from repro.messaging.rpc import RpcClient, RpcServer
from repro.net import Network, NodeCrashed
from repro.replication import (
    FencedOut,
    NoLeader,
    NotLeader,
    ReplicaUnavailable,
    ReplicationConfig,
)
from repro.sim import Environment, Interrupted
from repro.workloads import MarketplaceWorkload, TransferWorkload
from repro.workloads.invoicing import InvoicingWorkload


class Scenario:
    """One runtime under chaos: workload, faults surface, oracles."""

    name = "scenario"
    kind = "transfer"
    op_timeout = 2000.0
    audit_interval: Optional[float] = None
    default_config = ChaosConfig()
    #: whether ``broken=True`` selects an unsound control; a scenario
    #: without one sets ``False`` and :func:`build_scenario` refuses it
    has_control = True

    def __init__(self, env: Environment, broken: bool = False) -> None:
        self.env = env
        self.broken = broken
        self.net: Optional[Network] = None

    def setup(self) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover

    def ops(self) -> list:
        raise NotImplementedError

    def execute(self, op) -> Generator:
        raise NotImplementedError

    #: Optional: a generator returning the audit value, or None.
    audit: Optional[Callable[[], Generator]] = None

    def final_state(self) -> Any:
        raise NotImplementedError

    def oracles(self) -> list[Oracle]:
        raise NotImplementedError

    def classify(self, exc: Exception) -> str:
        """Map an operation exception to ``fail`` or ``info``."""
        raise NotImplementedError


class MicroserviceScenario(Scenario):
    """Saga-coordinated checkouts across stock/payment/orders services."""

    name = "microservice"
    kind = "checkout"
    default_config = ChaosConfig(
        crashable=("stock", "payment", "orders"),
        partitionable=("edge-client", "stock", "payment", "orders"),
        loss_rate=(0.03, 0.15),
        duplication_rate=(0.03, 0.15),
    )

    def __init__(self, env: Environment, broken: bool = False) -> None:
        super().__init__(env, broken)
        self.workload = MarketplaceWorkload(
            num_products=6, initial_stock=200, payment_failure_rate=0.1
        )
        mode = "none" if broken else "saga"
        self.shop = MicroserviceShop(
            env, self.workload, mode=mode,
            request_timeout=150.0, compensation_retries=10,
        )
        self.net = self.shop.app.net

    def setup(self) -> Generator:
        return
        yield  # pragma: no cover

    def ops(self) -> list:
        return list(self.workload.operations(self.env.stream("workload"), 18))

    def execute(self, op) -> Generator:
        yield from self.shop.execute(op)
        return True

    def final_state(self) -> Any:
        return self.shop.final_state()

    def oracles(self) -> list[Oracle]:
        return [SagaAtomicityOracle(self.workload, kind=self.kind)]

    def classify(self, exc: Exception) -> str:
        # The saga surface: a compensated (or business-declined) checkout
        # raises RpcRemoteError — the failure is definite.  Anything else
        # (a timeout escaping the uncoordinated mode) is unknown.
        if isinstance(exc, RpcRemoteError):
            return "fail"
        return "info"


class ActorScenario(Scenario):
    """Transfers across virtual actors via Orleans-style 2PC.

    Broken mode drops the coordinator: withdraw and deposit become two
    independent at-most-once actor calls with client retries.
    """

    name = "actor"
    default_config = ChaosConfig(
        crashable=("silo-0", "silo-1", "silo-2"),
        partitionable=(),
        downtime=(30.0, 90.0),
        loss_rate=(0.03, 0.15),
        duplication_rate=(0.03, 0.15),
    )

    def __init__(self, env: Environment, broken: bool = False) -> None:
        super().__init__(env, broken)
        self.workload = TransferWorkload(
            num_accounts=12, initial_balance=100, amount=10, theta=0.5
        )
        mode = "plain" if broken else "transaction"
        self.bank = ActorBank(env, self.workload, mode=mode, num_silos=3)
        self.net = self.bank.runtime.net
        self._ops: dict[str, Any] = {}

    def setup(self) -> Generator:
        yield from self.bank.setup()

    def ops(self) -> list:
        ops = list(self.workload.operations(self.env.stream("workload"), 18))
        self._ops = {op.op_id: op for op in ops}
        return ops

    def execute(self, op) -> Generator:
        yield from self.bank.execute(op)
        return True

    def final_state(self) -> Any:
        return self.bank.balances()

    def oracles(self) -> list[Oracle]:
        initial = {
            row["id"]: row["balance"] for row in self.workload.initial_rows()
        }
        return [
            ConservationOracle("balance", self.workload.expected_total),
            TransferExactlyOnceOracle(initial, self._ops, kind=self.kind),
        ]

    def classify(self, exc: Exception) -> str:
        if isinstance(exc, CommitUncertain):
            return "info"  # the 2PC uncertainty window
        if isinstance(exc, TransactionFailed):
            return "fail"  # aborted before the commit decision
        # Plain-mode surface (ActorError, RpcTimeout): at-most-once calls
        # may have applied without acknowledging.
        return "info"


class DataflowScenario(Scenario):
    """Transfers on the Styx-like transactional dataflow engine.

    The engine is bound to a single simulated node: crashing the node
    loses all volatile engine state, restarting it runs deterministic
    checkpoint-restore + input-log replay.  Only crashes are in budget —
    the engine's internals do not traverse the message network.
    """

    name = "dataflow"
    has_control = False
    audit_interval = 70.0
    default_config = ChaosConfig(
        fault_classes=("crash",),
        crashable=("dataflow-engine",),
        episodes=3,
        downtime=(30.0, 90.0),
    )

    def __init__(self, env: Environment, broken: bool = False) -> None:
        super().__init__(env, broken)
        self.workload = TransferWorkload(
            num_accounts=12, initial_balance=100, amount=10, theta=0.5
        )
        self.bank = TxnDataflowBank(
            env, self.workload, checkpoint_every=3, epoch_interval=5.0
        )
        self.net = Network(env)
        self.node = self.net.add_node("dataflow-engine")
        bind_engine_to_node(env, self.node, self.bank.engine)

    def setup(self) -> Generator:
        self.bank.start()
        yield from self.bank.setup()

    def ops(self) -> list:
        return list(self.workload.operations(self.env.stream("workload"), 18))

    def execute(self, op) -> Generator:
        result = yield from self.bank.execute(op)
        return result

    def audit(self) -> Generator:
        total = yield from self.bank.audit()
        return total

    def final_state(self) -> Any:
        return self.bank.balances()

    def oracles(self) -> list[Oracle]:
        return [
            ConservationOracle("balance", self.workload.expected_total),
            SnapshotAuditOracle(self.workload.expected_total),
        ]

    def classify(self, exc: Exception) -> str:
        if isinstance(exc, TxnAbort):
            return "fail"  # deterministic abort: never installed
        return "info"


class FaasScenario(Scenario):
    """Transfers as Beldi-style OCC workflows on crashable workers.

    Workflow attempts run as processes on worker nodes; a crash kills the
    attempt mid-flight and the supervisor re-runs it on a surviving
    worker **with the same workflow id** — the §4.2 exactly-once recipe
    (OCC commit + result dedup) is what the oracle then audits.
    """

    name = "faas"
    has_control = False
    audit_interval = 70.0
    default_config = ChaosConfig(
        fault_classes=("crash",),
        crashable=("worker-0", "worker-1"),
        episodes=3,
        downtime=(30.0, 90.0),
    )

    def __init__(self, env: Environment, broken: bool = False) -> None:
        super().__init__(env, broken)
        self.workload = TransferWorkload(
            num_accounts=12, initial_balance=100, amount=10, theta=0.5
        )
        self.bank = FaasBank(env, self.workload, mode="workflow")
        self.bank.workflows.register("audit", self._audit_workflow)
        self.net = Network(env)
        self.workers = [self.net.add_node(f"worker-{i}") for i in range(2)]
        self._audits = 0

    @staticmethod
    def _audit_workflow(ctx, account_ids):
        total = 0
        for account in account_ids:
            balance = yield from ctx.read(account, 0)
            total += balance
        return total

    def setup(self) -> Generator:
        yield from self.bank.setup()

    def ops(self) -> list:
        return list(self.workload.operations(self.env.stream("workload"), 18))

    def _on_worker(self, body: Callable[[], Generator]) -> Generator:
        """Run ``body`` on an alive worker, re-running it after crashes.

        Safe only for idempotent bodies (workflow ids dedup re-runs).
        """
        while True:
            worker = next((w for w in self.workers if w.alive), None)
            if worker is None:
                yield self.env.timeout(10.0)
                continue
            try:
                attempt = worker.spawn(body(), label="faas-attempt")
                result = yield attempt
                return result
            except (Interrupted, NodeCrashed):
                yield self.env.timeout(5.0)

    def execute(self, op) -> Generator:
        result = yield from self._on_worker(lambda: self.bank.execute(op))
        return result

    def audit(self) -> Generator:
        self._audits += 1
        account_ids = [row["id"] for row in self.workload.initial_rows()]
        total = yield from self._on_worker(
            lambda: self.bank.workflows.run(
                "audit", account_ids, workflow_id=f"audit-{self._audits:03d}"
            )
        )
        return total

    def final_state(self) -> Any:
        return self.bank.balances()

    def oracles(self) -> list[Oracle]:
        return [
            ConservationOracle("balance", self.workload.expected_total),
            SnapshotAuditOracle(self.workload.expected_total),
        ]

    def classify(self, exc: Exception) -> str:
        if isinstance(exc, WorkflowAborted):
            return "fail"  # OCC retries exhausted: nothing committed
        return "info"


class NodeUnavailable(Exception):
    """The key's owning node is down or unreachable from the client edge."""


class ClusterScenario(Scenario):
    """Transfers on the sharded DB while shards live-migrate between nodes.

    The scenario for ``repro.cluster``: a seeded migration driver keeps
    moving shards between the database's serving nodes (drain → copy →
    flip) while the nemesis crashes those nodes and partitions them from
    the client edge.  Shard state lives on durable storage — a crash
    makes the owner *unavailable* (operations routed to it fail fast),
    never lossy — so the oracles are judging the migration protocol:
    no transfer may be torn by a rebalance racing the faults.

    Broken mode flips ownership without the drain/bar phase: transactions
    still in flight keep writing to the source engine after its rows were
    copied, so their commits land in an engine nobody reads anymore — the
    classic lost-update migration bug the harness must catch.
    """

    name = "cluster"
    default_config = ChaosConfig(
        fault_classes=("crash", "partition"),
        crashable=("bank/node0", "bank/node1", "bank/node2", "bank/node3"),
        partitionable=(
            "bank-client",
            "bank/node0", "bank/node1", "bank/node2", "bank/node3",
        ),
        downtime=(30.0, 90.0),
    )

    def __init__(self, env: Environment, broken: bool = False) -> None:
        super().__init__(env, broken)
        self.workload = TransferWorkload(
            num_accounts=12, initial_balance=100, amount=10, theta=0.5
        )
        self.db = ShardedDatabase(
            env, num_shards=8, num_nodes=4, name="bank",
            rtt_ms=2.0, drain_timeout_ms=250.0,
        )
        self.db.create_table("accounts", primary_key="id")
        self.net = Network(env)
        self.net.add_node("bank-client")
        for node in self.db.nodes:
            self.net.add_node(node)
        self._ops: dict[str, Any] = {}

    def setup(self) -> Generator:
        self.db.load("accounts", self.workload.initial_rows())
        self.env.process(
            self._migration_driver(), label="cluster.migration-driver"
        )
        return
        yield  # pragma: no cover

    def _migration_driver(self) -> Generator:
        """Live-migrate a random shard toward a random alive node, forever.

        Plays the rebalancer's role with a seeded schedule, so rebalances
        deterministically overlap whatever faults the nemesis injected.
        """
        rng = self.env.stream("cluster-migrations")
        while True:
            yield self.env.timeout(30.0 + rng.random() * 30.0)
            shard = rng.randrange(len(self.db.shards))
            alive = [n for n in self.db.nodes if self.net.node(n).alive]
            if not alive:
                continue
            dest = rng.choice(alive)
            try:
                if self.broken:
                    yield from self._flip_without_drain(shard, dest)
                else:
                    yield from self.db.migrate_shard(shard, dest)
            except ClusterError:
                continue  # raced another migration, same owner, or no drain

    def _flip_without_drain(self, shard: int, dest: str) -> Generator:
        """The intentionally unsound migration: no quiesce, stale snapshot.

        Snapshots the shard, streams the copy while transactions keep
        committing against the source engine, then flips to the snapshot:
        every write that landed during the copy window is silently lost.
        """
        db = self.db
        db.directory.begin_migration(shard, dest)
        try:
            old_engine = db.shards[shard]
            tables = [args for kind, args in db._schema if kind == "table"]
            snapshot = {name: old_engine.all_rows(name) for name, _pk in tables}
            yield self.env.timeout(25.0)  # the copy window — writes continue
            db.shards[shard] = db.new_engine(f"{db.name}/shard{shard}", snapshot)
        except BaseException:
            db.directory.abort_migration(shard)
            raise
        db.directory.complete_migration(shard)

    def _check_route(self, key: str) -> None:
        owner = self.db.owner_of(key)
        node = self.net.node(owner)
        if not node.alive or self.net.is_partitioned("bank-client", owner):
            raise NodeUnavailable(owner)

    def ops(self) -> list:
        ops = list(self.workload.operations(self.env.stream("workload"), 18))
        self._ops = {op.op_id: op for op in ops}
        return ops

    def execute(self, op) -> Generator:
        txn = self.db.begin(IsolationLevel.SERIALIZABLE)
        try:
            self._check_route(op.src)
            src = yield from self.db.get(txn, "accounts", op.src)
            self._check_route(op.dst)
            dst = yield from self.db.get(txn, "accounts", op.dst)
            yield from self.db.put(txn, "accounts", op.src,
                                   {**src, "balance": src["balance"] - op.amount})
            yield from self.db.put(txn, "accounts", op.dst,
                                   {**dst, "balance": dst["balance"] + op.amount})
            self._check_route(op.src)
            yield from self.db.commit(txn)
            return True
        finally:
            if txn.status == "active":
                self.db.abort(txn)

    def final_state(self) -> Any:
        return self.db.all_rows("accounts")

    def oracles(self) -> list[Oracle]:
        initial = {
            row["id"]: row["balance"] for row in self.workload.initial_rows()
        }
        return [
            ConservationOracle("balance", self.workload.expected_total),
            TransferExactlyOnceOracle(initial, self._ops, kind=self.kind),
        ]

    def classify(self, exc: Exception) -> str:
        # Aborts are definite (nothing prepared survives an abort), and a
        # route check fails before the commit decision ever went out.
        if isinstance(exc, (TransactionAborted, NodeUnavailable, ClusterError)):
            return "fail"
        return "info"


class ReplicationScenario(Scenario):
    """Transfers on quorum-replicated shards under leader-targeted chaos.

    Two shards, each a factor-3 replica group over three nodes.  The
    nemesis gets the full availability gauntlet: ``kill_leader`` episodes
    crash whichever node *currently* leads a group (resolved at fire
    time, so re-elections move the target), plain crashes take out
    followers too, and partitions split the replica set — including the
    minority-leader case where a deposed leader keeps serving until
    fenced.

    Sound mode commits through the replicated log: quorum
    acknowledgements, epoch-fenced applies, pinned proposals (a deposed
    leader yields a definite ``NotLeader``, never a silent re-route).
    Broken mode (``fencing=False``) is the classic unfenced primary:
    leaders acknowledge after *local* apply without waiting for a
    quorum, and a deposed leader ignores higher terms — so a minority
    leader keeps acking writes that the healed group's log then
    overwrites.  Those acknowledged-then-lost transfers are what the
    exactly-once/conservation oracles must catch.
    """

    name = "replication"
    default_config = ChaosConfig(
        fault_classes=("kill_leader", "crash", "partition"),
        crashable=("bank/node0", "bank/node1", "bank/node2"),
        partitionable=("bank/node0", "bank/node1", "bank/node2"),
        leader_groups=("shard0", "shard1"),
        downtime=(40.0, 100.0),
    )

    def __init__(self, env: Environment, broken: bool = False) -> None:
        super().__init__(env, broken)
        self.workload = TransferWorkload(
            num_accounts=12, initial_balance=100, amount=10, theta=0.5
        )
        self.db = ShardedDatabase(
            env, num_shards=2, num_nodes=3, name="bank",
            rtt_ms=1.0, drain_timeout_ms=250.0,
            replication=ReplicationConfig(factor=3, fencing=not broken),
        )
        self.db.create_table("accounts", primary_key="id")
        self.net = self.db.repl_net
        self._ops: dict[str, Any] = {}

    def resolve_leader(self, label: str) -> Optional[str]:
        """Map a ``kill_leader`` group label to its current leader node."""
        shard = int(label.removeprefix("shard"))
        return self.db.replica_group(shard).leader_name()

    def setup(self) -> Generator:
        self.db.load("accounts", self.workload.initial_rows())
        return
        yield  # pragma: no cover

    def ops(self) -> list:
        ops = list(self.workload.operations(self.env.stream("workload"), 18))
        self._ops = {op.op_id: op for op in ops}
        return ops

    def execute(self, op) -> Generator:
        txn = self.db.begin(IsolationLevel.SERIALIZABLE)
        try:
            src = yield from self.db.get(txn, "accounts", op.src)
            dst = yield from self.db.get(txn, "accounts", op.dst)
            yield from self.db.put(txn, "accounts", op.src,
                                   {**src, "balance": src["balance"] - op.amount})
            yield from self.db.put(txn, "accounts", op.dst,
                                   {**dst, "balance": dst["balance"] + op.amount})
            yield from self.db.commit(txn)
            return True
        finally:
            # Replicated commits leave status "uncertain"/"aborted" on
            # failure; only a branch that never reached commit is ours to
            # roll back here.
            if txn.status == "active":
                self.db.abort(txn)

    def final_state(self) -> Any:
        return self.db.all_rows("accounts")

    def oracles(self) -> list[Oracle]:
        initial = {
            row["id"]: row["balance"] for row in self.workload.initial_rows()
        }
        return [
            ConservationOracle("balance", self.workload.expected_total),
            TransferExactlyOnceOracle(initial, self._ops, kind=self.kind),
        ]

    def classify(self, exc: Exception) -> str:
        # Definite failures: the engine rolled the branch back
        # (TransactionAborted covers deadlock/conflict), the proposal was
        # refused before reaching any log (NotLeader/NoLeader), or the
        # pinned replica was deposed mid-transaction.  A FencedOut ack,
        # quorum timeout, or any other uncertainty stays unknown — the
        # entry may commit through a later leader.
        if isinstance(
            exc,
            (TransactionAborted, NotLeader, NoLeader,
             ReplicaUnavailable, ClusterError),
        ):
            return "fail"
        return "info"


class OverloadScenario(Scenario):
    """Transfers through a flooded RPC service guarded by ``repro.flow``.

    One stateless service node executes transfers against a durable
    database engine (the engine is *not* bound to the node — crashing the
    service kills in-flight handlers, never committed state, like a pod in
    front of a managed database).  A seeded background flood of
    low-priority read-only queries pushes the service's admission
    controller into shedding while the nemesis crashes and partitions the
    service — overload and partial failure at once, the retry-storm recipe
    of paper §3.

    Sound mode runs the full defense stack: admission control with
    priority classes, an idempotency store consulted *before* admission,
    per-client retry budgets and propagated deadlines.  The oracle
    contract is "no committed work is lost (or duplicated) while
    shedding": sheds on a request's first attempt are definite negatives
    (``fail``), everything uncertain stays ``info``, and the exactly-once
    ledger must balance.

    Broken mode strips the defenses: no admission, no dedup store, and
    eager client-side retries on short timeouts — each timed-out transfer
    is retried blind, so a lost *reply* (or a duplicated request) makes
    the transfer apply twice.  That double-application is the §3.2
    anomaly the harness must detect.
    """

    name = "overload"
    default_config = ChaosConfig(
        fault_classes=("crash", "partition"),
        crashable=("bank-service",),
        partitionable=("load-client", "bank-service"),
        episodes=3,
        downtime=(30.0, 90.0),
        loss_rate=(0.03, 0.1),
        duplication_rate=(0.03, 0.1),
    )

    #: service time per transfer / per background query (virtual ms)
    TRANSFER_MS = 8.0
    QUERY_MS = 6.0

    def __init__(self, env: Environment, broken: bool = False) -> None:
        super().__init__(env, broken)
        self.workload = TransferWorkload(
            num_accounts=12, initial_balance=100, amount=10, theta=0.5
        )
        self.db = Database(env, name="overload-db")
        self.db.create_table("accounts", primary_key="id")
        self.net = Network(env)
        self.client_node = self.net.add_node("load-client")
        self.bg_node = self.net.add_node("bg-client")
        self.service_node = self.net.add_node("bank-service")
        self.admission: Optional[AdmissionController] = (
            None if broken
            else AdmissionController(8, name="bank-service.admission")
        )
        dedup = None if broken else IdempotencyStore(clock=lambda: env.now)
        self.server = RpcServer(
            self.net, self.service_node,
            dedup_store=dedup, admission=self.admission,
        )
        self.server.register("transfer", self._transfer)
        self.server.register("report", self._report)
        self.client = RpcClient(self.net, self.client_node)
        self.bg_client = RpcClient(self.net, self.bg_node)
        self.budget = RetryBudget(capacity=8.0, refund=0.2)
        self.queries_sent = 0
        self.queries_failed = 0
        self._ops: dict[str, Any] = {}

    # -- service handlers (run as processes on the crashable node) -------------

    def _transfer(self, payload: tuple) -> Generator:
        src_id, dst_id, amount = payload
        yield self.env.timeout(self.TRANSFER_MS)
        txn = self.db.begin(IsolationLevel.SNAPSHOT)
        try:
            src = yield from self.db.get(txn, "accounts", src_id)
            dst = yield from self.db.get(txn, "accounts", dst_id)
            yield from self.db.put(txn, "accounts", src_id,
                                   {**src, "balance": src["balance"] - amount})
            yield from self.db.put(txn, "accounts", dst_id,
                                   {**dst, "balance": dst["balance"] + amount})
            yield from self.db.commit(txn)
            return True
        finally:
            # A node crash interrupts the handler at any yield; the abort is
            # synchronous, so the engine never leaks locks or half-transfers.
            if txn.status is TxnStatus.ACTIVE:
                self.db.abort(txn)

    def _report(self, account: str) -> Generator:
        yield self.env.timeout(self.QUERY_MS)
        row = self.db.read_latest("accounts", account)
        return row["balance"] if row is not None else 0

    # -- background flood -------------------------------------------------------

    def _flood(self) -> Generator:
        """Open-loop low-priority queries, fast enough to force shedding.

        Demand (~1/ms at 6 ms service time) wants ~6 slots of the
        admission limit of 8; the low-priority watermark caps it at 4, so
        the flood sheds at the door while transfers keep their headroom —
        unless transfers spike too, in which case they shed as well.
        """
        rng = self.env.stream("overload-flood")
        accounts = [row["id"] for row in self.workload.initial_rows()]
        while True:
            yield self.env.timeout(0.6 + 0.8 * rng.random())
            account = accounts[rng.randrange(len(accounts))]
            self.queries_sent += 1
            self.env.process(self._one_query(account), label="overload.query")

    def _one_query(self, account: str) -> Generator:
        try:
            yield from self.bg_client.call(
                "bank-service", "report", account,
                timeout=30.0, retries=0, priority=PRIORITY_LOW,
            )
        except RpcError:
            self.queries_failed += 1

    # -- scenario interface ----------------------------------------------------

    def setup(self) -> Generator:
        self.db.load("accounts", self.workload.initial_rows())
        self.env.process(self._flood(), label="overload.flood")
        return
        yield  # pragma: no cover

    def ops(self) -> list:
        ops = list(self.workload.operations(self.env.stream("workload"), 18))
        self._ops = {op.op_id: op for op in ops}
        return ops

    def execute(self, op) -> Generator:
        payload = (op.src, op.dst, op.amount)
        if self.broken:
            # The unprotected client: short timeout, blind retries, no
            # dedup on the other end — the §3.2 duplicate generator.
            result = yield from self.client.call(
                "bank-service", "transfer", payload,
                timeout=25.0, retries=4, idempotency_key=op.op_id,
            )
            return result
        deadline = self.env.now + 300.0
        attempts = 4
        for attempt in range(attempts):
            if attempt > 0 and not self.budget.try_spend():
                raise RpcTimeout("bank-service", "transfer", attempt)
            try:
                result = yield from self.client.call(
                    "bank-service", "transfer", payload,
                    timeout=45.0, retries=0,
                    idempotency_key=op.op_id, deadline=deadline,
                )
                self.budget.on_success()
                return result
            except RpcRejected:
                if attempt == 0:
                    raise  # nothing was ever sent that could have executed
                # A retry got shed, but an earlier timed-out attempt may
                # have executed (e.g. its reply was lost before the dedup
                # record was consulted) — the outcome is unknown.
                raise RpcTimeout("bank-service", "transfer", attempt + 1)
            except RpcTimeout:
                continue
        raise RpcTimeout("bank-service", "transfer", attempts)

    def final_state(self) -> Any:
        return self.db.all_rows("accounts")

    def oracles(self) -> list[Oracle]:
        initial = {
            row["id"]: row["balance"] for row in self.workload.initial_rows()
        }
        return [
            ConservationOracle("balance", self.workload.expected_total),
            TransferExactlyOnceOracle(initial, self._ops, kind=self.kind),
        ]

    def classify(self, exc: Exception) -> str:
        # First-attempt sheds never executed; a remote error means the
        # handler itself raised (transfer aborted) before any effect —
        # with the dedup store consulted ahead of execution, a duplicate
        # of completed work replays its recorded response instead of
        # raising.  Timeouts (including budget exhaustion) stay unknown.
        if isinstance(exc, (RpcRejected, RpcRemoteError)):
            return "fail"
        return "info"


class LedgerScenario(Scenario):
    """The kernel-defined payments ledger on entity-per-service microservices.

    The first scenario driven entirely through :mod:`repro.apps.core`: the
    app is an :class:`~repro.apps.core.AppSpec` (double-entry postings with
    conservation, double-entry, and causal-audit invariants), the runtime
    is the generic :class:`MicroserviceBinder`, and the oracles are
    *compiled from the spec's invariants* — nothing here is hand-written
    for the scenario.

    Sound mode commits each posting via OCC 2PC across the accounts,
    postings, and audit services.  Broken mode (``mode="none"``) applies
    the buffered writes service-by-service with no coordination: a crash
    or partition mid-sequence moves balances without recording the posting
    (caught by ``double_entry``) or records a posting with no audit entry
    (caught by ``causal_audit``).
    """

    name = "ledger"
    kind = "posting"
    default_config = ChaosConfig(
        crashable=("accounts", "postings", "audit"),
        partitionable=("edge-client", "accounts", "postings", "audit"),
        loss_rate=(0.03, 0.15),
        duplication_rate=(0.03, 0.15),
    )

    def __init__(self, env: Environment, broken: bool = False) -> None:
        super().__init__(env, broken)
        self.workload = TransferWorkload(
            num_accounts=12, initial_balance=100, amount=10, theta=0.5
        )
        self.spec = ledger_spec(self.workload)
        mode = "none" if broken else "2pc"
        self.binder = MicroserviceBinder(
            env, self.spec, mode=mode, request_timeout=150.0
        )
        self.net = self.binder.app.net

    def setup(self) -> Generator:
        yield from self.binder.setup()

    def ops(self) -> list:
        return list(self.workload.operations(self.env.stream("workload"), 18))

    def execute(self, op) -> Generator:
        result = yield from self.binder.execute(op)
        return result

    def final_state(self) -> Any:
        return self.binder.snapshot()

    def oracles(self) -> list[Oracle]:
        return self.binder.oracles()

    def classify(self, exc: Exception) -> str:
        # The binder's vocabulary: AppUncertain is the 2PC decision window.
        # Validation exhaustion (RuntimeError) means every attempt aborted;
        # a remote handler error or first-contact rejection never committed.
        if isinstance(exc, AppUncertain):
            return "info"
        if isinstance(exc, (AppFailure, RuntimeError, RpcRemoteError, RpcRejected)):
            return "fail"
        return "info"


class InvoicingScenario(Scenario):
    """Gap-free invoice numbering on replicated shards under migration.

    The invoicing :class:`~repro.apps.core.AppSpec` runs through the
    generic :class:`ShardedDbBinder` on two quorum-replicated shards
    (factor 3 over four nodes) while a seeded driver keeps live-migrating
    whole replica groups between nodes and the nemesis kills leaders,
    crashes followers, and partitions the replica network.  The
    spec-compiled gap-free oracle judges the result: committed invoices
    must show numbers ``1..k`` with no gap and no duplicate, no matter
    how the allocator's shard moved or failed over mid-run.

    Broken mode keeps the cluster sound and breaks the *application*:
    ``transaction_per_step=True`` honors the handler's unsound step split
    (allocate the number in one transaction, insert the invoice in a
    second), so any failure or uncertainty between the two burns a number
    — the gap the oracle must catch.
    """

    name = "invoicing"
    kind = "invoice"
    default_config = ChaosConfig(
        fault_classes=("kill_leader", "crash", "partition"),
        crashable=(
            "invoicing-app0", "invoicing-app1",
            "invoicing-cluster/node0", "invoicing-cluster/node1",
            "invoicing-cluster/node2", "invoicing-cluster/node3",
        ),
        partitionable=(
            "invoicing-cluster/node0", "invoicing-cluster/node1",
            "invoicing-cluster/node2", "invoicing-cluster/node3",
        ),
        leader_groups=("shard0", "shard1"),
        episodes=5,
        downtime=(40.0, 100.0),
    )

    def __init__(self, env: Environment, broken: bool = False) -> None:
        super().__init__(env, broken)
        self.workload = InvoicingWorkload()
        self.spec = invoicing_spec(self.workload)
        self.binder = ShardedDbBinder(
            env, self.spec,
            num_shards=2,
            transaction_per_step=broken,
            num_nodes=4,
            rtt_ms=1.0,
            drain_timeout_ms=250.0,
            replication=ReplicationConfig(factor=3),
        )
        self.db = self.binder.db
        self.net = self.db.repl_net
        #: operations run as processes on crashable app nodes — a crash
        #: kills the handler between its transactions, which is exactly
        #: the window where the broken step-split burns a number.
        self.app_nodes = [
            self.net.add_node(f"invoicing-app{i}") for i in range(2)
        ]

    def resolve_leader(self, label: str) -> Optional[str]:
        shard = int(label.removeprefix("shard"))
        return self.db.replica_group(shard).leader_name()

    def setup(self) -> Generator:
        self.env.process(
            self._migration_driver(), label="invoicing.migration-driver"
        )
        yield from self.binder.setup()

    def _migration_driver(self) -> Generator:
        """Keep live-migrating replica groups while the nemesis works."""
        rng = self.env.stream("invoicing-migrations")
        while True:
            yield self.env.timeout(40.0 + rng.random() * 40.0)
            shard = rng.randrange(self.db.num_shards)
            alive = [
                n for n in self.db.nodes
                if self.net.node(n) is None or self.net.node(n).alive
            ]
            if len(alive) < self.db.replication.factor:
                continue
            dest = rng.choice(alive)
            try:
                yield from self.db.migrate_shard(shard, dest)
            except ClusterError:
                continue  # raced a fault or another migration; try later

    def ops(self) -> list:
        return list(
            self.workload.operations(self.env.stream("workload"), 18)
        )

    def execute(self, op) -> Generator:
        """Run the op on an alive app node, re-running it after crashes.

        Safe for the sound (atomic, idempotent) handler: a re-run after a
        crash-after-commit reads the existing invoice back.  The broken
        step-split has no such protection — a re-run allocates a fresh
        number and the crashed attempt's allocation is burned.
        """
        crashed = False
        while True:
            node = next((n for n in self.app_nodes if n.alive), None)
            if node is None:
                yield self.env.timeout(10.0)
                continue
            try:
                attempt = node.spawn(
                    self.binder.execute(op), label=f"invoicing:{op.op_id}"
                )
                result = yield attempt
                return result
            except (Interrupted, NodeCrashed):
                crashed = True
                yield self.env.timeout(5.0)
            except Exception as exc:
                if crashed:
                    # A crashed earlier attempt may have committed; this
                    # definite-looking failure is not definite any more.
                    raise AppUncertain(
                        f"{op.op_id}: failed after a crashed attempt"
                    ) from exc
                raise

    def final_state(self) -> Any:
        return self.binder.snapshot()

    def oracles(self) -> list[Oracle]:
        return self.binder.oracles()

    def classify(self, exc: Exception) -> str:
        # The binder retries every definite abort internally; what escapes
        # is either the uncertainty window (info) or exhaustion/routing
        # errors whose attempts all definitely aborted (fail).
        if isinstance(exc, AppUncertain):
            return "info"
        if isinstance(exc, (RuntimeError, ClusterError)):
            return "fail"
        return "info"


def bind_engine_to_node(env: Environment, node, engine) -> None:
    """Tie a :class:`TransactionalDataflow` lifecycle to a network node.

    A sentinel process on the node translates node.crash() into
    engine.crash(); the restart hook runs engine.recover() and re-arms
    the sentinel, so FaultPlan/nemesis crash events drive the engine
    through its real checkpoint-restore + replay path.
    """

    def sentinel() -> Generator:
        try:
            yield env.timeout(1e11)
        except Interrupted:
            engine.crash()

    def on_restart(_node) -> None:
        env.process(engine.recover(), label="dataflow-engine.recover")
        node.spawn(sentinel(), label="dataflow-engine.sentinel")

    node.spawn(sentinel(), label="dataflow-engine.sentinel")
    node.on_restart(on_restart)


_SCENARIOS = {
    "microservice": MicroserviceScenario,
    "actor": ActorScenario,
    "dataflow": DataflowScenario,
    "faas": FaasScenario,
    "cluster": ClusterScenario,
    "overload": OverloadScenario,
    "replication": ReplicationScenario,
    "ledger": LedgerScenario,
    "invoicing": InvoicingScenario,
}


#: The runtimes whose ``broken=True`` selects an unsound control.
CONTROL_RUNTIMES = tuple(
    name for name, cls in _SCENARIOS.items() if cls.has_control
)


def build_scenario(name: str, env: Environment, broken: bool = False) -> Scenario:
    try:
        cls = _SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown runtime {name!r}; choose from {sorted(_SCENARIOS)}"
        ) from None
    if broken and not cls.has_control:
        raise ValueError(
            f"runtime {name!r} has no unsound control; broken=True needs "
            f"one of {list(CONTROL_RUNTIMES)}"
        )
    return cls(env, broken=broken)
