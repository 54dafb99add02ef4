"""Every runtime under test, behind one chaos-scenario interface.

Each scenario wires an application to a network whose nodes the nemesis
may crash and partition, declares a default
:class:`~repro.chaos.config.ChaosConfig` budget, classifies the
exceptions its operations raise into Jepsen outcomes (``fail`` = the
effect definitely did not happen, ``info`` = unknown), and names the
oracles entitled to judge it.

Seven of the nine runtimes are one class, :class:`AppScenario`: a kernel
app spec (the double-entry ledger or gap-free invoicing) deployed by
:func:`repro.apps.core.bind` as its :data:`DEPLOYMENTS` entry says, and
judged by the oracles the spec compiles.  The saga shop
(``microservice``) and the flooded service (``overload``) keep their own
classes.

``broken=True`` selects the intentionally unsound control of a runtime —
for an app deployment, the entry's control: binder options of a
paradigm the benchmarks measure (plain actors, uncoordinated services)
or a named mutant from :mod:`repro.chaos.mutants` (unfenced
replication, the split allocator, an ownership flip without drain).
The chaos harness must find and shrink that bug; it is the end-to-end
test that the detector detects.  Runtimes without a control (dataflow,
FaaS) refuse ``broken=True`` rather than run their sound configuration.
"""

from __future__ import annotations

from typing import Any, Generator, NamedTuple, Optional, Union

from repro.actors import TransactionFailed
from repro.apps import MicroserviceShop
from repro.apps.core import AppFailure, AppUncertain, bind
from repro.apps.invoicing import invoicing_spec
from repro.apps.ledger import AuditOp, ledger_spec
from repro.chaos.config import ChaosConfig
from repro.chaos.mutants import MUTANTS
from repro.chaos.oracles import Oracle, SagaAtomicityOracle, SnapshotAuditOracle
from repro.cluster import ClusterError
from repro.dataflow import TxnAbort
from repro.faas.workflows import WorkflowAborted
from repro.flow import AdmissionController, PRIORITY_LOW, RetryBudget
from repro.messaging import RpcError, RpcRejected, RpcRemoteError, RpcTimeout
from repro.messaging.idempotency import IdempotencyStore
from repro.messaging.rpc import RpcClient, RpcServer
from repro.net import Network, NodeCrashed
from repro.replication import ReplicationConfig
from repro.sim import Environment, Interrupted
from repro.workloads import MarketplaceWorkload, TransferWorkload
from repro.workloads.invoicing import InvoicingWorkload


class Scenario:
    """One runtime under chaos: workload, faults surface, oracles."""

    name = "scenario"
    kind = "transfer"
    op_timeout = 2000.0
    #: virtual ms between mid-run :meth:`audit` operations (None: no audits)
    audit_interval: Optional[float] = None
    default_config = ChaosConfig()

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

    def audit(self, op_id: str) -> Generator:
        """A read-only operation whose ``ok`` value is the balance total."""
        raise NotImplementedError

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


class Deployment(NamedTuple):
    """One kernel app on one runtime, as the chaos harness deploys it."""

    #: ``"ledger"`` or ``"invoicing"``
    app: str
    #: the :func:`~repro.apps.core.bind` runtime
    runtime: str
    #: binder options of the sound configuration
    sound: dict
    #: the unsound control: binder options, or the name of a mutant
    #: (:data:`~repro.chaos.mutants.MUTANTS`) built from the sound
    #: options (None: the runtime has none)
    control: Union[dict, str, None]
    config: ChaosConfig


_SILOS = ("silo-0", "silo-1", "silo-2")
_LEDGER_NODES = tuple(f"ledger-cluster/node{i}" for i in range(4))
_INVOICING_NODES = tuple(f"invoicing-cluster/node{i}" for i in range(4))
#: the live-rebalancing cluster
_REBALANCED = {"num_shards": 8, "num_nodes": 4, "rtt_ms": 2.0,
               "drain_timeout_ms": 250.0}
_REPLICATED = {"num_shards": 2, "rtt_ms": 1.0, "drain_timeout_ms": 250.0,
               "replication": ReplicationConfig(factor=3)}

#: runtime name -> deployment, for every :class:`AppScenario` runtime.
DEPLOYMENTS = {
    "actor": Deployment(
        "ledger", "actor", {}, {"mode": "plain"},
        ChaosConfig(
            crashable=_SILOS,
            downtime=(30.0, 90.0),
            loss_rate=(0.03, 0.15),
            duplication_rate=(0.03, 0.15),
        ),
    ),
    # The engine is bound to one crashable node (AppScenario._place):
    # a crash loses its volatile state and the restart runs checkpoint
    # restore + input-log replay.  Its internals send no messages.
    "dataflow": Deployment(
        "ledger", "dataflow", {"checkpoint_every": 3}, None,
        ChaosConfig(
            fault_classes=("crash",),
            crashable=("dataflow-engine",),
            episodes=3,
            downtime=(30.0, 90.0),
        ),
    ),
    # Workflow attempts run on crashable workers; a crashed attempt is
    # re-run elsewhere with the same workflow id (OCC commit + result
    # dedup is the exactly-once recipe under test).
    "faas": Deployment(
        "ledger", "faas", {}, None,
        ChaosConfig(
            fault_classes=("crash",),
            crashable=("worker-0", "worker-1"),
            episodes=3,
            downtime=(30.0, 90.0),
        ),
    ),
    # Shards live-migrate between nodes while the nemesis crashes them
    # and cuts them off from the client edge.  Shard state is durable: a
    # down owner makes its keys unavailable, never lossy.
    "cluster": Deployment(
        "ledger", "cluster", _REBALANCED, "cluster.flip_without_drain",
        ChaosConfig(
            fault_classes=("crash", "partition"),
            crashable=_LEDGER_NODES,
            partitionable=("edge-client", *_LEDGER_NODES),
            downtime=(30.0, 90.0),
        ),
    ),
    # Quorum-replicated shards under leader-targeted chaos; the control
    # is the unfenced primary that acks after a local apply.
    "replication": Deployment(
        "ledger", "cluster", {**_REPLICATED, "num_nodes": 3},
        "replication.unfenced",
        ChaosConfig(
            fault_classes=("kill_leader", "crash", "partition"),
            crashable=_LEDGER_NODES[:3],
            partitionable=_LEDGER_NODES[:3],
            leader_groups=("shard0", "shard1"),
            downtime=(40.0, 100.0),
        ),
    ),
    # Entity-per-service microservices committing by 2PC; the control
    # applies each service's writes in turn with no coordination.
    "ledger": Deployment(
        "ledger", "microservice",
        {"mode": "2pc", "request_timeout": 150.0},
        {"mode": "none", "request_timeout": 150.0},
        ChaosConfig(
            crashable=("accounts", "postings", "audit"),
            partitionable=("edge-client", "accounts", "postings", "audit"),
            loss_rate=(0.03, 0.15),
            duplication_rate=(0.03, 0.15),
        ),
    ),
    # Replicated shards that also live-migrate, with handlers on
    # crashable app nodes; the control commits the allocator's counter
    # and the invoice in two transactions.
    "invoicing": Deployment(
        "invoicing", "cluster", {**_REPLICATED, "num_nodes": 4},
        "invoicing.split_allocator",
        ChaosConfig(
            fault_classes=("kill_leader", "crash", "partition"),
            crashable=("invoicing-app0", "invoicing-app1", *_INVOICING_NODES),
            partitionable=_INVOICING_NODES,
            leader_groups=("shard0", "shard1"),
            episodes=5,
            downtime=(40.0, 100.0),
        ),
    ),
}


class NodeUnavailable(AppFailure):
    """The key's owning node is down or unreachable from the client edge."""


class AppScenario(Scenario):
    """A kernel app deployed on one runtime, judged by its spec's oracles.

    The app, runtime, binder options and fault budget come from the
    :data:`DEPLOYMENTS` entry.  What belongs to one deployment only is
    plain code on its path: placement — which network the nemesis gets
    and which nodes run what (:meth:`_place`) — the live-migration
    driver of ``cluster`` and ``invoicing``, the ``cluster`` deployment's
    route check, and the mid-run audits of ``dataflow`` and ``faas``.
    """

    def __init__(self, env: Environment, name: str, broken: bool = False) -> None:
        super().__init__(env, broken)
        deployment = DEPLOYMENTS[name]
        self.name = name
        self.default_config = deployment.config
        if deployment.app == "ledger":
            self.workload = TransferWorkload(
                num_accounts=12, initial_balance=100, amount=10, theta=0.5
            )
            self.spec = ledger_spec(self.workload)
        else:
            self.workload = InvoicingWorkload()
            self.spec = invoicing_spec(self.workload)
        self.kind = self.spec.kind
        if broken and isinstance(deployment.control, str):
            self.binder = MUTANTS[deployment.control](
                env, self.spec, **deployment.sound
            )
        else:
            opts = deployment.control if broken else deployment.sound
            self.binder = bind(deployment.runtime, env, self.spec, **opts)
        #: crashable nodes that run each operation, if any (:meth:`_on_worker`)
        self.workers: list = []
        self._place()
        if name in ("dataflow", "faas"):
            # Isolated read-only audits: a torn epoch or OCC commit
            # would show as a wrong total mid-run.
            self.audit_interval = 70.0

    def _place(self) -> None:
        binder, name = self.binder, self.name
        if binder.runtime == "microservice":
            self.net = binder.app.net
        elif binder.runtime == "actor":
            self.net = binder.actors.net
        elif binder.runtime == "cluster":
            self.db = binder.db
            # A replica of one has no replication traffic to fault: the
            # nemesis works the client-facing nodes, and a down owner
            # makes its keys unavailable without touching durable state.
            replicated = self.db.replication.factor > 1
            self.net = self.db.repl_net if replicated else Network(self.env)
        else:
            self.net = Network(self.env)
        if name == "dataflow":
            node = self.net.add_node("dataflow-engine")
            bind_engine_to_node(self.env, node, binder.engine)
        elif name == "faas":
            self.workers = [self.net.add_node(f"worker-{i}") for i in range(2)]
        elif name == "cluster":
            for node in ("edge-client", *self.db.nodes):
                self.net.add_node(node)
        elif name == "invoicing":
            # A crash kills the handler between its transactions: exactly
            # the window where the split allocator burns a number.
            self.workers = [
                self.net.add_node(f"invoicing-app{i}") for i in range(2)
            ]

    def resolve_leader(self, label: str) -> Optional[str]:
        """Map a ``kill_leader`` group label to its current leader node."""
        shard = int(label.removeprefix("shard"))
        return self.db.replica_group(shard).leader_name()

    def setup(self) -> Generator:
        if self.name in ("cluster", "invoicing"):
            self.env.process(
                self._migration_driver(), label=f"{self.name}.migration-driver"
            )
        yield from self.binder.setup()

    def _migration_driver(self) -> Generator:
        """Live-migrate a random shard toward a random alive node, forever.

        Plays the rebalancer's role with a seeded schedule, so rebalances
        deterministically overlap whatever faults the nemesis injected.
        A replica group moves only while a whole group's worth of nodes
        is alive.
        """
        db = self.db
        factor = db.replication.factor
        period = 40.0 if factor > 1 else 30.0
        rng = self.env.stream(f"{self.name}-migrations")
        while True:
            yield self.env.timeout(period + rng.random() * period)
            shard = rng.randrange(db.num_shards)
            alive = [
                n for n in db.nodes
                if self.net.node(n) is None or self.net.node(n).alive
            ]
            if len(alive) < factor:
                continue
            dest = rng.choice(alive)
            try:
                yield from db.migrate_shard(shard, dest)
            except ClusterError:
                continue  # raced a fault or another migration; try later

    def ops(self) -> list:
        return list(self.workload.operations(self.env.stream("workload"), 18))

    def execute(self, op) -> Generator:
        if self.name == "cluster":
            for _entity, key in self.spec.handler_for(op).access(op).declared:
                owner = self.db.owner_of(key)
                if (not self.net.node(owner).alive
                        or self.net.is_partitioned("edge-client", owner)):
                    raise NodeUnavailable(owner)
        if self.workers:
            result = yield from self._on_worker(op)
        else:
            result = yield from self.binder.execute(op)
        return result

    def _on_worker(self, op) -> Generator:
        """Run ``op`` on an alive worker, re-running it after crashes.

        Safe for idempotent handlers: a re-run after a crash-after-commit
        finds the committed effect (a workflow id's recorded result, an
        invoice row) instead of applying again.  A non-idempotent control
        (the split allocator) burns what the crashed attempt allocated.
        """
        crashed = False
        while True:
            node = next((n for n in self.workers if n.alive), None)
            if node is None:
                yield self.env.timeout(10.0)
                continue
            try:
                attempt = node.spawn(
                    self.binder.execute(op), label=f"{self.name}:{op.op_id}"
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

    def audit(self, op_id: str) -> Generator:
        return self.execute(AuditOp(op_id))

    def final_state(self) -> Any:
        return self.binder.snapshot()

    def oracles(self) -> list[Oracle]:
        oracles = self.binder.oracles()
        if self.audit_interval is not None:
            oracles.append(SnapshotAuditOracle(self.workload.expected_total))
        return oracles

    def classify(self, exc: Exception) -> str:
        # AppUncertain is every binder's uncertainty window.  Everything
        # else a binder lets escape ended with its attempts definitely
        # aborted: retries exhausted (RuntimeError, incl. cluster and
        # replication refusals), a handler or first-contact refusal, an
        # actor/epoch/workflow abort, or an unreachable owner.
        if isinstance(exc, AppUncertain):
            return "info"
        if isinstance(exc, (AppFailure, RuntimeError, RpcRemoteError,
                            RpcRejected, TransactionFailed, TxnAbort,
                            WorkflowAborted)):
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

    The service runs the ledger spec on :class:`~repro.apps.core.binders.DbBinder`,
    so the spec's oracles judge it.  Sound mode runs the full defense stack: admission control with
    priority classes, an idempotency store consulted *before* admission,
    per-client retry budgets and propagated deadlines.  The oracle
    contract is "no committed work is lost (or duplicated) while
    shedding": sheds on a request's first attempt are definite negatives
    (``fail``), everything uncertain stays ``info``, and every posting
    must be applied exactly as acknowledged.

    Broken mode strips the defenses: no admission, no dedup store, and
    eager client-side retries on short timeouts — each timed-out transfer
    is retried blind, so a lost *reply* (or a duplicated request) makes
    the transfer apply twice.  That double-application is the §3.2
    anomaly the harness must detect.
    """

    name = "overload"
    kind = "posting"
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
        self.binder = bind("db", env, ledger_spec(self.workload))
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

    # -- service handlers (run as processes on the crashable node) -------------

    def _transfer(self, op) -> Generator:
        # A node crash interrupts the handler at any yield; the binder's
        # transaction then aborts, so no half-posting is ever committed.
        yield self.env.timeout(self.TRANSFER_MS)
        result = yield from self.binder.execute(op)
        return result

    def _report(self, account: str) -> Generator:
        yield self.env.timeout(self.QUERY_MS)
        row = self.binder.db.engine.read_latest("accounts", account)
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
        self.env.process(self._flood(), label="overload.flood")
        yield from self.binder.setup()

    def ops(self) -> list:
        return list(self.workload.operations(self.env.stream("workload"), 18))

    def execute(self, op) -> Generator:
        if self.broken:
            # The unprotected client: short timeout, blind retries, no
            # dedup on the other end — the §3.2 duplicate generator.
            result = yield from self.client.call(
                "bank-service", "transfer", op,
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
                    "bank-service", "transfer", op,
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
        return self.binder.snapshot()

    def oracles(self) -> list[Oracle]:
        return self.binder.oracles()

    def classify(self, exc: Exception) -> str:
        # First-attempt sheds never executed; a remote error means the
        # handler itself raised (posting aborted) before any effect —
        # with the dedup store consulted ahead of execution, a duplicate
        # of completed work replays its recorded response instead of
        # raising.  Timeouts (including budget exhaustion) stay unknown.
        if isinstance(exc, (RpcRejected, RpcRemoteError)):
            return "fail"
        return "info"


def bind_engine_to_node(env: Environment, node, engine) -> None:
    """Tie a :class:`TransactionalDataflow` lifecycle to a network node.

    node.crash() crashes the engine; the restart hook runs
    engine.recover(), so FaultPlan/nemesis crash events drive the engine
    through its real checkpoint-restore + replay path.
    """
    node.on_crash(lambda _node: engine.crash())
    node.on_restart(
        lambda _node: env.process(engine.recover(), label="dataflow-engine.recover")
    )


#: runtime name -> scenario class, in the order the CLI lists them.
SCENARIOS = {
    "microservice": MicroserviceScenario,
    "actor": AppScenario,
    "dataflow": AppScenario,
    "faas": AppScenario,
    "cluster": AppScenario,
    "overload": OverloadScenario,
    "replication": AppScenario,
    "ledger": AppScenario,
    "invoicing": AppScenario,
}

#: The runtimes whose ``broken=True`` selects an unsound control.
CONTROL_RUNTIMES = tuple(
    name for name, cls in SCENARIOS.items()
    if cls is not AppScenario or DEPLOYMENTS[name].control is not None
)


def build_scenario(name: str, env: Environment, broken: bool = False) -> Scenario:
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown runtime {name!r}; choose from {sorted(SCENARIOS)}"
        )
    if broken and name not in CONTROL_RUNTIMES:
        raise ValueError(
            f"runtime {name!r} has no unsound control; broken=True needs "
            f"one of {list(CONTROL_RUNTIMES)}"
        )
    if SCENARIOS[name] is AppScenario:
        return AppScenario(env, name, broken)
    return SCENARIOS[name](env, broken)
