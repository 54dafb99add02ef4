"""Money transfers on every runtime — the paradigm-comparison backbone.

Every class exposes the same adapter surface for the harness:

- ``setup()`` — build the runtime and load initial balances;
- ``execute(op)`` — a generator running one
  :class:`~repro.workloads.transfers.TransferOp` end to end, raising on
  client-visible failure, and calling ``ledger.apply`` when the transfer's
  effect lands in state;
- ``balances()`` — final committed state as rows for invariant checks;
- ``audit()`` — a generator reading the total balance *concurrently with
  the workload*, exposing (or not) intermediate states — the isolation
  probe used by benchmark C4.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.actors import Actor, ActorRuntime, ActorTransactionCoordinator, transactional
from repro.apps.core import KernelApp
from repro.dataflow import (
    DataflowRuntime,
    JobGraph,
    StatefunRuntime,
    TransactionalDataflow,
    TxnAbort,
)
from repro.db import DatabaseServer, IsolationLevel
from repro.db.errors import TransactionAborted
from repro.faas import DurableEntities, SharedKv, TransactionalWorkflows
from repro.net.latency import Latency
from repro.sim import Environment
from repro.workloads.transfers import TransferOp, TransferWorkload


#: serializable attempts per transfer on the database
DB_ATTEMPTS = 8


class DbBank(KernelApp):
    """Transfers against the transactional database (the monolith baseline)."""

    def __init__(
        self,
        env: Environment,
        workload: TransferWorkload,
        isolation: IsolationLevel = IsolationLevel.SERIALIZABLE,
        connections: int = 32,
    ) -> None:
        super().__init__(env)
        self.workload = workload
        self.isolation = isolation
        self.server = DatabaseServer(env, name="bank-db", connections=connections)
        self.server.create_table("accounts", primary_key="id")
        self.server.load("accounts", workload.initial_rows())

    def execute(self, op: TransferOp) -> Generator:
        for attempt in range(DB_ATTEMPTS):
            txn = yield from self.server.begin(self.isolation)
            try:
                src = yield from self.server.get(txn, "accounts", op.src)
                dst = yield from self.server.get(txn, "accounts", op.dst)
                yield from self.server.put(
                    txn, "accounts", op.src,
                    {"id": op.src, "balance": src["balance"] - op.amount},
                )
                yield from self.server.put(
                    txn, "accounts", op.dst,
                    {"id": op.dst, "balance": dst["balance"] + op.amount},
                )
                yield from self.server.commit(txn)
                self.ledger.apply(op.op_id)
                return
            except TransactionAborted:
                yield from self.server.abort(txn)
                yield self.env.timeout(1.0 + attempt)
        raise RuntimeError(f"{op.op_id}: retries exhausted")

    def balances(self) -> list[dict]:
        return self.server.engine.all_rows("accounts")

    def audit(self) -> Generator:
        """A read-only transaction summing all balances."""
        txn = yield from self.server.begin(self.isolation)
        rows = yield from self.server.scan(txn, "accounts")
        yield from self.server.commit(txn)
        return sum(row["balance"] for row in rows)


@transactional
class _AccountActor(Actor):
    """The bank account as a virtual actor."""

    initial_state = {"balance": 0}

    def load(self, amount):
        self.state["balance"] = amount
        yield from self.save_state()

    def deposit(self, amount):
        self.state["balance"] += amount
        yield from self.save_state()
        return self.state["balance"]

    def withdraw(self, amount):
        self.state["balance"] -= amount
        yield from self.save_state()
        return self.state["balance"]

    def balance(self):
        return self.state["balance"]
        yield  # pragma: no cover

    def txn_deposit(self, amount):
        self.state["balance"] += amount
        return self.state["balance"]
        yield  # pragma: no cover

    def txn_withdraw(self, amount):
        self.state["balance"] -= amount
        return self.state["balance"]
        yield  # pragma: no cover


class ActorBank(KernelApp):
    """Transfers over virtual actors.

    ``mode="plain"`` issues withdraw + deposit as two independent actor
    calls — atomic per actor, *not* across them (the §4.2 default).
    ``mode="transaction"`` uses the Orleans-style coordinator: ACID, at
    the documented performance penalty.
    """

    def __init__(
        self,
        env: Environment,
        workload: TransferWorkload,
        mode: str = "plain",
    ) -> None:
        if mode not in ("plain", "transaction"):
            raise ValueError(f"unknown mode {mode!r}")
        super().__init__(env)
        self.workload = workload
        self.mode = mode
        self.runtime = ActorRuntime(env)
        self.runtime.register(_AccountActor)
        self.coordinator = ActorTransactionCoordinator(self.runtime)

    def setup(self) -> Generator:
        """Load initial balances (must run inside the simulation)."""
        for row in self.workload.initial_rows():
            ref = self.runtime.ref("_AccountActor", row["id"])
            yield from ref.call("load", row["balance"])

    def execute(self, op: TransferOp) -> Generator:
        if self.mode == "plain":
            yield from self.runtime.ref("_AccountActor", op.src).call(
                "withdraw", op.amount, retries=2
            )
            # Crash window here: withdraw done, deposit maybe never sent.
            yield from self.runtime.ref("_AccountActor", op.dst).call(
                "deposit", op.amount, retries=2
            )
        else:
            yield from self.coordinator.execute([
                ("_AccountActor", op.src, "txn_withdraw", (op.amount,)),
                ("_AccountActor", op.dst, "txn_deposit", (op.amount,)),
            ])
        self.ledger.apply(op.op_id)

    def balances(self) -> list[dict]:
        rows = []
        for row in self.workload.initial_rows():
            state = self.runtime.provider.peek("_AccountActor", row["id"])
            balance = state["balance"] if state else row["balance"]
            rows.append({"id": row["id"], "balance": balance})
        return rows

    def audit(self) -> Generator:
        total = 0
        for row in self.workload.initial_rows():
            ref = self.runtime.ref("_AccountActor", row["id"])
            total += yield from ref.call("balance", retries=2)
        return total


class FaasBank(KernelApp):
    """Transfers on stateful FaaS, at three §4.2 consistency points.

    ``mode="kv"`` — naive read-modify-write on the shared KV: lost
    updates under concurrency (what plain SFaaS gives you).
    ``mode="entities"`` — Durable-Functions-style critical sections.
    ``mode="workflow"`` — Beldi-style serializable OCC workflows.
    """

    def __init__(self, env: Environment, workload: TransferWorkload, mode: str = "workflow") -> None:
        if mode not in ("kv", "entities", "workflow"):
            raise ValueError(f"unknown mode {mode!r}")
        super().__init__(env)
        self.workload = workload
        self.mode = mode
        self.kv = SharedKv(env, rtt=Latency.intra_zone())
        self.entities = DurableEntities(env, rtt=Latency.intra_zone())
        self.entities.define_operation(
            "add", lambda state, amount: state.__setitem__(
                "balance", state.get("balance", 0) + amount
            ) or state["balance"],
        )
        self.entities.define_operation("get", lambda state, _a: state.get("balance", 0))
        self.workflows = TransactionalWorkflows(env, kv=self.kv)
        self.workflows.register("transfer", self._transfer_workflow)

    @staticmethod
    def _transfer_workflow(ctx, payload):
        src = yield from ctx.read(payload["src"], 0)
        dst = yield from ctx.read(payload["dst"], 0)
        ctx.write(payload["src"], src - payload["amount"])
        ctx.write(payload["dst"], dst + payload["amount"])
        return True

    def setup(self) -> Generator:
        for row in self.workload.initial_rows():
            if self.mode == "entities":
                yield from self.entities.signal(row["id"], "add", row["balance"])
            else:
                yield from self.kv.put(row["id"], row["balance"])

    def execute(self, op: TransferOp) -> Generator:
        if self.mode == "kv":
            src = yield from self.kv.get(op.src, 0)
            dst = yield from self.kv.get(op.dst, 0)
            yield from self.kv.put(op.src, src - op.amount)
            yield from self.kv.put(op.dst, dst + op.amount)
        elif self.mode == "entities":
            section = self.entities.critical_section([op.src, op.dst])
            yield from section.enter()
            try:
                yield from section.signal(op.src, "add", -op.amount,
                                          operation_id=f"{op.op_id}/w")
                yield from section.signal(op.dst, "add", op.amount,
                                          operation_id=f"{op.op_id}/d")
            finally:
                section.exit()
        else:
            yield from self.workflows.run(
                "transfer",
                {"src": op.src, "dst": op.dst, "amount": op.amount},
                workflow_id=op.op_id,
            )
        self.ledger.apply(op.op_id)

    def balances(self) -> list[dict]:
        rows = []
        for row in self.workload.initial_rows():
            if self.mode == "entities":
                balance = self.entities.state_of(row["id"]).get("balance", 0)
            else:
                balance = self.kv.store.get(row["id"], 0)
            rows.append({"id": row["id"], "balance": balance})
        return rows

    def audit(self) -> Generator:
        total = 0
        for row in self.workload.initial_rows():
            if self.mode == "entities":
                balance = yield from self.entities.signal(row["id"], "get")
            else:
                balance = yield from self.kv.get(row["id"], 0)
            total += balance
        return total


class DataflowBank(KernelApp):
    """Transfers as a stream through the exactly-once dataflow engine.

    A transfer is one record keyed by the source account; the debit
    operator emits a credit record keyed by the destination.  Both effects
    are exactly-once (checkpoint + replay), but there is **no isolation**:
    between debit and credit the money is in flight, and concurrent audits
    observe inconsistent totals — benchmark C4's point.
    """

    def __init__(
        self,
        env: Environment,
        workload: TransferWorkload,
        checkpoint_interval: float = 100.0,
    ) -> None:
        super().__init__(env)
        self.workload = workload
        graph = JobGraph("bank")
        graph.source("transfers", emit_interval=0.1)
        graph.operator("debit", self._debit, parallelism=2, work_ms=0.1)
        graph.operator("credit", self._credit, parallelism=2, work_ms=0.1)
        graph.sink("done", mode="exactly_once")
        graph.connect("transfers", "debit")
        graph.connect("debit", "credit")
        graph.connect("credit", "done")
        self.runtime = DataflowRuntime(
            env, graph, checkpoint_interval=checkpoint_interval
        )
        self._balances: dict[str, int] = {
            row["id"]: row["balance"] for row in workload.initial_rows()
        }

    def _debit(self, state, key, value, emit):
        balance = state.get(key, self._balances.get(key, 0))
        state.put(key, balance - value["amount"])
        emit(value["dst"], value)

    def _credit(self, state, key, value, emit):
        balance = state.get(key, self._balances.get(key, 0))
        state.put(key, balance + value["amount"])
        emit(key, {"op_id": value["op_id"]})

    def start(self) -> None:
        self.runtime.start()

    def submit(self, op: TransferOp) -> None:
        """Fire-and-forget ingestion (stream semantics)."""
        self.runtime.send(
            "transfers", op.src,
            {"op_id": op.op_id, "src": op.src, "dst": op.dst, "amount": op.amount},
        )

    def completed_ops(self) -> list[str]:
        return [value["op_id"] for _k, value, _t in self.runtime.sink_outputs("done")]

    def balances(self) -> list[dict]:
        # Debit and credit keep separate per-operator state for the same
        # logical account, each lazily initialized from the loaded balance;
        # the true balance is the base plus both operators' deltas.
        deltas: dict[str, int] = {}
        for stage, tasks in self.runtime._operators.items():
            for task in tasks:
                for key, value in task.store.items():
                    base = self._balances.get(key, 0)
                    deltas[key] = deltas.get(key, 0) + (value - base)
        return [
            {"id": key, "balance": self._balances.get(key, 0) + deltas.get(key, 0)}
            for key in self._balances
        ]

    def audit_total(self) -> int:
        """An instantaneous (non-transactional) total over live state."""
        return sum(row["balance"] for row in self.balances())


class DurableWorkflowBank(KernelApp):
    """Transfers as durable orchestrations (Durable Functions style).

    Each transfer is a workflow with two activities (debit, credit)
    against the shared KV.  Workflow *progress* is exactly-once (completed
    activities never re-run, even across engine crashes), but the
    activities are individual KV updates — atomic per key, no isolation
    across the pair, like the entities story of §4.2.
    """

    def __init__(self, env: Environment, workload: TransferWorkload) -> None:
        from repro.faas import DurableWorkflows, SharedKv

        super().__init__(env)
        self.workload = workload
        self.kv = SharedKv(env, rtt=Latency.intra_zone())
        self.engine = DurableWorkflows(env, activity_latency=0.5)

        @self.engine.activity("debit")
        def debit(account, amount):
            balance = yield from self.kv.get(account, 0)
            yield from self.kv.put(account, balance - amount)
            return balance - amount

        @self.engine.activity("credit")
        def credit(account, amount):
            balance = yield from self.kv.get(account, 0)
            yield from self.kv.put(account, balance + amount)
            return balance + amount

        @self.engine.workflow("transfer")
        def transfer(ctx, payload):
            yield ctx.activity("debit", payload["src"], payload["amount"])
            result = yield ctx.activity("credit", payload["dst"], payload["amount"])
            return result

    def setup(self) -> Generator:
        for row in self.workload.initial_rows():
            yield from self.kv.put(row["id"], row["balance"])

    def execute(self, op: TransferOp) -> Generator:
        future = self.engine.start(
            op.op_id, "transfer",
            {"src": op.src, "dst": op.dst, "amount": op.amount},
        )
        yield future
        self.ledger.apply(op.op_id)

    def balances(self) -> list[dict]:
        return [
            {"id": row["id"], "balance": self.kv.store.get(row["id"], 0)}
            for row in self.workload.initial_rows()
        ]


class StatefunBank(KernelApp):
    """Transfers as Statefun entities: debit entity messages credit entity.

    Exactly-once via rewind + replay, atomic *per entity*, no isolation
    across them — the precise §4.2 characterization of Statefun.
    """

    def __init__(
        self,
        env: Environment,
        workload: TransferWorkload,
        checkpoint_interval: float = 100.0,
    ) -> None:
        super().__init__(env)
        self.workload = workload
        self.runtime = StatefunRuntime(env, checkpoint_interval=checkpoint_interval)
        balances = {row["id"]: row["balance"] for row in workload.initial_rows()}

        @self.runtime.function("account")
        def account(ctx, key, message):
            state = ctx.state
            if "balance" not in state:
                state["balance"] = balances.get(key, 0)
            if message["op"] == "debit":
                state["balance"] -= message["amount"]
                ctx.send("account", message["dst"],
                         {"op": "credit", "amount": message["amount"],
                          "op_id": message["op_id"]})
            else:
                state["balance"] += message["amount"]
                ctx.egress(message["op_id"])
            return
            yield  # pragma: no cover

    def start(self) -> None:
        self.runtime.start()

    def submit(self, op: TransferOp) -> None:
        self.runtime.ingress(
            "account", op.src,
            {"op": "debit", "dst": op.dst, "amount": op.amount, "op_id": op.op_id},
        )

    def completed_ops(self) -> list[str]:
        return self.runtime.egress_records()

    def balances(self) -> list[dict]:
        rows = []
        for row in self.workload.initial_rows():
            state = self.runtime.state_of("account", row["id"])
            rows.append({
                "id": row["id"],
                "balance": state.get("balance", row["balance"]),
            })
        return rows

    def audit_total(self) -> int:
        """Instantaneous (non-transactional) total over entity state."""
        return sum(row["balance"] for row in self.balances())


class TxnDataflowBank(KernelApp):
    """Transfers on the Styx-like transactional dataflow: serializable."""

    def __init__(self, env: Environment, workload: TransferWorkload, **engine_kwargs) -> None:
        super().__init__(env)
        self.workload = workload
        engine_kwargs.setdefault("epoch_interval", 5.0)
        self.engine = TransactionalDataflow(env, **engine_kwargs)
        self.engine.register("transfer", self._transfer)
        self.engine.register("_credit_leg", self._credit_leg)
        self.engine.register("load", self._load)
        self.engine.register("audit", self._audit)

    @staticmethod
    def _load(ctx, key, amount):
        ctx.put(key, amount)
        return amount
        yield  # pragma: no cover

    @staticmethod
    def _transfer(ctx, key, payload):
        src_balance = ctx.get(key, 0)
        ctx.put(key, src_balance - payload["amount"])
        result = yield from ctx.call("_credit_leg", payload["dst"], payload["amount"])
        return result

    def _audit(self, ctx, key, account_ids):
        total = 0
        for account in account_ids:
            total += ctx.get(account, 0)
        return total
        yield  # pragma: no cover

    def start(self) -> None:
        self.engine.start()

    @staticmethod
    def _credit_leg(ctx, key, amount):
        ctx.put(key, ctx.get(key, 0) + amount)
        return ctx.get(key)
        yield  # pragma: no cover

    def setup(self) -> Generator:
        futures = [
            self.engine.submit("load", row["id"], row["balance"], keys=[row["id"]])
            for row in self.workload.initial_rows()
        ]
        for future in futures:
            yield future

    def execute(self, op: TransferOp) -> Generator:
        future = self.engine.submit(
            "transfer", op.src,
            {"dst": op.dst, "amount": op.amount},
            keys=[op.src, op.dst],
        )
        yield future
        self.ledger.apply(op.op_id)

    def balances(self) -> list[dict]:
        return [
            {"id": row["id"], "balance": self.engine.state_of(row["id"]) or 0}
            for row in self.workload.initial_rows()
        ]

    def audit(self) -> Generator:
        """A serializable read-only transaction over all accounts."""
        account_ids = [row["id"] for row in self.workload.initial_rows()]
        future = self.engine.submit("audit", account_ids[0], account_ids, keys=account_ids)
        total = yield future
        return total
