"""The seven benchmark workloads: what each builds, drives and checks.

Every workload is a pure function of ``(seed, scale)``: the op list comes
from ``random.Random(f"suite:{seed}:{name}")`` and every simulator stream
from ``Environment(seed=seed)``, so the program under test sees only the
generated ops.  Op counts are fixed, never time-boxed, which keeps the
deterministic metrics (``events_per_txn``, every ``sim_*``) comparable
across commits.  ``benchmarks/suite/README.md`` records why each workload
was chosen and which layer it stresses or bypasses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.apps.core import bind
from repro.apps.ledger import ledger_spec
from repro.db import DatabaseServer
from repro.db.errors import TransactionAborted
from repro.replication import ReplicationConfig
from repro.sim import Environment
from repro.workloads import ClosedLoop, OpenLoop, TransferWorkload, YcsbWorkload

THINK_MS = 1.0


@dataclass
class Built:
    """One workload instance, set up and ready for the timed region."""

    ops: list
    execute: Callable[[Any], Generator]
    arrival: Any
    #: final committed state, read after the timed region
    snapshot: Callable[[], Any]
    #: ``check(snapshot, acknowledged) -> [violation, ...]``
    check: Callable[[Any, int], list]
    #: the binder's effect ledger, when the runtime records applications
    ledger: Any = None


@dataclass(frozen=True)
class Workload:
    name: str
    ops: int
    clients: int  # 0 = open loop
    build: Callable[[Environment, random.Random, int, int], Built]
    #: the outermost ``begin`` the ops enter; its calls per acknowledged op
    #: are ``db.attempts_per_txn`` (the excess over 1 is retried attempts)
    begin: str = "repro.db.server:DatabaseServer.begin"


def _closed(ops: int, clients: int) -> ClosedLoop:
    return ClosedLoop(
        clients=clients, ops_per_client=ops // clients, think_time_ms=THINK_MS
    )


# -- YCSB straight onto one DatabaseServer ----------------------------------


class _YcsbExecutor:
    """Single-op transactions on one server; the retry loop is ours."""

    def __init__(self, env: Environment, workload: YcsbWorkload) -> None:
        self.env = env
        self.server = DatabaseServer(env, name="ycsb-db")
        self.server.create_table("usertable", primary_key="id")
        self.server.load(
            "usertable",
            [{"counter": 0, **row} for row in workload.initial_rows()],
        )
        self.wrong_reads = 0

    def read(self, op) -> Generator:
        txn = yield from self.server.begin()
        row = yield from self.server.get(txn, "usertable", op.key)
        yield from self.server.commit(txn)
        if row is None or row["id"] != op.key:
            self.wrong_reads += 1

    def rmw(self, op) -> Generator:
        for attempt in range(16):
            txn = yield from self.server.begin()
            try:
                row = yield from self.server.get(txn, "usertable", op.key)
                yield from self.server.update(
                    txn, "usertable", op.key, {"counter": row["counter"] + 1}
                )
                yield from self.server.commit(txn)
                return
            except TransactionAborted:
                yield from self.server.abort(txn)
                yield self.env.timeout(0.5 * (attempt + 1))
        raise RuntimeError("retries exhausted")

    def snapshot(self) -> list:
        return sorted(
            (row["id"], row["counter"])
            for row in self.server.engine.all_rows("usertable")
        )


def _ycsb(mix, records: int, kind: str):
    def build(env: Environment, rng: random.Random, ops: int, clients: int) -> Built:
        workload = YcsbWorkload(record_count=records, mix=mix, theta=0.9)
        executor = _YcsbExecutor(env, workload)
        arrival = _closed(ops, clients)

        def check(snapshot, acknowledged: int) -> list:
            problems = []
            if executor.wrong_reads:
                problems.append(f"{executor.wrong_reads} reads returned the wrong row")
            total = sum(counter for _key, counter in snapshot)
            expected = acknowledged if kind == "rmw" else 0
            if total != expected:
                problems.append(
                    f"lost update: counters sum to {total}, "
                    f"{expected} increments acknowledged"
                )
            return problems

        return Built(
            ops=list(workload.operations(rng, arrival.total_ops)),
            execute=getattr(executor, kind),
            arrival=arrival,
            snapshot=executor.snapshot,
            check=check,
        )

    return build


# -- the ledger app on each runtime -----------------------------------------


def _ledger(
    runtime: str,
    accounts: int,
    theta: float,
    open_rate_per_s: float = 0.0,
    settle_ms: float = 0.0,
    **opts,
):
    def build(env: Environment, rng: random.Random, ops: int, clients: int) -> Built:
        workload = TransferWorkload(
            num_accounts=accounts, initial_balance=10**6, amount=1, theta=theta
        )
        binder = bind(runtime, env, ledger_spec(workload), **opts)
        env.run_until(env.process(binder.setup()))
        if settle_ms:
            # bootstrap no-ops commit and the replica groups go quiescent
            # before the timed region starts
            env.run(until=env.now + settle_ms)
        arrival = (
            OpenLoop(rate_per_s=open_rate_per_s, total_ops=ops)
            if open_rate_per_s
            else _closed(ops, clients)
        )

        def check(snapshot, _acknowledged: int) -> list:
            return [
                f"{invariant.name}: {violation}"
                for invariant in binder.invariants()
                for violation in invariant.check(snapshot)
            ]

        return Built(
            ops=list(workload.operations(rng, arrival.total_ops)),
            execute=binder.execute,
            arrival=arrival,
            snapshot=binder.snapshot,
            check=check,
            ledger=binder.ledger,
        )

    return build


_SHARDED_BEGIN = "repro.db.sharding:ShardedDatabase.begin"

WORKLOADS = (
    # read path only: sim dispatch + db reads + shared locks, no WAL flush,
    # no aborts, no net; the bypass for lock, commit-path and RPC work
    Workload(
        "ycsb_read", 100_000, 8,
        _ycsb("C", 10_000, "read"),
    ),
    # same db layer under write contention: X-lock queues, upgrades,
    # deadlock retries, WAL append and group-commit flush
    Workload(
        "ycsb_rmw_hot", 40_000, 8,
        _ycsb({"rmw": 1.0}, 100, "rmw"),
    ),
    # cross-shard 2PC under contention, where the 300 ms lock-wait timeout
    # sets the tail; db is the dominant layer
    Workload(
        "ledger_sharded_hot", 6_000, 16,
        _ledger("cluster", 200, 0.9, num_shards=4),
        begin=_SHARDED_BEGIN,
    ),
    # the only workload with replication, net and messaging under db; low
    # contention, so quorum appends set the median latency
    Workload(
        "ledger_replicated", 3_000, 8,
        _ledger(
            "cluster", 1_000, 0.7, settle_ms=200.0, num_shards=4, num_nodes=3,
            replication=ReplicationConfig(factor=3),
        ),
        begin=_SHARDED_BEGIN,
    ),
    # service-per-entity 2PC over RPC at a fixed open-loop rate: arrivals do
    # not self-throttle, so queue growth shows in the tail
    Workload(
        "ledger_microservice_open", 4_000, 0,
        _ledger("microservice", 1_000, 0.7, open_rate_per_s=140.0),
    ),
    # transactional actors, no db layer at all: the bypass for db/storage
    # changes and the amplifier for kernel Future/resume work
    Workload(
        "ledger_actor", 5_000, 8,
        _ledger("actor", 1_000, 0.7),
    ),
    # deterministic epochs at the kernel floor and the one long-history run,
    # where state-size-dependent cost and RSS growth show
    Workload(
        "ledger_dataflow", 44_000, 8,
        _ledger("dataflow", 1_000, 0.7),
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
