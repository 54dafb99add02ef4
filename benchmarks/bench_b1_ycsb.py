"""B1 — YCSB mixes across isolation levels on the database engine.

The baseline harness the paper's §5.3 discussion presumes: classic YCSB
core workloads (A: update-heavy, C: read-only, F: read-modify-write) with
zipfian skew, run at the engine's three isolation levels.

Expected shape:

- read-only (C) is isolation-insensitive;
- blind updates (A) cost little extra under stronger isolation;
- read-modify-writes (F) are where isolation bites: READ COMMITTED is
  fastest *and silently loses updates* (counted exactly); SERIALIZABLE
  pays lock waits/deadlock retries; SNAPSHOT sits between, resolving
  conflicts by first-committer-wins retries.
"""

from repro.db import DatabaseServer, IsolationLevel
from repro.db.errors import TransactionAborted
from repro.harness import WorkloadDriver, format_rows
from repro.sim import Environment
from repro.workloads import ClosedLoop, YcsbWorkload

from benchmarks.common import report

OPS = 240
CLIENTS = 8
RECORDS = 100
THETA = 0.9  # hot keys

LEVELS = [
    ("read-committed", IsolationLevel.READ_COMMITTED),
    ("snapshot", IsolationLevel.SNAPSHOT),
    ("serializable", IsolationLevel.SERIALIZABLE),
]


class YcsbExecutor:
    """Runs YCSB ops as single-op transactions; counts RMW effects."""

    def __init__(self, env, isolation):
        self.env = env
        self.isolation = isolation
        self.server = DatabaseServer(env, name="ycsb-db")
        self.server.create_table("usertable", primary_key="id")
        self.rmw_applied = 0

    def load(self, rows):
        self.server.load(
            "usertable", [{"id": r["id"], "counter": 0, **r} for r in rows]
        )

    def execute(self, op):
        for attempt in range(8):
            txn = yield from self.server.begin(self.isolation)
            try:
                if op.kind == "read":
                    yield from self.server.get(txn, "usertable", op.key)
                elif op.kind == "update":
                    yield from self.server.put(
                        txn, "usertable", op.key,
                        {"id": op.key, "counter": 0, **op.value},
                    )
                elif op.kind == "insert":
                    yield from self.server.put(
                        txn, "usertable", op.key,
                        {"id": op.key, "counter": 0, **op.value},
                    )
                else:  # rmw: increment the row's counter
                    row = yield from self.server.get(txn, "usertable", op.key)
                    yield from self.server.update(
                        txn, "usertable", op.key,
                        {"counter": row["counter"] + 1},
                    )
                yield from self.server.commit(txn)
                if op.kind == "rmw":
                    self.rmw_applied += 1
                return
            except TransactionAborted:
                yield from self.server.abort(txn)
                yield self.env.timeout(0.5 * (attempt + 1))
        raise RuntimeError("retries exhausted")

    def counter_total(self):
        return sum(r["counter"] for r in self.server.engine.all_rows("usertable"))


def run_one(mix, level_name, isolation, seed):
    env = Environment(seed=seed)
    workload = YcsbWorkload(record_count=RECORDS, mix=mix, theta=THETA)
    executor = YcsbExecutor(env, isolation)
    executor.load(workload.initial_rows())
    ops = list(workload.operations(env.stream("ops"), OPS))
    driver = WorkloadDriver(env, label=f"{mix}/{level_name}")
    arrival = ClosedLoop(clients=CLIENTS, ops_per_client=OPS // CLIENTS,
                         think_time_ms=1.0)
    result = env.run_until(
        env.process(driver.run(ops[: arrival.total_ops], executor.execute, arrival))
    )
    lost = executor.rmw_applied - executor.counter_total()
    result.extra["lost_updates"] = lost
    # Deterministic per-cell kernel-event count for the e2e_b1_events_per_txn
    # accounting (extras do not appear in the committed result table).
    result.extra["events_executed"] = env.events_executed
    return result


#: Every cell of the matrix: (mix, level_name, isolation, seed).  Cells are
#: independent simulations, each a pure function of its seed.
CELLS = [
    (mix, level_name, isolation, 181 + index)
    for mix in ("C", "A", "F")
    for index, (level_name, isolation) in enumerate(LEVELS)
]


def run_all():
    return [run_one(*cell) for cell in CELLS]


def test_b1_ycsb_isolation_matrix(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(
        "B1", "YCSB mixes x isolation levels",
        format_rows(
            ["mix/level", "ops/s", "p50 ms", "p99 ms", "lost updates"],
            [[r.label, f"{r.throughput:.0f}", f"{r.p(50):.2f}",
              f"{r.p(99):.2f}", r.extra["lost_updates"]] for r in results],
        ),
    )
    by_label = {r.label: r for r in results}
    # Read-only: isolation level does not matter much.
    c_throughputs = [by_label[f"C/{n}"].throughput for n, _l in LEVELS]
    assert max(c_throughputs) < 2 * min(c_throughputs)
    # RMW at READ COMMITTED silently loses updates; stronger levels do not.
    assert by_label["F/read-committed"].extra["lost_updates"] > 0
    assert by_label["F/snapshot"].extra["lost_updates"] == 0
    assert by_label["F/serializable"].extra["lost_updates"] == 0
    # Stronger isolation costs tail latency on the contended RMW mix.
    assert (by_label["F/serializable"].p(99)
            > by_label["F/read-committed"].p(99))
