"""C10 — Complex transactional applications (TPC-C) stress SFaaS systems.

Paper claims (§4.2, refs [52]): "recent work has found challenges in
supporting large-scale, complex transactional applications like TPC-C in
existing state-of-the-art SFaaS systems"; the Styx line of work responds
with deterministic transactional dataflows.

Setup: TPC-C-lite (45% NewOrder / 43% Payment / 12% OrderStatus) at high
contention (1 warehouse) and lower contention (4 warehouses) on:

- the monolithic serializable database (the pre-cloud baseline),
- Beldi-style OCC workflows over a shared KV (aborts/retries under
  contention — NewOrder reads 7-17 keys),
- the Styx-like deterministic dataflow (no aborts; conflicts serialize in
  epoch waves).

TPC-C consistency conditions are checked on all three.  Expected shape:
all clean; the OCC build bleeds throughput to retries as contention rises
(its conflict count explodes); the deterministic build's abort count stays
zero.
"""

from repro.apps import DbTpcc, StyxTpcc, WorkflowTpcc
from repro.harness import WorkloadDriver, format_rows
from repro.sim import Environment
from repro.workloads import ClosedLoop, TpccLite

from benchmarks.common import report

OPS = 120
CLIENTS = 8


def run_impl(name, factory, warehouses, seed):
    env = Environment(seed=seed)
    workload = TpccLite(warehouses=warehouses)
    impl = factory(env, workload)
    ops = list(workload.operations(env.stream("ops"), OPS))
    driver = WorkloadDriver(env, label=f"{name}/w={warehouses}")
    driver.ledger = impl.ledger
    arrival = ClosedLoop(clients=CLIENTS, ops_per_client=OPS // CLIENTS,
                         think_time_ms=2.0)
    result = env.run_until(
        env.process(
            driver.run(ops[: arrival.total_ops], impl.execute, arrival,
                       invariants=workload.invariants(),
                       state_fn=impl.final_state)
        )
    )
    if isinstance(impl, WorkflowTpcc):
        extra = {"conflicts": impl.engine.stats.conflicts, "aborts": "n/a"}
    elif isinstance(impl, StyxTpcc):
        extra = {"conflicts": "n/a", "aborts": impl.engine.stats.aborted}
    else:
        extra = {"conflicts": impl.server.engine.locks.stats.deadlocks,
                 "aborts": impl.server.engine.stats.aborted}
    result.extra.update(extra)
    return result


#: Cells of the matrix: (name, factory, warehouses, seed).
CELLS = [
    (name, factory, warehouses, seed)
    for warehouses in (1, 4)
    for name, factory, seed in (
        ("monolith-db", DbTpcc, 101),
        ("beldi-workflows", WorkflowTpcc, 102),
        ("styx-dataflow", StyxTpcc, 103),
    )
]


def run_all():
    return [run_impl(*cell) for cell in CELLS]


def test_c10_tpcc(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(
        "C10", "TPC-C-lite across transactional runtimes",
        format_rows(
            ["build", "ops/s", "p50 ms", "p99 ms", "conflicts", "aborts",
             "anomalies"],
            [[r.label, f"{r.throughput:.0f}", f"{r.p(50):.1f}",
              f"{r.p(99):.1f}", r.extra.get("conflicts"),
              r.extra.get("aborts"), r.anomalies.summary()] for r in results],
        ),
    )
    # Every build keeps the TPC-C consistency conditions.
    for result in results:
        assert result.anomalies.clean, result.label
    by_label = {r.label: r for r in results}
    # OCC conflicts explode at high contention...
    assert by_label["beldi-workflows/w=1"].extra["conflicts"] > 0
    assert (by_label["beldi-workflows/w=1"].extra["conflicts"]
            > by_label["beldi-workflows/w=4"].extra["conflicts"])
    # ...while deterministic execution never aborts.
    assert by_label["styx-dataflow/w=1"].extra["aborts"] == 0
    assert by_label["styx-dataflow/w=4"].extra["aborts"] == 0
