"""C1 — Programming paradigms differ in throughput, latency, and consistency.

Paper claim (§3.1/§4): microservice frameworks, actors, stateful FaaS, and
dataflows occupy different points in the performance/consistency space;
the trade-offs only become visible when the *same* application runs on all
of them.

This bench runs the bank-transfer workload on eight builds and reports the
standard table.  Expected shape:

- weak builds (db-read-committed, faas-kv) are fast but dirty (anomalies);
- coordinated builds (actors+txn, faas-entities/workflow) are clean but
  slower;
- durable-workflows is the instructive middle: workflow *progress* is
  exactly-once, yet its unlocked activities still race on the shared KV —
  exactly why Durable Functions also ships explicit entity locks (§4.2);
- txn-dataflow is clean with throughput competitive to the coordinated
  builds (batching amortizes commits).
"""

from repro.apps import ActorBank, DbBank, FaasBank, TxnDataflowBank
from repro.apps.banking import DurableWorkflowBank
from repro.db import IsolationLevel
from repro.sim import Environment
from repro.harness import format_results
from repro.workloads import TransferWorkload

from benchmarks.common import report, run_transfers

OPS = 160
CLIENTS = 8

BUILDERS = [
    ("db-serializable", lambda env, w: (DbBank(env, w), False)),
    ("db-read-committed",
     lambda env, w: (DbBank(env, w, isolation=IsolationLevel.READ_COMMITTED), False)),
    ("actors-plain", lambda env, w: (ActorBank(env, w, mode="plain"), True)),
    ("actors-txn", lambda env, w: (ActorBank(env, w, mode="transaction"), True)),
    ("faas-kv", lambda env, w: (FaasBank(env, w, mode="kv"), True)),
    ("faas-entities", lambda env, w: (FaasBank(env, w, mode="entities"), True)),
    ("faas-workflow", lambda env, w: (FaasBank(env, w, mode="workflow"), True)),
    ("durable-workflows", lambda env, w: (DurableWorkflowBank(env, w), True)),
    ("txn-dataflow", lambda env, w: (TxnDataflowBank(env, w), True)),
]


def run_one(index):
    """One paradigm build end to end."""
    label, build = BUILDERS[index]
    env = Environment(seed=1000 + index)
    workload = TransferWorkload(num_accounts=40, theta=0.7)
    bank, needs_setup = build(env, workload)
    if isinstance(bank, TxnDataflowBank):
        bank.start()
    return run_transfers(env, bank, workload, label, ops_count=OPS,
                         clients=CLIENTS, setup=needs_setup)


def run_all():
    return [run_one(index) for index in range(len(BUILDERS))]


def test_c1_paradigm_comparison(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report("C1", "same transfer workload on every paradigm",
           format_results(results))
    by_label = {r.label: r for r in results}

    # Strong builds are clean.
    for label in ("db-serializable", "actors-txn", "faas-entities",
                  "faas-workflow", "txn-dataflow"):
        assert by_label[label].anomalies.clean, label

    # At least one weak build exhibits anomalies under this contention.
    weak_dirty = [
        label for label in ("db-read-committed", "faas-kv")
        if not by_label[label].anomalies.clean
    ]
    assert weak_dirty, "expected at least one weak build to violate invariants"

    # Coordination costs latency: actor transactions slower than plain actors.
    assert by_label["actors-txn"].p(50) > by_label["actors-plain"].p(50)
