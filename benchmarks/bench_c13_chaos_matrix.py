"""C13 — chaos matrix: which runtime survives which fault class?

The tutorial's core claim is that transactional guarantees must come from
*protocols* (sagas with compensations, actor 2PC, deterministic dataflow
checkpointing, OCC workflows with idempotency), because the substrate
will crash, partition, drop, duplicate, and delay regardless.  This
benchmark operationalizes that: every runtime is fuzzed by the seeded
chaos nemesis (``repro.chaos``) restricted to one fault class per cell,
plus a mixed-schedule column.  Every row but the saga shop runs the
double-entry ledger app, so each trial is judged by the oracles its spec
compiles (conservation, double entry, causal audit, applied exactly
once) plus, on the isolated runtimes, the mid-run snapshot audits; the
saga shop keeps its saga-atomicity oracle.

Expected shape: every *sound* configuration survives every admissible
fault class (0 violations); the intentionally broken configurations —
the saga shop without compensations, plain actors without transactions,
the migration flip without drain, unfenced replication — are caught by
the same oracles under the same schedules, which is the evidence that
the harness can actually see the difference.
"""

import dataclasses

from repro.chaos import run_trial
from repro.chaos.scenarios import build_scenario
from repro.harness import format_rows
from repro.sim import Environment

from benchmarks.common import report

SEEDS = tuple(range(1, 7))
COLUMNS = ("crash", "kill_leader", "partition", "loss", "duplication", "delay", "mixed")
RUNTIME_ROWS = (
    ("microservice", False, "microservice (saga)"),
    ("actor", False, "actors (2pc)"),
    ("dataflow", False, "dataflow (ckpt+replay)"),
    ("faas", False, "faas (occ workflows)"),
    ("cluster", False, "cluster (live rebalancing)"),
    ("replication", False, "replication (quorum+fencing)"),
    ("microservice", True, "microservice (no compensation)"),
    ("actor", True, "actors (plain, no txn)"),
    ("cluster", True, "cluster (flip w/o drain)"),
    ("replication", True, "replication (no fencing)"),
)


def cell_config(runtime, kind):
    """The scenario's own fault budget, narrowed to one class per cell."""
    config = build_scenario(runtime, Environment(seed=0)).default_config
    if kind != "mixed":
        config = dataclasses.replace(config, fault_classes=(kind,))
    if not config.effective_classes():
        return None  # class not admissible for this runtime (no targets)
    return config


def run_cell(runtime, kind, broken, seeds=SEEDS):
    """Violating trials among ``seeds`` for one fault class (None: the
    class is not admissible for this runtime)."""
    config = cell_config(runtime, kind)
    if config is None:
        return None
    bad = 0
    for seed in seeds:
        result = run_trial(runtime, seed, config=config, broken=broken)
        if result.violations:
            bad += 1
    return bad


def run_matrix():
    matrix = {}
    for runtime, broken, label in RUNTIME_ROWS:
        for kind in COLUMNS:
            matrix[(label, kind)] = run_cell(runtime, kind, broken)
    return matrix


def test_c13_chaos_matrix(benchmark):
    matrix = benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    def show(value):
        return "-" if value is None else f"{value}/{len(SEEDS)}"

    rows = [
        [label] + [show(matrix[(label, kind)]) for kind in COLUMNS]
        for _, _, label in RUNTIME_ROWS
    ]
    report(
        "C13", "chaos survival matrix (violating trials / trials per fault class)",
        format_rows(["configuration"] + list(COLUMNS), rows),
    )

    # Every sound configuration survives every admissible fault class.
    for runtime, broken, label in RUNTIME_ROWS:
        if broken:
            continue
        for kind in COLUMNS:
            value = matrix[(label, kind)]
            assert value is None or value == 0, (label, kind, value)
    # The oracles can tell the difference: the unsound actor configuration
    # is caught under message-level faults and under mixed schedules.
    broken_actor = "actors (plain, no txn)"
    caught = sum(
        matrix[(broken_actor, kind)] or 0
        for kind in ("loss", "duplication", "mixed")
    )
    assert caught > 0, matrix
    # ... and the undrained migration flip is caught even though the
    # sound cluster configuration survives the same schedules.
    broken_cluster = "cluster (flip w/o drain)"
    caught = sum(
        matrix[(broken_cluster, kind)] or 0
        for kind in ("crash", "partition", "mixed")
    )
    assert caught > 0, matrix
    # ... and unfenced replication loses updates once a deposed leader's
    # stale acks slip through — caught under leader-targeted schedules
    # while the fenced configuration above survives the very same ones.
    broken_repl = "replication (no fencing)"
    caught = sum(
        matrix[(broken_repl, kind)] or 0
        for kind in ("kill_leader", "crash", "partition", "mixed")
    )
    assert caught > 0, matrix
