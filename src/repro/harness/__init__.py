"""Experiment harness: drive workloads, measure, reconcile, report.

Ties together the pieces every benchmark needs: an arrival process
(:mod:`repro.workloads.arrivals`), an adapter that executes abstract
operations on a runtime, a :class:`~repro.core.metrics.MetricsCollector`,
and an :class:`~repro.transactions.anomalies.EffectLedger` — so each bench
prints both a performance row *and* a correctness row, per the paper's
§5.3 critique of performance-only benchmarks.
"""

from repro.harness.driver import RunResult, WorkloadDriver
from repro.harness.report import (
    format_results,
    format_rows,
    save_trace,
)

__all__ = [
    "RunResult",
    "WorkloadDriver",
    "format_results",
    "format_rows",
    "save_trace",
]
