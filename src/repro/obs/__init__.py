"""Causal observability over the deterministic simulator.

The paper's claims are all about *where time goes* in transactional cloud
runtimes — round trips, 2PC blocking windows, outbox hops, actor-transaction
overhead.  This package makes every benchmark number inspectable: a
:class:`Tracer` records virtual-clock spans threaded through the whole stack
(network messages, broker operations, RPC, database calls, lock waits, 2PC
phases, saga steps), and exporters turn a run into a Chrome
``trace_event`` JSON (load in ``chrome://tracing`` / Perfetto) or a text
critical-path report.

Tracing is **zero-cost when disabled** (the shared :data:`NULL_TRACER` is a
pile of no-ops) and **deterministic when enabled**: spans carry virtual
timestamps and counter-issued ids only, so two same-seed runs export
byte-identical traces — and tracing never adds virtual time, so traced and
untraced runs produce identical metrics.
"""

from repro.obs.export import chrome_trace_events, chrome_trace_json, critical_path_report
from repro.obs.profile import CallCountProfiler, events_per_txn
from repro.obs.tracer import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    default_tracer,
    default_tracing_enabled,
    drain_registered_tracers,
    set_default_tracing,
)

__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "CallCountProfiler",
    "NullTracer",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "chrome_trace_json",
    "critical_path_report",
    "default_tracer",
    "default_tracing_enabled",
    "drain_registered_tracers",
    "events_per_txn",
    "set_default_tracing",
]
