"""Benchmark report rendering: the tables the benches print, plus traces."""

from __future__ import annotations

import os
from typing import Iterable

from repro.core.metrics import render_table
from repro.harness.driver import RunResult
from repro.obs import Tracer, chrome_trace_json, critical_path_report


def format_rows(headers: list[str], rows: list[list[object]]) -> str:
    """Render arbitrary rows (stringified) under headers."""
    return render_table(headers, [[str(cell) for cell in row] for row in rows])


#: the slowest operations a saved trace's critical-path report decomposes
CRITICAL_TOP = 3


def format_results(results: Iterable[RunResult]) -> str:
    """The standard benchmark table: perf columns + the correctness column."""
    rows = []
    for result in results:
        rows.append(
            [
                result.label,
                f"{result.completed}",
                f"{result.failed}",
                f"{result.throughput:.1f}",
                f"{result.p(50):.2f}",
                f"{result.p(99):.2f}",
                result.anomalies.summary(),
            ]
        )
    return render_table(
        ["configuration", "ok", "fail", "ops/s", "p50 ms", "p99 ms", "anomalies"],
        rows,
    )


def save_trace(
    trace: Tracer,
    directory: str,
    label: str,
) -> tuple[str, str]:
    """Write one tracer's artifacts; returns (chrome_path, critpath_path).

    ``<label>.trace.json`` loads in ``chrome://tracing`` / Perfetto;
    ``<label>.critpath.txt`` is the text critical-path decomposition of the
    slowest operations.
    """
    os.makedirs(directory, exist_ok=True)
    chrome_path = os.path.join(directory, f"{label}.trace.json")
    with open(chrome_path, "w") as handle:
        handle.write(chrome_trace_json(trace))
    crit_path = os.path.join(directory, f"{label}.critpath.txt")
    with open(crit_path, "w") as handle:
        handle.write(critical_path_report(trace, top=CRITICAL_TOP) + "\n")
    return chrome_path, crit_path
