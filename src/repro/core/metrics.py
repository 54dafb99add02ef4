"""Latency/throughput measurement over virtual time.

Because the clock is virtual, latencies are exact (no measurement noise)
and percentiles are reproducible.  A :class:`MetricsCollector` is shared by
the workload drivers; benchmarks print its :meth:`MetricsCollector.summary`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches numpy's default behaviour; defined to avoid the dependency in
    the core path.  Raises ``ValueError`` on an empty sample set.
    """
    if not samples:
        raise ValueError("percentile of empty sample set")
    return percentile_sorted(sorted(samples), q)


def percentile_sorted(ordered: list[float], q: float) -> float:
    """:func:`percentile` over an already-sorted sample list (no re-sort)."""
    if not ordered:
        raise ValueError("percentile of empty sample set")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


class LatencyRecorder:
    """Accumulates latency samples for one operation type.

    Percentile queries sort once and cache the ordering; :meth:`record`
    invalidates the cache, so repeated ``p(50)``/``p(99)`` calls (every
    benchmark table renders several) cost one sort total.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._sorted: Optional[list[float]] = None

    def record(self, latency: float) -> None:
        self.samples.append(latency)
        self._sorted = None

    def extend(self, latencies: list[float]) -> None:
        """Bulk-append samples (pooling recorders across operations)."""
        self.samples.extend(latencies)
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def sorted_samples(self) -> list[float]:
        """Samples in ascending order (cached until the next record)."""
        if self._sorted is None:
            self._sorted = sorted(self.samples)
        return self._sorted

    def p(self, q: float) -> float:
        """Percentile; 0.0 when empty (keeps report rendering simple)."""
        return percentile_sorted(self.sorted_samples, q) if self.samples else 0.0


@dataclass
class OpSummary:
    """Per-operation aggregate used in benchmark tables."""

    name: str
    completed: int
    failed: int
    mean_ms: float
    p50_ms: float
    p99_ms: float


class MetricsCollector:
    """Shared sink for operation outcomes during a run.

    ``start()``/``stop()`` bracket the measured window in virtual time;
    throughput = completed / window.  Operations completing outside the
    window still record latency (the window only scales throughput).
    """

    def __init__(self) -> None:
        self._latencies: dict[str, LatencyRecorder] = defaultdict(LatencyRecorder)
        self._failures: dict[str, int] = defaultdict(int)
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None

    def start(self, now: float) -> None:
        self._started_at = now

    def stop(self, now: float) -> None:
        self._stopped_at = now

    @property
    def window(self) -> float:
        if self._started_at is None or self._stopped_at is None:
            return 0.0
        return self._stopped_at - self._started_at

    def record_success(self, op: str, latency: float) -> None:
        self._latencies[op].record(latency)

    def record_failure(self, op: str) -> None:
        self._failures[op] += 1

    #: Shared empty recorder returned for never-recorded operations, so
    #: read paths never insert rows (it is never handed out for writing).
    _EMPTY = LatencyRecorder()

    def completed(self) -> int:
        return sum(r.count for r in self._latencies.values())

    def failed(self) -> int:
        return sum(self._failures.values())

    def latency(self, op: str) -> LatencyRecorder:
        """Read-only view of one operation's samples.

        Never inserts: querying an unknown op returns an empty recorder
        without fabricating a row in :meth:`summary`.
        """
        return self._latencies.get(op, MetricsCollector._EMPTY)

    def recorders(self) -> dict[str, LatencyRecorder]:
        """The live per-operation recorders (do not mutate)."""
        return dict(self._latencies)

    def throughput(self) -> float:
        """Completed operations per second of virtual time (window-scaled)."""
        window_s = self.window / 1000.0  # clock unit is ms
        if window_s <= 0:
            return 0.0
        return self.completed() / window_s

    def summary(self) -> list[OpSummary]:
        """One row per operation type, sorted by name."""
        rows = []
        for name in sorted(set(self._latencies) | set(self._failures)):
            recorder = self._latencies.get(name, MetricsCollector._EMPTY)
            rows.append(
                OpSummary(
                    name=name,
                    completed=recorder.count,
                    failed=self._failures.get(name, 0),
                    mean_ms=recorder.mean,
                    p50_ms=recorder.p(50),
                    p99_ms=recorder.p(99),
                )
            )
        return rows


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    """Align rows under headers; the shared ASCII table helper.

    Ragged input is tolerated: rows shorter than ``headers`` are padded
    with empty cells, longer rows are truncated to the header width.
    """
    columns = len(headers)
    rows = [(row + [""] * (columns - len(row)))[:columns] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(columns)
    ]

    def fmt(row: list[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths))

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
