"""Deterministic profiling over the simulation substrate.

Wall-clock profilers answer "where did the seconds go", but their output
differs run to run and host to host, so it can never be committed or
gated.  This layer profiles what is *deterministic* under a pinned seed
instead:

- **call counts** — :class:`CallCountProfiler` wraps :mod:`cProfile` but
  ranks by *number of calls*, restricted to ``repro`` code.  Under a
  pinned seed every call count is a pure function of the workload, so the
  ranked hot-function table is byte-stable across hosts and can be
  committed (``benchmarks/perf/profile_report.txt``) and drift-checked
  in CI.  A function's call count is also the honest "how hot is this
  path" signal for an interpreter workload: per-call overhead dominates,
  so calls ≈ cost.
- **per-transaction event accounting** — :func:`events_per_txn` divides
  kernel events by committed transactions: the "how much machinery does
  one transaction turn" figure in the committed profile report and the
  benchmark suite's ``events_per_txn`` (lower is better; every eliminated
  event is interpreter work every transaction no longer pays).

Nothing here reads the host clock (``tests/test_no_wallclock.py``
enforces that for all of ``src/``); wall-clock timing stays in
``benchmarks/perf``.
"""

from __future__ import annotations

import cProfile
import os
from typing import Any

#: absolute path of the ``repro`` package (profiles are restricted to it)
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class CallCountProfiler:
    """Collects per-function call counts for ``repro`` code.

    Use as a context manager around the region of interest::

        with CallCountProfiler() as prof:
            run_workload()
        print(prof.report(top=25))

    Only functions defined under the profiled package root are reported —
    stdlib and builtin callables vary across CPython patch versions, so
    including them would make the committed report churn for reasons that
    have nothing to do with this codebase.  Labels are
    ``<subsystem> <module>.<qualname>`` without line numbers, so moving a
    function within its file does not churn the report either.
    """

    def __init__(self) -> None:
        self._profile = cProfile.Profile()

    # -- collection ---------------------------------------------------------

    def __enter__(self) -> "CallCountProfiler":
        self._profile.enable()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._profile.disable()

    # -- aggregation --------------------------------------------------------

    def counts(self) -> list[tuple[str, str, int]]:
        """``(subsystem, label, calls)`` rows, hottest first.

        Rows are sorted by descending call count, then label, so the
        order is total (byte-stable) even between functions with equal
        counts.
        """
        root = _PACKAGE_ROOT.rstrip(os.sep) + os.sep
        rows: list[tuple[str, str, int]] = []
        for entry in self._profile.getstats():
            code = entry.code
            if isinstance(code, str):  # builtin: host-dependent, skip
                continue
            filename = code.co_filename
            if not filename.startswith(root):
                continue
            rel = filename[len(root):]
            parts = rel.split(os.sep)
            subsystem = parts[0] if len(parts) > 1 else "(package)"
            module = os.path.basename(filename)
            if module.endswith(".py"):
                module = module[:-3]
            qualname = getattr(code, "co_qualname", code.co_name)
            rows.append((subsystem, f"{module}.{qualname}", entry.callcount))
        rows.sort(key=lambda row: (-row[2], row[1], row[0]))
        return rows

    def by_subsystem(self) -> dict[str, int]:
        """Total ``repro`` calls grouped by top-level subpackage."""
        totals: dict[str, int] = {}
        for subsystem, _label, calls in self.counts():
            totals[subsystem] = totals.get(subsystem, 0) + calls
        return totals

    # -- reporting ----------------------------------------------------------

    def report(self, top: int = 25, scenario: str = "") -> str:
        """The committed hot-function report.

        Deterministic under a pinned seed: no wall-clock figures, no
        absolute paths, no line numbers.  Two runs of the same code on
        the same workload produce byte-identical text; a diff therefore
        means the hot path itself changed.
        """
        rows = self.counts()
        lines = ["# Deterministic hot-function report (ranked by call count)"]
        if scenario:
            lines.append(f"# scenario: {scenario}")
        lines.append(
            "# regenerate: PYTHONPATH=src python scripts/perfcheck.py --profile"
        )
        lines.append("")
        lines.append("calls by subsystem:")
        by_sub = self.by_subsystem()
        width = max((len(name) for name in by_sub), default=0)
        for name in sorted(by_sub, key=lambda n: (-by_sub[n], n)):
            lines.append(f"  {name:<{width}}  {by_sub[name]:>10d}")
        lines.append("")
        lines.append(f"top {min(top, len(rows))} functions by calls:")
        for rank, (subsystem, label, calls) in enumerate(rows[:top], start=1):
            lines.append(f"  {rank:>3d}. {calls:>10d}  {subsystem:<12s} {label}")
        lines.append("")
        return "\n".join(lines)


# -- per-transaction accounting ----------------------------------------------


def events_per_txn(events: int, transactions: int) -> float:
    """Kernel events per committed transaction (lower is better).

    The first-class efficiency metric of the hot-path work: wall-clock
    throughput varies with the host, but *events per transaction* is a
    pure function of the workload and the code — a regression here means
    the machinery per transaction grew, on every host equally.  Rounded
    so the figure is stable in committed artifacts.
    """
    if transactions <= 0:
        return 0.0
    return round(events / transactions, 2)


__all__ = [
    "CallCountProfiler",
    "events_per_txn",
]
