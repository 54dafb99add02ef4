"""Wall-clock performance harness for the simulation substrate.

Everything under ``benchmarks/perf`` measures *real* time with
``time.perf_counter`` — allowed here precisely because it is banned in
``src/`` (see ``tests/test_no_wallclock.py``): simulated behaviour must
never depend on the host clock, but the harness exists to measure the
host clock.

Entry point: ``python scripts/perfcheck.py`` runs the four microbench
families (kernel, locks, storage, messaging), writes ``BENCH_perf.json``
at the repo root, and diffs against the committed baseline in
``benchmarks/perf/baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_perf.json")
BASELINE_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.json")


def affinity_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine; containers and ``taskset`` can
    pin the runner to fewer cores; recorded beside every result set so a
    reader can tell a noisy shared runner from the baseline host.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def host_info() -> dict:
    """Identify the machine a result set was measured on."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "cpus_affinity": affinity_cpus(),
    }


def tracing_mode() -> dict:
    """Which observability modes are active in this process.

    Tracing (and any profiler hooks) slow the measured code down, so
    numbers taken with different modes are not comparable — results and
    the baseline both record the mode, and the gate warns loudly on a
    mismatch instead of silently comparing apples to oranges.
    """
    from repro.obs import default_tracing_enabled

    return {
        "default_tracing": bool(default_tracing_enabled()),
        "profile_hooks": sys.getprofile() is not None,
    }


def write_results(metrics: dict) -> str:
    """Persist a metrics dict (metric name -> number) as BENCH_perf.json."""
    payload = {
        "host": host_info(),
        "mode": tracing_mode(),
        "metrics": metrics,
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return BENCH_JSON


def load_baseline() -> dict:
    """Load the committed baseline, or an empty dict if absent."""
    if not os.path.exists(BASELINE_JSON):
        return {}
    with open(BASELINE_JSON) as handle:
        return json.load(handle)
