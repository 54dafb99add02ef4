"""Smoke test for the perf harness (marked ``perf``; not in tier-1).

Runs every bench at reduced scale and checks the metrics come back sane.
For the gated run against the committed baseline use::

    PYTHONPATH=src python scripts/perfcheck.py
"""

import pytest

from benchmarks.perf import bench_kernel, bench_locks

pytestmark = pytest.mark.perf


def test_kernel_smoke():
    metrics = bench_kernel.run(smoke=True)
    assert metrics["kernel_events_per_sec"] > 0
    assert metrics["kernel_heap_only_events_per_sec"] > 0
    # The fast path must never be slower than the heap-only executor.
    assert metrics["kernel_fast_path_speedup"] >= 1.0


def test_locks_smoke():
    metrics = bench_locks.run(smoke=True)
    for name, value in metrics.items():
        assert value > 0, name
