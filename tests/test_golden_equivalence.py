"""Golden same-seed equivalence: the fast paths are invisible.

``Environment(fast_path=False)`` keeps the pre-optimization heap-only
executor as a permanent reference implementation, and the storage engine
keeps its own reference modes (``gc=False``, ``group_commit=False``,
``copy_reads=True``).  These tests run real claim-bench workloads in both
modes and assert the *formatted result tables* and a *Chrome trace export*
are byte-identical: a fast path may change wall-clock time only, never
virtual-time behaviour.
"""

import pytest

from repro.db.engine import Database
from repro.harness import WorkloadDriver, format_rows
from repro.obs import Tracer
from repro.sim import Environment
from repro.workloads import ClosedLoop, TransferWorkload


def _force_fast_path(monkeypatch, value):
    """Route every Environment construction through fast_path=``value``."""
    original = Environment.__init__

    def patched(self, seed=0, tracer=None, fast_path=True):
        original(self, seed=seed, tracer=tracer, fast_path=value)

    monkeypatch.setattr(Environment, "__init__", patched)


def _force_storage_modes(monkeypatch, optimized):
    """Route every Database construction through the storage fast paths
    (``optimized=True``) or their reference modes (``optimized=False``)."""
    original = Database.__init__

    def patched(self, env, name="db", **kwargs):
        kwargs.update(
            gc=optimized, group_commit=optimized, copy_reads=not optimized
        )
        original(self, env, name, **kwargs)

    monkeypatch.setattr(Database, "__init__", patched)


def _b1_table():
    from benchmarks import bench_b1_ycsb

    results = bench_b1_ycsb.run_all()
    return format_rows(
        ["mix/level", "ops/s", "p50 ms", "p99 ms", "lost updates"],
        [[r.label, f"{r.throughput:.0f}", f"{r.p(50):.2f}",
          f"{r.p(99):.2f}", r.extra["lost_updates"]] for r in results],
    )


def _c1_table():
    from benchmarks import bench_c1_paradigms

    results = bench_c1_paradigms.run_all()
    return format_rows(
        ["paradigm", "ops/s", "p50 ms", "p99 ms"],
        [[r.label, f"{r.throughput:.0f}", f"{r.p(50):.2f}", f"{r.p(99):.2f}"]
         for r in results],
    )


def _traced_transfer_json():
    from repro.apps import DbBank

    tracer = Tracer()
    env = Environment(seed=77, tracer=tracer)
    workload = TransferWorkload(num_accounts=20, theta=0.7)
    bank = DbBank(env, workload)
    ops = list(workload.operations(env.stream("ops:golden"), 64))
    driver = WorkloadDriver(env, label="golden")
    driver.ledger = bank.ledger
    arrival = ClosedLoop(clients=4, ops_per_client=16, think_time_ms=2.0)
    result = env.run_until(
        env.process(driver.run(ops, bank.execute, arrival))
    )
    return result.trace_json()


@pytest.mark.parametrize("table_fn", [_b1_table, _c1_table],
                         ids=["B1", "C1"])
def test_result_tables_identical_across_modes(monkeypatch, table_fn):
    _force_fast_path(monkeypatch, True)
    fast = table_fn()
    _force_fast_path(monkeypatch, False)
    heap_only = table_fn()
    assert fast == heap_only


def test_trace_export_identical_across_modes(monkeypatch):
    _force_fast_path(monkeypatch, True)
    fast = _traced_transfer_json()
    _force_fast_path(monkeypatch, False)
    heap_only = _traced_transfer_json()
    assert fast == heap_only


@pytest.mark.parametrize("table_fn", [_b1_table, _c1_table],
                         ids=["B1", "C1"])
def test_result_tables_identical_across_storage_modes(monkeypatch, table_fn):
    """GC + group commit + copy elision on vs. all reference modes."""
    _force_storage_modes(monkeypatch, True)
    optimized = table_fn()
    _force_storage_modes(monkeypatch, False)
    reference = table_fn()
    assert optimized == reference


def test_trace_export_identical_across_storage_modes(monkeypatch):
    _force_storage_modes(monkeypatch, True)
    optimized = _traced_transfer_json()
    _force_storage_modes(monkeypatch, False)
    reference = _traced_transfer_json()
    assert optimized == reference


# -- grant fast path (uncontended lock/pool acquires skip the kernel) ---------


def _force_fast_grants(monkeypatch, value):
    """Route every Database through ``fast_grants=`` (a DatabaseServer
    reads the flag back from its engine, so it follows)."""
    original = Database.__init__

    def patched(self, env, name="db", **kwargs):
        kwargs["fast_grants"] = value
        original(self, env, name, **kwargs)

    monkeypatch.setattr(Database, "__init__", patched)


@pytest.mark.parametrize("table_fn", [_b1_table, _c1_table],
                         ids=["B1", "C1"])
def test_result_tables_identical_across_grant_modes(monkeypatch, table_fn):
    """Uncontended acquires resolving synchronously (fast_grants=True) vs
    always round-tripping through the kernel (the reference mode) must
    produce byte-identical result tables: a grant that is already done
    carries no virtual-time charge either way."""
    _force_fast_grants(monkeypatch, True)
    fast = table_fn()
    _force_fast_grants(monkeypatch, False)
    reference = table_fn()
    assert fast == reference


def test_trace_export_identical_across_grant_modes(monkeypatch):
    _force_fast_grants(monkeypatch, True)
    fast = _traced_transfer_json()
    _force_fast_grants(monkeypatch, False)
    reference = _traced_transfer_json()
    assert fast == reference
