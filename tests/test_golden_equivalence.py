"""Golden same-seed equivalence: the fast paths are invisible.

``Environment(fast_path=False)`` is the stack's one reference switch: the
heap-only executor, and engines that keep every version, fsync every
commit and copy every read.  These tests run real claim-bench workloads
in both modes and assert the *formatted result tables*, the C17
deployments' per-op latencies, end times and final state, and a *Chrome
trace export* are identical: a fast path may change wall-clock time only,
never virtual-time behaviour.  The storage-mode and grant-mode cases
split the switch in two, so a divergence names the half that caused it.
"""

import pytest

from repro.db.engine import Database
from repro.harness import WorkloadDriver, format_rows
from repro.obs import Tracer
from repro.sim import Environment
from repro.workloads import ClosedLoop, TransferWorkload


_ENV_INIT = Environment.__init__


def _force_fast_path(monkeypatch, value):
    """Route every Environment construction through fast_path=``value``.
    Wraps the real ``__init__``: wrapping an earlier patch would let it
    override ``value`` straight back."""

    def patched(self, seed=0, tracer=None, fast_path=True):
        _ENV_INIT(self, seed=seed, tracer=tracer, fast_path=value)

    monkeypatch.setattr(Environment, "__init__", patched)


_DB_INIT = Database.__init__


def _force_engine_mode(monkeypatch, value):
    """Build every Database as if its env had fast_path=``value``, leaving
    the kernel's own mode alone.  The engine reads the switch only while
    it is constructed, so flipping it around ``__init__`` is exact."""

    def patched(self, env, name="db"):
        kernel_mode = env.fast_path
        env.fast_path = value
        try:
            _DB_INIT(self, env, name)
        finally:
            env.fast_path = kernel_mode

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


def _c14_result():
    from benchmarks import bench_c14_elasticity

    result = bench_c14_elasticity.run_elasticity()
    result["migrations"] = repr(result["migrations"])
    del result["db"]
    return result


def _c17_fault_free():
    """Every C17 deployment's fault-free run (``drive``): goodput, per-op
    (start, end, outcome), the run's end time, and the final snapshot."""
    from benchmarks import bench_c17_app_matrix as c17

    return {
        label: c17.drive(app, runtime, opts)
        for app, runtime, opts, _sound, label in c17.DEPLOYMENTS
    }


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


def _assert_identical_across_modes(monkeypatch, run):
    _force_fast_path(monkeypatch, True)
    fast = run()
    _force_fast_path(monkeypatch, False)
    reference = run()
    if isinstance(fast, dict):  # name the first diverging deployment or field
        for key in fast:
            assert fast[key] == reference.get(key), key
    assert fast == reference


@pytest.mark.parametrize(
    "run", [_b1_table, _c1_table, _c14_result, _c17_fault_free],
    ids=["B1", "C1", "C14", "C17-fault-free"],
)
def test_result_tables_identical_across_modes(monkeypatch, run):
    _assert_identical_across_modes(monkeypatch, run)


def test_trace_export_identical_across_modes(monkeypatch):
    _assert_identical_across_modes(monkeypatch, _traced_transfer_json)


# -- each half of the switch on its own ---------------------------------------


def _assert_identical_with_one_half_reference(monkeypatch, run, *, kernel, engine):
    fast = run()
    _force_fast_path(monkeypatch, kernel)
    _force_engine_mode(monkeypatch, engine)
    reference = run()
    assert fast == reference


@pytest.mark.parametrize("run", [_b1_table, _c1_table], ids=["B1", "C1"])
def test_result_tables_identical_across_storage_modes(monkeypatch, run):
    """Engines in reference mode (every version kept, one fsync per commit,
    copying reads, read-only commits not elided) on the fast kernel."""
    _assert_identical_with_one_half_reference(
        monkeypatch, run, kernel=True, engine=False
    )


def test_trace_export_identical_across_storage_modes(monkeypatch):
    _assert_identical_with_one_half_reference(
        monkeypatch, _traced_transfer_json, kernel=True, engine=False
    )


@pytest.mark.parametrize("run", [_b1_table, _c1_table], ids=["B1", "C1"])
def test_result_tables_identical_across_grant_modes(monkeypatch, run):
    """Fast engines on the heap-only kernel.  A grant that is already done
    is consumed synchronously in both modes (yielding it would hand the
    turn to other same-instant processes: a different schedule), so the
    grant path differs only in how the kernel hands a grant resolved
    later to its waiter: the ready deque, or a heap round trip."""
    _assert_identical_with_one_half_reference(
        monkeypatch, run, kernel=False, engine=True
    )


def test_trace_export_identical_across_grant_modes(monkeypatch):
    _assert_identical_with_one_half_reference(
        monkeypatch, _traced_transfer_json, kernel=False, engine=True
    )
