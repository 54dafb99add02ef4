"""Tests for ``scripts/perfcheck.py``, the wall-clock microbench gate.

The benches themselves are stubbed out: these tests pin which families
the harness runs, that a smoke run writes nothing, and which metrics the
regression gate compares.
"""

import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.fixture(scope="module")
def perfcheck():
    path = os.path.join(ROOT, "scripts", "perfcheck.py")
    spec = importlib.util.spec_from_file_location("perfcheck", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_collect_runs_exactly_the_four_microbench_families(perfcheck, monkeypatch):
    from benchmarks.perf import bench_kernel, bench_locks, bench_messaging, bench_storage

    ran = []
    for family, module in (("kernel", bench_kernel), ("locks", bench_locks),
                           ("storage", bench_storage),
                           ("messaging", bench_messaging)):
        monkeypatch.setattr(
            module, "run",
            lambda smoke, family=family: ran.append(family)
            or {f"{family}_stub_per_sec": 1.0},
        )
    metrics = perfcheck.collect(smoke=True)
    assert ran == ["kernel", "locks", "storage", "messaging"]
    assert sorted(metrics) == sorted(f"{family}_stub_per_sec" for family in ran)


def test_smoke_run_writes_no_results_file(perfcheck, monkeypatch):
    import benchmarks.perf

    written = []
    monkeypatch.setattr(perfcheck, "collect",
                        lambda smoke: {"kernel_events_per_sec": 1.0})
    monkeypatch.setattr(benchmarks.perf, "write_results",
                        lambda *args, **kwargs: written.append(args) or "x")
    assert perfcheck.main(["--smoke"]) == 0
    assert written == []


def test_throughput_gate_is_twenty_percent(perfcheck):
    base = {"locks_contended_ops_per_sec": 1000.0}
    assert perfcheck.compare({"locks_contended_ops_per_sec": 790.0}, base)
    assert perfcheck.compare({"locks_contended_ops_per_sec": 810.0}, base) == []


def test_speedup_drop_is_flagged(perfcheck):
    regressions = perfcheck.compare({"kernel_fast_path_speedup": 1.0},
                                    {"kernel_fast_path_speedup": 1.442})
    assert len(regressions) == 1
    assert regressions[0].startswith("kernel_fast_path_speedup")


def test_absent_metrics_and_counts_are_not_gated(perfcheck):
    from benchmarks.perf import load_baseline

    baseline = load_baseline()["metrics"]
    # Counts are recorded beside the throughputs but never compared, and
    # every baseline metric missing from the run is skipped.
    run = {
        "storage_commit_flushes_grouped": baseline["storage_commit_flushes_grouped"] * 50,
        "storage_commit_flushes_reference": baseline["storage_commit_flushes_reference"] * 50,
        "storage_hotkey_max_chain": baseline["storage_hotkey_max_chain"] * 50,
    }
    assert perfcheck.compare(run, baseline) == []
