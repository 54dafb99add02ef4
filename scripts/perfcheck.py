#!/usr/bin/env python
"""Run the wall-clock microbenches and gate on the committed baseline.

Usage::

    PYTHONPATH=src python scripts/perfcheck.py            # full run + gate
    PYTHONPATH=src python scripts/perfcheck.py --smoke    # quick sanity run
    PYTHONPATH=src python scripts/perfcheck.py --update-baseline

Four microbench families run: kernel, locks, storage and messaging
(end-to-end host time is ``benchmarks/suite``'s job).  The full run writes
``BENCH_perf.json`` at the repo root and compares every throughput metric
(``*_per_sec``) and speedup (``*_speedup``) against
``benchmarks/perf/baseline.json``; a metric more than 20% below baseline
fails the check.  ``--smoke`` runs every bench at reduced scale, prints
its numbers and writes nothing (smoke numbers are not comparable to the
committed baseline).  ``--update-baseline`` rewrites the baseline from a
fresh full run — do this only on a quiet machine.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if REPO_SRC not in sys.path:
    sys.path.insert(0, REPO_SRC)

REGRESSION_TOLERANCE = 0.20

PROFILE_REPORT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "perf", "profile_report.txt",
)
PROFILE_SCENARIO = "B1 YCSB mix F / serializable / seed 183 (single cell)"


def profile_report_text(top: int = 25) -> str:
    """Deterministic hot-function report over one pinned-seed B1 cell.

    Ranked by call count (not wall time), restricted to ``repro`` code,
    with per-transaction kernel-event accounting appended — everything in
    the text is a pure function of the workload, so CI can regenerate it
    and fail on drift.
    """
    from benchmarks import bench_b1_ycsb
    from repro.obs import CallCountProfiler, events_per_txn

    with CallCountProfiler() as prof:
        result = bench_b1_ycsb.run_one(
            "F", "serializable", bench_b1_ycsb.LEVELS[2][1], seed=183
        )
    events = result.extra["events_executed"]
    txns = sum(
        recorder.count for recorder in result.metrics.recorders().values()
    )
    text = prof.report(top=top, scenario=PROFILE_SCENARIO)
    text += (
        "per-transaction accounting:\n"
        f"  kernel events executed  {events}\n"
        f"  completed transactions  {txns}\n"
        f"  events per transaction  {events_per_txn(events, txns)}\n"
    )
    return text


def collect(smoke: bool) -> dict:
    from benchmarks.perf import (
        bench_kernel,
        bench_locks,
        bench_messaging,
        bench_storage,
    )

    benches = (
        ("kernel", bench_kernel),
        ("locks", bench_locks),
        ("storage", bench_storage),
        ("messaging", bench_messaging),
    )
    metrics: dict[str, float] = {}
    for name, module in benches:
        print(f"[perfcheck] running {name} benches ...", flush=True)
        metrics.update(module.run(smoke=smoke))
    return metrics


def compare(metrics: dict, baseline_metrics: dict) -> list[str]:
    """Return a list of regression descriptions (empty = pass).

    Only throughputs (``*_per_sec``) and speedups (``*_speedup``) are
    gated; deterministic counts such as flush totals are recorded but not
    compared.
    """
    regressions = []
    for name, base in sorted(baseline_metrics.items()):
        current = metrics.get(name)
        if current is None or base <= 0:
            continue
        if name.endswith("_per_sec") or name.endswith("_speedup"):
            floor = base * (1.0 - REGRESSION_TOLERANCE)
            if current < floor:
                regressions.append(
                    f"{name}: {current:,.0f} < {floor:,.0f} "
                    f"(baseline {base:,.0f}, -{(1 - current / base):.0%})"
                )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced-scale sanity run; prints its numbers, writes no "
        "file and skips the regression gate",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite benchmarks/perf/baseline.json from this run",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="write the deterministic hot-function report "
        "(benchmarks/perf/profile_report.txt) instead of running the "
        "wall-clock benches",
    )
    parser.add_argument(
        "--check-drift", action="store_true",
        help="with --profile: regenerate the report and fail if it differs "
        "from the committed one (CI drift gate) instead of rewriting it",
    )
    args = parser.parse_args(argv)

    from benchmarks.perf import (
        BASELINE_JSON,
        host_info,
        load_baseline,
        tracing_mode,
        write_results,
    )

    if args.profile:
        text = profile_report_text()
        if args.check_drift:
            committed = ""
            if os.path.exists(PROFILE_REPORT):
                with open(PROFILE_REPORT) as handle:
                    committed = handle.read()
            if text != committed:
                print(
                    "[perfcheck] FAIL: profile report drifted from the "
                    f"committed {PROFILE_REPORT}"
                )
                print(
                    "[perfcheck] the hot path changed; regenerate with "
                    "`python scripts/perfcheck.py --profile` and review the diff"
                )
                current = committed.splitlines()
                new = text.splitlines()
                for line in new:
                    if line not in current:
                        print(f"  + {line}")
                for line in current:
                    if line not in new:
                        print(f"  - {line}")
                return 1
            print("[perfcheck] OK: profile report matches the committed one")
            return 0
        with open(PROFILE_REPORT, "w") as handle:
            handle.write(text)
        print(f"[perfcheck] wrote {PROFILE_REPORT}")
        print(text)
        return 0

    metrics = collect(smoke=args.smoke)
    for name in sorted(metrics):
        print(f"  {name:45s} {metrics[name]:>14,.8g}")
    if args.smoke:
        print("[perfcheck] smoke run OK (nothing written, regression gate skipped)")
        return 0
    print(f"[perfcheck] wrote {write_results(metrics)}")

    if args.update_baseline:
        payload = {
            "host": host_info(),
            "mode": tracing_mode(),
            "metrics": metrics,
        }
        with open(BASELINE_JSON, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[perfcheck] baseline updated: {BASELINE_JSON}")
        return 0

    baseline = load_baseline()
    if not baseline:
        print("[perfcheck] no committed baseline; run with --update-baseline")
        return 0
    current_mode = tracing_mode()
    baseline_mode = baseline.get("mode")
    if baseline_mode != current_mode:
        print(
            "[perfcheck] WARNING: observability mode mismatch — baseline "
            f"measured with {baseline_mode}, this run is {current_mode}; "
            "wall-clock comparisons across modes are not meaningful"
        )
    regressions = compare(metrics, baseline.get("metrics", {}))
    if regressions:
        print(f"[perfcheck] FAIL: {len(regressions)} metric(s) regressed >20%:")
        for line in regressions:
            print(f"  {line}")
        return 1
    print("[perfcheck] OK: no metric regressed more than 20% vs baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
