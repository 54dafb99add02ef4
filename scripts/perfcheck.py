#!/usr/bin/env python
"""Run the wall-clock perf harness and gate on the committed baseline.

Usage::

    PYTHONPATH=src python scripts/perfcheck.py            # full run + gate
    PYTHONPATH=src python scripts/perfcheck.py --smoke    # quick sanity run
    PYTHONPATH=src python scripts/perfcheck.py --only locks
    PYTHONPATH=src python scripts/perfcheck.py --update-baseline

The full run writes ``BENCH_perf.json`` at the repo root and compares
every throughput metric (``*_per_sec``) and wall-clock metric
(``*_wall_sec``) against ``benchmarks/perf/baseline.json``; a metric more
than 20% worse than baseline fails the check.  ``--smoke`` runs every
bench at reduced scale and skips the gate (smoke numbers are not
comparable to the committed baseline).  ``--update-baseline`` rewrites the
baseline from a fresh full run — do this only on a quiet machine.
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


def collect(smoke: bool, only: str | None = None) -> dict:
    from benchmarks import bench_c15_overload, bench_c16_replication
    from benchmarks.perf import (
        bench_e2e,
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
        ("e2e", bench_e2e),
        ("c15-overload", bench_c15_overload),
        ("c16-replication", bench_c16_replication),
    )
    if only is not None:
        known = [name for name, _module in benches]
        if only not in known:
            raise SystemExit(
                f"perfcheck: unknown bench {only!r} (choose from {known})"
            )
        benches = tuple(b for b in benches if b[0] == only)

    metrics: dict[str, float] = {}
    for name, module in benches:
        print(f"[perfcheck] running {name} benches ...", flush=True)
        metrics.update(module.run(smoke=smoke))
    return metrics


def compare(metrics: dict, baseline_metrics: dict, skip: set | None = None) -> list[str]:
    """Return a list of regression descriptions (empty = pass)."""
    regressions = []
    for name, base in sorted(baseline_metrics.items()):
        current = metrics.get(name)
        if current is None or not isinstance(base, (int, float)) or base <= 0:
            continue
        if skip and name in skip:
            continue
        if name.endswith("_per_sec") or name.endswith("_speedup"):
            floor = base * (1.0 - REGRESSION_TOLERANCE)
            if current < floor:
                regressions.append(
                    f"{name}: {current:,.0f} < {floor:,.0f} "
                    f"(baseline {base:,.0f}, -{(1 - current / base):.0%})"
                )
        elif name.endswith("_wall_sec") or name.endswith("_sec"):
            ceiling = base * (1.0 + REGRESSION_TOLERANCE)
            if current > ceiling:
                regressions.append(
                    f"{name}: {current:.3f}s > {ceiling:.3f}s "
                    f"(baseline {base:.3f}s, +{(current / base - 1):.0%})"
                )
        elif name.endswith("_per_txn"):
            # Efficiency counters (e.g. kernel events per transaction):
            # deterministic, lower is better, gated tighter than the
            # wall-clock metrics because host noise cannot move them.
            ceiling = base * 1.02
            if current > ceiling:
                regressions.append(
                    f"{name}: {current:,.2f} > {ceiling:,.2f} "
                    f"(baseline {base:,.2f}, +{(current / base - 1):.1%})"
                )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced-scale sanity run; skips the regression gate",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite benchmarks/perf/baseline.json from this run",
    )
    parser.add_argument(
        "--only", metavar="BENCH", default=None,
        help="run a single bench family (e.g. --only locks); results "
        "are merged into an existing BENCH_perf.json and the gate checks "
        "only the metrics that ran",
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
        BENCH_JSON,
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

    metrics = collect(smoke=args.smoke, only=args.only)
    fresh = set(metrics)
    if args.only and os.path.exists(BENCH_JSON):
        # Partial run: keep the other families' numbers in the artifact,
        # but gate only on the metrics measured just now.
        with open(BENCH_JSON) as handle:
            previous = json.load(handle).get("metrics", {})
        metrics = {**previous, **metrics}
    baseline = load_baseline()
    pre_change = baseline.get("pre_change", {}).get("kernel_events_per_sec")
    if not args.smoke and pre_change:
        # Reference: the pre-fast-path kernel measured once with these same
        # scenarios (see docs/PERFORMANCE.md for how it was captured).
        metrics["kernel_events_per_sec_pre_change"] = pre_change
        metrics["kernel_speedup_vs_pre_change"] = round(
            metrics["kernel_events_per_sec"] / pre_change, 3
        )
    path = write_results(metrics, smoke=args.smoke)
    print(f"[perfcheck] wrote {path}")
    for name in sorted(metrics):
        print(f"  {name:45s} {metrics[name]:>14,.8g}")

    if args.smoke:
        print("[perfcheck] smoke run OK (regression gate skipped)")
        return 0

    if args.update_baseline:
        payload = {
            "host": host_info(),
            "mode": tracing_mode(),
            "metrics": metrics,
        }
        if "pre_change" in baseline:
            payload["pre_change"] = baseline["pre_change"]
        with open(BASELINE_JSON, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[perfcheck] baseline updated: {BASELINE_JSON}")
        return 0

    if not baseline:
        print("[perfcheck] no committed baseline; run with --update-baseline")
        return 0
    current_mode = tracing_mode()
    baseline_mode = baseline.get("mode")
    if baseline_mode is None:
        print(
            "[perfcheck] WARNING: baseline does not record its tracing/"
            "profile mode; assuming it was measured untraced — re-run "
            "--update-baseline to record the mode"
        )
    elif baseline_mode != current_mode:
        print(
            "[perfcheck] WARNING: observability mode mismatch — baseline "
            f"measured with {baseline_mode}, this run is {current_mode}; "
            "wall-clock comparisons across modes are not meaningful"
        )
    baseline_metrics = baseline.get("metrics", {})
    skip = {name for name in baseline_metrics if name not in fresh}
    regressions = compare(metrics, baseline_metrics, skip=skip)
    if regressions:
        print(f"[perfcheck] FAIL: {len(regressions)} metric(s) regressed >20%:")
        for line in regressions:
            print(f"  {line}")
        return 1
    print("[perfcheck] OK: no metric regressed more than 20% vs baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
