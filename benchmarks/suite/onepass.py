"""One pass of one workload, in this (fresh) process; prints one JSON line.

``run.py`` spawns this file once per (workload, repeat) so that no pass
inherits another's heap, caches or garbage.  The timed region is exactly
``env.run_until(env.process(driver.run(...)))``; everything before it —
interpreter start, ``import repro``, binder construction, table load,
replication bootstrap, op-list generation — is ``setup_s``, and the
snapshot + invariant evaluation after it is ``check_s``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import random
import resource
import sys
import time

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(SUITE_DIR)), "src")


def _pin_to_one_cpu() -> dict:
    """Pin to the highest allowed CPU (the parent idles on another one)."""
    if not hasattr(os, "sched_setaffinity"):
        return {"allowed_cpus": None, "pinned_cpu": None}
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    return {"allowed_cpus": allowed, "pinned_cpu": allowed[-1]}


def _open_loop_lateness(env_seed: int, rate_per_s: float, started_at: float, starts: list) -> float:
    """Worst gap between an op's due instant and the instant it was issued.

    The due instants are replayed from a twin of the arrival stream; the
    generator runs on the virtual clock, so this is 0 unless a change
    makes ``OpenLoop`` issue late.
    """
    from repro.sim import Environment

    rng = Environment(seed=env_seed).stream("open-arrivals")
    due, worst = started_at, 0.0
    for start in starts:
        due += rng.expovariate(rate_per_s / 1000.0)
        worst = max(worst, start - due)
    return worst


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=int, default=1, help="divide op counts by this")
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    affinity = _pin_to_one_cpu()
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        sys.exit(f"no program to measure: {SRC_DIR}/repro is missing")
    sys.path.insert(0, SRC_DIR)

    import repro
    from repro.harness import WorkloadDriver
    from repro.obs import default_tracing_enabled
    from repro.sim import Environment

    import layers
    from workloads import BY_NAME

    workload = BY_NAME[args.workload]
    profiler = boundaries = None
    if args.traced:
        profiler = cProfile.Profile()
        # before the workload is built: see Boundaries.__init__
        boundaries = layers.Boundaries({"db.attempts_per_txn": (workload.begin,)})

    env = Environment(seed=args.seed)
    rng = random.Random(f"suite:{args.seed}:{workload.name}")
    clients = workload.clients
    built = workload.build(env, rng, workload.ops // args.scale, clients)
    driver = WorkloadDriver(env, label=workload.name)
    if built.ledger is not None:
        driver.ledger = built.ledger
    execute = built.execute
    starts: list = []
    if not clients:
        inner = execute

        def execute(op):
            starts.append(env.now)
            return inner(op)

    hygiene = {
        "nproc": os.cpu_count(),
        **affinity,
        "python": platform.python_version(),
        "hashseed": os.environ.get("PYTHONHASHSEED"),
        # without cached bytecode every pass compiles repro: ~0.13 s of setup_s
        "dont_write_bytecode": sys.dont_write_bytecode,
        "default_tracing": default_tracing_enabled(),
        "tracer_enabled": bool(env.tracer.enabled),
        "profiler_before_timing": repr(sys.getprofile()),
    }
    if not args.traced and (hygiene["default_tracing"] or sys.getprofile() is not None):
        sys.exit("untraced pass refused: tracing or a profiler is already on")

    gc.collect()
    events_before = env.events_executed
    sim_started = env.now
    process = env.process(driver.run(built.ops, execute, built.arrival))
    setup_s = time.monotonic() - args.spawned_at
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    result = env.run_until(process)
    if profiler is not None:
        profiler.disable()
    host_s = time.perf_counter() - t0
    events = env.events_executed - events_before

    t1 = time.perf_counter()
    snapshot = built.snapshot()
    violations = [str(v) for v in built.check(snapshot, result.completed)]
    check_s = time.perf_counter() - t1
    if not result.anomalies.clean:
        violations.append(f"effect ledger: {result.anomalies.summary()}")
    attempted = len(built.ops)
    if result.completed + result.failed != attempted:
        violations.append(
            f"{result.completed} acknowledged + {result.failed} failed "
            f"!= {attempted} attempted"
        )

    samples = result.completed
    out = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "traced": bool(args.traced),
        "attempted": attempted,
        "acknowledged": result.completed,
        "failed": result.failed,
        "events": events,
        "sim_txns_per_s": result.throughput,
        "sim_p50_ms": result.p(50),
        "sim_p99_ms": result.p(99),
        "sim_wall_ms": result.wall_ms,
        "samples": samples,
        "samples_beyond_p99": samples - int((samples - 1) * 0.99) - 1,
        "snapshot_sha256": hashlib.sha256(
            json.dumps(snapshot, sort_keys=True, default=repr).encode()
        ).hexdigest(),
        "violations": violations,
        "host_s": host_s,
        "setup_s": setup_s,
        "check_s": check_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "hygiene": hygiene,
    }
    if not clients:
        out["open_loop_lateness_ms"] = _open_loop_lateness(
            args.seed, built.arrival.rate_per_s, sim_started, starts
        )
    if profiler is not None:
        stats = profiler.getstats()
        out["profile"] = layers.attribute(stats, os.path.dirname(repro.__file__))
        entries = {e.code: e for e in stats if not isinstance(e.code, str)}
        out["profile"]["boundaries"] = boundaries.counts(entries)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
