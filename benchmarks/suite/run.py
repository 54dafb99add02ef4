"""The repo benchmark: seven workloads, end-to-end and per-layer metrics.

Three ways in, one measurement underneath (``onepass.py``: one workload,
one fresh single-threaded subprocess, fixed op count, correctness checked):

``run.py [--seed N] [--repeats 5] [--only W] [--out FILE] [--smoke]``
    the full protocol: ``repeats`` untraced passes per workload, interleaved
    round-robin so machine drift spreads evenly, then one pass under
    cProfile for the per-layer table.  Prints every metric by name with its
    unit; ``--out`` also writes the result JSON and the tables as text.

``run.py --workload W --seed N --seconds S --trace 0|1``
    one run for the benchmark driver (the contract in ``BENCHMARK.json``):
    ``round(S / 3.5)`` untraced passes, each on its own sub-seed of N, every
    metric the median over them; or, with ``--trace 1``, one untraced plus
    one traced pass.  The last line of stdout is one JSON object.

``run.py compare A.json B.json``
    applies each end-to-end metric's bound to two result files.

Any violated invariant, lost update, or deterministic quantity that
differs between passes of one workload exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, SUITE_DIR)

from layers import LAYERS, LOCK_INCLUSIVE  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

DEFAULT_SEED = 11  # seed 29 is the held-out seed: see README.md
SMOKE_SCALE = 20
#: every workload's timed region is sized to 3-4.5 s on the reference host,
#: so a driver run of ``--seconds S`` makes ``round(S / PASS_SECONDS)`` passes
PASS_SECONDS = 3.5
#: a pure function of seed and code: identical on every pass and every host
DETERMINISTIC = (
    "attempted", "acknowledged", "failed", "events", "sim_txns_per_s",
    "sim_p50_ms", "sim_p99_ms", "sim_wall_ms", "snapshot_sha256",
)


# -- measuring --------------------------------------------------------------


def run_pass(name: str, seed: int, traced: bool = False, scale: int = 1) -> dict:
    """One pass of one workload in a fresh interpreter."""
    command = [
        sys.executable, os.path.join(SUITE_DIR, "onepass.py"),
        "--workload", name, "--seed", str(seed), "--scale", str(scale),
        "--traced", str(int(traced)), "--spawned-at", repr(time.monotonic()),
    ]
    done = subprocess.run(
        command, env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    if done.returncode:
        sys.exit(f"{name}: pass failed with exit code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def end_to_end(one: dict) -> dict:
    acknowledged = one["acknowledged"]
    return {
        "host_txns_per_s": acknowledged / one["host_s"],
        "events_per_txn": one["events"] / acknowledged,
        "sim_txns_per_s": one["sim_txns_per_s"],
        "sim_p50_ms": one["sim_p50_ms"],
        "sim_p99_ms": one["sim_p99_ms"],
        "acked_share": acknowledged / one["attempted"],
        "setup_s": one["setup_s"],
        "peak_rss_mb": one["peak_rss_mb"],
    }


def per_layer(untraced: list, traced: dict) -> dict:
    """Every per-layer metric; None where a boundary function is gone."""
    acknowledged = traced["acknowledged"]
    profile = traced["profile"]
    out = {}
    for layer in LAYERS:
        self_s, calls = profile["layers"].get(layer, (0.0, 0))
        out[f"{layer}.self_us_per_txn"] = self_s * 1e6 / acknowledged
        out[f"{layer}.calls_per_txn"] = calls / acknowledged
    for name, counted in profile["boundaries"].items():
        out[name] = None if counted is None else counted[0] / acknowledged
    locks = profile["boundaries"]["db.lock_acquires_per_txn"]
    out[LOCK_INCLUSIVE] = None if locks is None else locks[1] * 1e6 / acknowledged
    host_s = statistics.median(one["host_s"] for one in untraced)
    out["sim.host_us_per_event"] = host_s * 1e6 / untraced[0]["events"]
    out["bench.check_s"] = statistics.median(one["check_s"] for one in untraced)
    out["trace.overhead_ratio"] = traced["host_s"] / host_s
    outside = sum(profile["layers"].get(layer, (0.0, 0))[0] for layer in ("bench", "other"))
    out["trace.unattributed_share"] = outside / profile["total_s"]
    return out


def problems_in(name: str, passes: list, same_seed: bool = True) -> list:
    """Correctness gate over all passes (traced included) of one workload."""
    problems = [f"{name}: {v}" for one in passes for v in one["violations"]]
    if same_seed:
        first = passes[0]
        problems += [
            f"{name}: {key} is {one[key]!r} on pass {index}, "
            f"{first[key]!r} on pass 1 (must be deterministic)"
            for index, one in enumerate(passes[1:], start=2)
            for key in DETERMINISTIC
            if one[key] != first[key]
        ]
    for one in passes:
        profile = one.get("profile")
        if profile and abs(profile["attributed_s"] - profile["total_s"]) > 0.01 * profile["total_s"]:
            problems.append(f"{name}: layer self times do not sum to the profiled total")
    return problems


def summarise(values: list) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# -- the driver's contract ---------------------------------------------------


def driver_run(args) -> int:
    """One run of the driver's contract; see the module docstring.

    The driver compares medians over runs with different seeds, so a run
    spreads its passes over sub-seeds: the median over three inputs varies
    less from seed to seed than any one input does (it is still a pure
    function of ``--seed``, ``--seconds`` and the code).  What that gives
    up, identical deterministic quantities across the passes of a run, the
    traced run and the full protocol still check.
    """
    name = args.workload
    seeds = [args.seed * 16 + index
             for index in range(max(1, min(16, round(args.seconds / PASS_SECONDS))))]
    if args.trace:
        untraced = [run_pass(name, seeds[0])]
        passes = untraced + [run_pass(name, seeds[0], traced=True)]
        values = per_layer(untraced, passes[-1])
        for metric, value in values.items():
            if value is None:
                print(f"warning: {metric} reported as 0: its function is gone", file=sys.stderr)
                values[metric] = 0.0
        wanted = [m["name"] for m in SPEC["per_layer"]]
    else:
        started = time.monotonic()
        passes = []
        for seed in seeds:
            # on a host too slow for the plan, drop passes rather than
            # overrun the driver's 180 s limit per run
            if passes and time.monotonic() - started > 120:
                break
            passes.append(run_pass(name, seed))
        rows = [end_to_end(one) for one in passes]
        values = {metric: statistics.median(row[metric] for row in rows) for metric in rows[0]}
        wanted = [m["name"] for m in SPEC["end_to_end"]]
    problems = problems_in(name, passes, same_seed=bool(args.trace))
    if sorted(values) != sorted(wanted):
        problems.append(f"{name}: measured metrics differ from BENCHMARK.json")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(one["attempted"] for one in passes),
        "failed": sum(one["failed"] for one in passes),
        "metrics": {
            metric: {"value": values[metric], "unit": UNITS[metric]}
            for metric in wanted if metric in values
        },
    }))
    return 1 if problems else 0


# -- the full protocol --------------------------------------------------------


def render(report: dict) -> str:
    lines = [
        f"seed {report['seed']}  repeats {report['repeats']}  "
        f"op counts / {report['scale']}",
        "host: " + json.dumps(report["host"], sort_keys=True),
    ]
    for name, data in report["workloads"].items():
        notes = data["notes"]
        lines += ["", f"== {name}: {notes['why']}"]
        lines.append(
            f"   {notes['acknowledged']} acknowledged + {notes['failed']} failed of "
            f"{notes['attempted']} attempted (failed_share {notes['failed_share']:.4f}); "
            f"{notes['samples_beyond_p99']} latency samples beyond p99"
            + (f"; open-loop lateness {notes['open_loop_lateness_ms']:.3g} ms"
               if "open_loop_lateness_ms" in notes else "")
        )
        lines.append(f"   {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}   n  unit")
        for metric, row in data["end_to_end"].items():
            lines.append(
                f"   {metric:<22}{row['median']:>14.6g}{row['q1']:>14.6g}"
                f"{row['q3']:>14.6g}{row['n']:>4}  {row['unit']}"
            )
        layer_metrics = data["per_layer"]
        total = sum(layer_metrics[f"{layer}.self_us_per_txn"] for layer in LAYERS)
        lines.append(
            f"   traced pass: {total:.1f} us/txn profiled in total, "
            f"{layer_metrics['trace.overhead_ratio']:.2f}x the untraced time"
        )
        lines.append(f"   {'layer':<16}{'self us/txn':>13}{'share':>8}{'calls/txn':>12}")
        for layer in LAYERS:
            self_us = layer_metrics[f"{layer}.self_us_per_txn"]
            calls = layer_metrics[f"{layer}.calls_per_txn"]
            if calls or self_us:
                lines.append(
                    f"   {layer:<16}{self_us:>13.2f}{self_us / total:>8.1%}{calls:>12.2f}"
                )
        generator = sum(
            layer_metrics[f"{layer}.self_us_per_txn"]
            for layer in ("harness", "workloads", "bench")
        ) / total
        lines.append(
            f"   load generator (harness + workloads + bench): {generator:.1%} of self time"
            + (" -- above 10%: the benchmark is measuring itself here" if generator > 0.10 else "")
        )
        for metric, value in layer_metrics.items():
            if not metric.endswith((".self_us_per_txn", ".calls_per_txn")):
                shown = "null (function gone)" if value is None else f"{value:.6g}"
                lines.append(f"   {metric:<38}{shown:>14}  {UNITS[metric]}")
    return "\n".join(lines)


def suite_run(args) -> int:
    names = [args.only] if args.only else WORKLOADS
    scale = SMOKE_SCALE if args.smoke else 1
    repeats = 1 if args.smoke else args.repeats
    passes: dict = {name: [] for name in names}
    for _repeat in range(repeats):
        for name in names:
            passes[name].append(run_pass(name, args.seed, scale=scale))
    report = {
        "seed": args.seed, "repeats": repeats, "scale": scale,
        "host": passes[names[0]][0]["hygiene"], "workloads": {},
    }
    problems = []
    whys = {w["name"]: w["why"] for w in SPEC["workloads"]}
    for name in names:
        traced = run_pass(name, args.seed, traced=True, scale=scale)
        problems += problems_in(name, passes[name] + [traced])
        rows = [end_to_end(one) for one in passes[name]]
        first = passes[name][0]
        notes = {key: first[key] for key in (
            "attempted", "acknowledged", "failed", "samples_beyond_p99")}
        notes["failed_share"] = first["failed"] / first["attempted"]
        notes["why"] = whys[name]
        if "open_loop_lateness_ms" in first:
            notes["open_loop_lateness_ms"] = first["open_loop_lateness_ms"]
        report["workloads"][name] = {
            "notes": notes,
            "end_to_end": {
                metric: {**summarise([row[metric] for row in rows]), "unit": UNITS[metric]}
                for metric in rows[0]
            },
            "per_layer": per_layer(passes[name], traced),
            "deterministic": {key: first[key] for key in DETERMINISTIC},
        }
    text = render(report)
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
        with open(os.path.splitext(args.out)[0] + ".txt", "w") as handle:
            handle.write(text + "\n")
    for problem in problems:
        print("FAILED " + problem, file=sys.stderr)
    return 1 if problems else 0


# -- comparing two result files ------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, metric): B against A under the metric's bound.

    ``worse``: B's median is worse than A's by more than the bound and by
    more than either side's own spread.  ``unresolved``: a spread (q3 - q1
    as a share of the median) is wider than the bound, so the runs cannot
    tell.  Otherwise ``ok``.
    """
    with open(path_a) as handle:
        a = json.load(handle)["workloads"]
    with open(path_b) as handle:
        b = json.load(handle)["workloads"]
    worse = 0
    print(f"{'workload':<26}{'metric':<18}{'A median':>12}{'A q1..q3':>24}"
          f"{'B median':>12}{'B q1..q3':>24}{'change':>9}  verdict")
    for name in a:
        if name not in b:
            continue
        for metric in SPEC["end_to_end"]:
            row_a = a[name]["end_to_end"][metric["name"]]
            row_b = b[name]["end_to_end"][metric["name"]]
            change = (row_b["median"] - row_a["median"]) / row_a["median"]
            regress = -change if metric["better"] == "higher" else change
            spread = max(
                (row["q3"] - row["q1"]) / row["median"] for row in (row_a, row_b)
            )
            if regress > metric["bound"] and regress > spread:
                verdict = "worse"
                worse += 1
            elif spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"{name:<26}{metric['name']:<18}{row_a['median']:>12.6g}"
                f"{row_a['q1']:>12.6g}{row_a['q3']:>12.6g}{row_b['median']:>12.6g}"
                f"{row_b['q1']:>12.6g}{row_b['q3']:>12.6g}{change:>+9.2%}  {verdict}"
            )
        same = a[name]["deterministic"] == b[name]["deterministic"] and all(
            a[name]["per_layer"][key] == b[name]["per_layer"][key]
            for key in a[name]["per_layer"]
            if key.endswith("_per_txn") and "_us_" not in key
        )
        print(f"{name:<26}deterministic quantities: "
              f"{'identical' if same else 'DIFFER'}")
    return 1 if worse else 0


def main() -> int:
    if sys.argv[1:2] == ["compare"]:
        if len(sys.argv) != 4:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(sys.argv[2], sys.argv[3])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--only", choices=WORKLOADS)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("REPRO_TRACE"):
        sys.exit("refusing to measure with REPRO_TRACE set: untraced passes must be untraced")
    return driver_run(args) if args.workload else suite_run(args)


if __name__ == "__main__":
    sys.exit(main())
