#!/usr/bin/env python
"""Chaos-fuzz the transactional runtimes and gate on invariant violations.

Usage::

    PYTHONPATH=src python scripts/chaoscheck.py --smoke
    PYTHONPATH=src python scripts/chaoscheck.py --runtime actor --trials 20
    PYTHONPATH=src python scripts/chaoscheck.py --runtime actor --broken
    PYTHONPATH=src python scripts/chaoscheck.py --replay benchmarks/results/chaos/actor-seed2.json

Modes:

- ``--smoke`` — two pinned-seed trials per runtime, each run twice to
  verify byte-identical determinism (schedule JSON + history digest);
  the default-suite regression gate.
- fuzz (default) — ``--trials`` seeded trials per selected runtime; on
  the first violation the failing schedule is shrunk and a standalone
  repro artifact is written under ``benchmarks/results/chaos/``.
- ``--replay <artifact>`` — re-run a saved artifact and check that the
  violations and history digest reproduce exactly.

Exit status is non-zero whenever a violation is found (or, under
``--broken``, when the expected violation is *not* found — the detector
must detect) or a replay fails to reproduce.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_SRC = os.path.join(REPO_ROOT, "src")
if REPO_SRC not in sys.path:
    sys.path.insert(0, REPO_SRC)

from repro.chaos import (  # noqa: E402
    CONTROL_RUNTIMES,
    ChaosConfig,
    ReproArtifact,
    RUNTIMES,
    run_trial,
    shrink,
)

ARTIFACT_DIR = os.path.join(REPO_ROOT, "benchmarks", "results", "chaos")

#: Pinned smoke seeds: chosen so every runtime's trials are violation-free.
SMOKE_SEEDS = (11, 23)


def load_budget(spec: str) -> ChaosConfig:
    """``--budget`` accepts a JSON file path or an inline JSON object."""
    if os.path.exists(spec):
        with open(spec) as handle:
            data = json.load(handle)
    else:
        data = json.loads(spec)
    return ChaosConfig.from_dict(data)


def smoke(runtimes: list[str], budget) -> int:
    failures = 0
    for runtime in runtimes:
        for seed in SMOKE_SEEDS:
            first = run_trial(runtime, seed, config=budget)
            second = run_trial(runtime, seed, config=budget)
            deterministic = (
                first.plan_json == second.plan_json
                and first.history_digest == second.history_digest
            )
            status = "ok"
            if first.violations:
                status = f"VIOLATIONS({len(first.violations)})"
                failures += 1
            if not deterministic:
                status += " NON-DETERMINISTIC"
                failures += 1
            counts = first.history.counts()
            print(
                f"  {runtime:<13} seed={seed:<4} faults={len(first.plan.events):<2} "
                f"ok={counts['ok']:<3} fail={counts['fail']:<2} info={counts['info']:<2} "
                f"digest={first.history_digest[:12]} {status}"
            )
            for violation in first.violations:
                print(f"      {violation.invariant}: {violation.detail}")
    return failures


def fuzz(runtime: str, trials: int, base_seed: int, budget, broken: bool) -> int:
    found = 0
    for index in range(trials):
        seed = base_seed + index
        result = run_trial(runtime, seed, config=budget, broken=broken)
        counts = result.history.counts()
        status = "ok" if result.ok else f"VIOLATIONS({len(result.violations)})"
        print(
            f"  {runtime:<13} seed={seed:<5} faults={len(result.plan.events):<2} "
            f"ok={counts['ok']:<3} fail={counts['fail']:<2} info={counts['info']:<2} {status}"
        )
        if result.ok:
            continue
        found += 1
        for violation in result.violations:
            print(f"      {violation.invariant}: {violation.detail}")
        report = shrink(
            runtime, seed, result.episodes, config=budget, broken=broken
        )
        artifact = ReproArtifact.from_result(report.result)
        suffix = "-broken" if broken else ""
        path = os.path.join(ARTIFACT_DIR, f"{runtime}{suffix}-seed{seed}.json")
        artifact.save(path)
        print(
            f"      shrunk {report.initial_events} -> {report.final_events} "
            f"fault event(s) in {report.trials} trial(s); "
            f"artifact: {os.path.relpath(path, REPO_ROOT)}"
        )
        break  # one minimized witness per invocation is enough
    if broken:
        # Detector check: the intentionally unsound config must be caught.
        if found == 0:
            print(f"  {runtime}: broken config NOT detected in {trials} trial(s)")
            return 1
        return 0
    return found


def replay(path: str) -> int:
    artifact = ReproArtifact.load(path)
    result = artifact.replay()
    reproduced = artifact.matches(result)
    print(
        f"  {artifact.runtime} seed={artifact.seed} broken={artifact.broken} "
        f"violations={len(result.violations)} digest={result.history_digest[:12]} "
        f"{'REPRODUCED' if reproduced else 'MISMATCH'}"
    )
    if not reproduced:
        print(f"    recorded digest: {artifact.history_digest}")
        print(f"    replayed digest: {result.history_digest}")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runtime", choices=RUNTIMES, default=None,
                        help="restrict to one runtime (default: all)")
    parser.add_argument("--trials", type=int, default=10,
                        help="fuzz trials per runtime (default 10)")
    parser.add_argument("--seed", type=int, default=1,
                        help="base seed for fuzz trials (default 1)")
    parser.add_argument("--budget", default=None,
                        help="ChaosConfig as a JSON file path or inline JSON")
    parser.add_argument("--broken", action="store_true",
                        help="run the intentionally unsound configuration; "
                             "exit non-zero if it is NOT detected (only "
                             f"{', '.join(CONTROL_RUNTIMES)} have one)")
    parser.add_argument("--smoke", action="store_true",
                        help="pinned-seed determinism + zero-violation gate")
    parser.add_argument("--replay", metavar="ARTIFACT", default=None,
                        help="replay a saved repro artifact")
    args = parser.parse_args(argv)

    if args.replay is not None:
        print("chaoscheck: replay")
        return replay(args.replay)

    budget = load_budget(args.budget) if args.budget else None
    if args.broken and args.runtime not in (None, *CONTROL_RUNTIMES):
        parser.error(f"--runtime {args.runtime} has no unsound control; "
                     f"--broken needs one of {', '.join(CONTROL_RUNTIMES)}")
    if args.runtime:
        runtimes = [args.runtime]
    else:
        runtimes = list(CONTROL_RUNTIMES if args.broken else RUNTIMES)

    if args.smoke:
        print(f"chaoscheck: smoke ({len(runtimes)} runtime(s), "
              f"seeds {SMOKE_SEEDS}, double-run determinism check)")
        failures = smoke(runtimes, budget)
        print("smoke: " + ("clean" if failures == 0 else f"{failures} failure(s)"))
        return 1 if failures else 0

    print(f"chaoscheck: fuzz ({args.trials} trial(s) per runtime, "
          f"base seed {args.seed}{', broken config' if args.broken else ''})")
    failures = 0
    for runtime in runtimes:
        failures += fuzz(runtime, args.trials, args.seed, budget, args.broken)
    label = "broken-config detection" if args.broken else "fuzz"
    outcome = ("ok" if args.broken else "clean") if failures == 0 \
        else f"{failures} failure(s)"
    print(f"{label}: {outcome}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
