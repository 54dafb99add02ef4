"""C15 — Overload: flow control degrades gracefully, retry storms collapse.

Paper claim (§3.1-3.2): microservice frameworks ship retries as their
fault-tolerance story, but under overload every timeout becomes a retry
and every retry adds load — the system does ever more work that nobody is
waiting for.  The fix is not more retries but *flow control*: shed excess
work cheaply at the door, budget retries, and drop expired requests.

Setup: the same 4-connection transactional bank behind RPC, driven by an
open-loop Poisson arrival ramp from 0.5x to 10x its saturation rate, in
two configurations:

- **unprotected** — the status-quo client: 30 ms timeout, 3 blind
  retries, no admission control, no deadline propagation, no dedup.
- **flow-controlled** — the ``repro.flow`` stack: admission control
  (max 8 in flight, shed beyond), propagated deadlines (the server drops
  requests nobody waits for), a retry token budget, and an idempotency
  store.

Goodput counts requests acknowledged within a 100 ms SLA.  Expected
shape: both configs match below saturation; past it the unprotected
config collapses (queues grow without bound, timeouts trigger retries,
almost nothing finishes inside the SLA while the server burns capacity
on duplicate and expired work) while the flow-controlled config keeps
goodput near capacity by rejecting the excess instead of queueing it.

Run directly (``python benchmarks/bench_c15_overload.py [--smoke]``),
or via pytest (``pytest benchmarks/bench_c15_overload.py``).
"""

from __future__ import annotations

import argparse
import os
import sys

if __package__ in (None, ""):  # direct script execution
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.apps import DbBank
from repro.flow import AdmissionController, RetryBudget
from repro.harness import format_rows
from repro.messaging.idempotency import IdempotencyStore
from repro.messaging.rpc import (
    RpcClient,
    RpcError,
    RpcRejected,
    RpcServer,
    RpcTimeout,
)
from repro.net import Network
from repro.sim import Environment
from repro.workloads import TransferWorkload

from benchmarks.common import report

#: Offered load at 1x — roughly the 4-connection bank's capacity (see C9).
BASE_RATE_PER_S = 600.0
#: A request that takes longer than this counts as lost goodput.
SLA_MS = 100.0
DURATION_MS = 2000.0
SMOKE_DURATION_MS = 300.0
MULTIPLIERS = (0.5, 1.0, 2.0, 5.0, 10.0)
SMOKE_MULTIPLIERS = (1.0, 10.0)


def run_point(multiplier: float, sound: bool, seed: int, duration_ms: float) -> dict:
    """One ramp point: offered load ``multiplier`` x BASE_RATE, one config."""
    env = Environment(seed=seed)
    workload = TransferWorkload(
        num_accounts=200, initial_balance=1000, amount=1, theta=0.2
    )
    bank = DbBank(env, workload, connections=4)
    net = Network(env)
    service = net.add_node("bank")
    edge = net.add_node("edge")
    admission = AdmissionController(8, name="bank.admission") if sound else None
    dedup = IdempotencyStore() if sound else None
    server = RpcServer(net, service, dedup_store=dedup, admission=admission)
    server.register("transfer", bank.execute)
    client = RpcClient(net, edge)
    budget = RetryBudget(capacity=40.0, refund=0.1) if sound else None

    stats = {"offered": 0, "ok": 0, "late": 0, "rejected": 0,
             "timeout": 0, "remote_error": 0}
    latencies: list[float] = []

    def one_request(op) -> object:
        t0 = env.now
        try:
            if sound:
                yield from client.call(
                    "bank", "transfer", op, timeout=40.0, retries=2,
                    idempotency_key=op.op_id,
                    deadline=t0 + SLA_MS, retry_budget=budget,
                )
            else:
                yield from client.call(
                    "bank", "transfer", op, timeout=30.0, retries=3,
                    idempotency_key=op.op_id,
                )
        except RpcRejected:
            stats["rejected"] += 1
            return
        except RpcTimeout:
            stats["timeout"] += 1
            return
        except RpcError:
            stats["remote_error"] += 1
            return
        latency = env.now - t0
        if latency <= SLA_MS:
            stats["ok"] += 1
            latencies.append(latency)
        else:
            stats["late"] += 1

    def load_gen() -> object:
        rng = env.stream("arrivals")
        ops = workload.operations(env.stream("ops"), 10 ** 9)
        rate_per_ms = BASE_RATE_PER_S * multiplier / 1000.0
        end = env.now + duration_ms
        while env.now < end:
            yield env.timeout(rng.expovariate(rate_per_ms))
            stats["offered"] += 1
            env.process(one_request(next(ops)), label="c15.request")

    env.process(load_gen(), label="c15.load")
    # Drain window: in-SLA stragglers finish, the rest no longer matter.
    env.run(until=duration_ms + 4.0 * SLA_MS)

    latencies.sort()
    p99 = latencies[int(0.99 * (len(latencies) - 1))] if latencies else float("nan")
    return {
        "config": "flow" if sound else "unprotected",
        "mult": multiplier,
        "goodput_per_s": stats["ok"] / (duration_ms / 1000.0),
        "p99_ms": p99,
        "offered": stats["offered"],
        "ok": stats["ok"],
        "rejected": stats["rejected"],
        "timeout": stats["timeout"],
        "late": stats["late"] + stats["remote_error"],
        "shed": admission.stats.shed_total if admission else 0,
        "expired": server.stats.expired_dropped,
        "dup_execs": server.stats.duplicate_executions,
    }


def run_all(smoke: bool = False) -> list[dict]:
    duration = SMOKE_DURATION_MS if smoke else DURATION_MS
    multipliers = SMOKE_MULTIPLIERS if smoke else MULTIPLIERS
    results = []
    for multiplier in multipliers:
        results.append(run_point(multiplier, sound=False, seed=151, duration_ms=duration))
        results.append(run_point(multiplier, sound=True, seed=151, duration_ms=duration))
    return results


def check_claims(results: list[dict]) -> None:
    """The C15 claims; assert only at full scale (smoke is a sanity run)."""
    by = {(r["config"], r["mult"]): r for r in results}
    flow_sat = by[("flow", 1.0)]["goodput_per_s"]
    flow_10x = by[("flow", 10.0)]["goodput_per_s"]
    raw_10x = by[("unprotected", 10.0)]["goodput_per_s"]
    raw_sat = by[("unprotected", 1.0)]["goodput_per_s"]
    # Flow control degrades gracefully: >= 70% of saturation goodput at 10x.
    assert flow_10x >= 0.7 * flow_sat, (flow_10x, flow_sat)
    # The unprotected config collapses at 10x ...
    assert raw_10x < 0.3 * raw_sat, (raw_10x, raw_sat)
    # ... and flow control beats it decisively under overload.
    assert flow_10x > 3.0 * raw_10x, (flow_10x, raw_10x)
    # Shedding is the mechanism: the controller visibly rejected work.
    assert by[("flow", 10.0)]["shed"] > 0


def format_table(results: list[dict]) -> str:
    return format_rows(
        ["config/x-sat", "offered", "goodput/s", "p99 ms", "shed", "expired",
         "timeouts", "dup execs"],
        [[f"{r['config']}/{r['mult']:g}x", r["offered"],
          f"{r['goodput_per_s']:.0f}", f"{r['p99_ms']:.1f}", r["shed"],
          r["expired"], r["timeout"], r["dup_execs"]] for r in results],
    )


def test_c15_overload(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(
        "C15", "overload ramp: flow control vs unprotected retries",
        format_table(results),
    )
    check_claims(results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-scale sanity run; skips the claim checks")
    args = parser.parse_args(argv)
    results = run_all(smoke=args.smoke)
    print(format_table(results))
    if not args.smoke:
        check_claims(results)
        report(
            "C15", "overload ramp: flow control vs unprotected retries",
            format_table(results),
        )
        print("C15 claims hold; wrote benchmarks/results/C15.txt")
    else:
        print("C15 smoke OK (claim checks skipped)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
