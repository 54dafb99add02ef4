"""One chaos trial, end to end, fully determined by (runtime, seed, plan).

A trial builds the scenario, runs its setup quiescently, samples (or is
handed) a fault plan, then drives concurrent clients through the workload
while the plan executes — recording every operation in the history.  After
the horizon plus a settle window, still-open operations close as ``info``,
final state is read, and the scenario's oracles pass judgment.

Everything observable — the compiled plan JSON, the history digest, the
violation list — is a pure function of the inputs, which is what makes
shrinking and repro artifacts possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.chaos.config import ChaosConfig
from repro.chaos.history import History
from repro.chaos.nemesis import Episode, Nemesis, compile_plan
from repro.chaos.scenarios import SCENARIOS, build_scenario
from repro.core.faults import FaultPlan
from repro.sim import Environment, any_of
from repro.transactions.anomalies import Violation

#: The runtimes a trial can target.
RUNTIMES = tuple(SCENARIOS)

#: Concurrent client processes per trial.
NUM_CLIENTS = 3


@dataclass
class TrialResult:
    """Everything a trial produced; serializable via :meth:`summary`."""

    runtime: str
    seed: int
    broken: bool
    fast_path: bool
    plan: FaultPlan
    episodes: list[Episode]
    history: History
    violations: list[Violation] = field(default_factory=list)
    scenario: Any = None  # the live scenario, for stats introspection

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def plan_json(self) -> str:
        return self.plan.to_json()

    @property
    def history_digest(self) -> str:
        return self.history.digest()

    def summary(self) -> dict:
        return {
            "runtime": self.runtime,
            "seed": self.seed,
            "broken": self.broken,
            "fault_events": len(self.plan.events),
            "history": self.history.counts(),
            "history_digest": self.history_digest,
            "violations": [
                {"invariant": v.invariant, "detail": v.detail}
                for v in self.violations
            ],
        }


def run_trial(
    runtime: str,
    seed: int,
    config: Optional[ChaosConfig] = None,
    plan: Optional[FaultPlan] = None,
    episodes: Optional[list[Episode]] = None,
    fast_path: bool = True,
    broken: bool = False,
) -> TrialResult:
    """Run one seeded chaos trial and judge it.

    Pass ``episodes`` (or a pre-compiled ``plan``) to replay a specific
    schedule — the shrinker and ``--replay`` path; otherwise the nemesis
    samples a schedule from ``config`` (default: the scenario's budget)
    using the environment's ``"nemesis"`` stream.
    """
    if runtime not in RUNTIMES:
        raise ValueError(f"unknown runtime {runtime!r}; choose from {RUNTIMES}")
    env = Environment(seed=seed, fast_path=fast_path)
    scenario = build_scenario(runtime, env, broken=broken)
    config = config or scenario.default_config
    env.run_until(env.process(scenario.setup(), label="chaos.setup"))

    if episodes is not None and plan is None:
        plan = compile_plan(episodes)
    if plan is None:
        episodes = Nemesis(config).generate(env.stream("nemesis"))
        plan = compile_plan(episodes)
    elif episodes is None:
        episodes = []
    # Plan times are relative to workload start == now (post-setup).
    plan.apply(env, scenario.net,
               resolver=getattr(scenario, "resolve_leader", None))

    history = History()
    ops = scenario.ops()
    start = env.now
    spacing = config.horizon / max(1, (len(ops) + NUM_CLIENTS - 1) // NUM_CLIENTS)

    def guarded(gen, outcome) -> Any:
        try:
            value = yield from gen
        except Exception as exc:  # noqa: BLE001 - judged by classify()
            outcome.try_succeed(("error", exc))
            return
        outcome.try_succeed(("value", value))

    def run_op(client: str, op_id: str, kind: str, gen) -> Any:
        span = env.tracer.event("chaos.op", op_id=op_id) if env.tracer.enabled else None
        history.invoke(env.now, client, op_id, kind,
                       span_id=span.span_id if span else None)
        outcome = env.future(label=f"chaos:{op_id}")
        env.process(guarded(gen, outcome), label=f"chaos.op:{op_id}")
        winner = yield any_of(
            env, [outcome, env.timeout(scenario.op_timeout, "timeout")]
        )
        if winner[0] == 1:
            history.info(env.now, op_id, "client timeout")
            return
        status, payload = winner[1]
        if status == "value":
            history.ok(env.now, op_id, value=payload)
        else:
            verdict = scenario.classify(payload)
            detail = type(payload).__name__
            if verdict == "fail":
                history.fail(env.now, op_id, detail)
            else:
                history.info(env.now, op_id, detail)

    def client(name: str, assigned) -> Any:
        for op in assigned:
            yield from run_op(name, op.op_id, scenario.kind,
                              scenario.execute(op))
            remaining = (start + config.horizon) - env.now
            if remaining > 0:
                yield env.timeout(min(spacing, remaining))

    def auditor() -> Any:
        index = 0
        while env.now < start + config.horizon:
            yield env.timeout(scenario.audit_interval)
            index += 1
            op_id = f"audit-{index:03d}"
            yield from run_op("auditor", op_id, "audit", scenario.audit(op_id))

    for c in range(NUM_CLIENTS):
        env.process(client(f"client-{c}", ops[c::NUM_CLIENTS]),
                    label=f"chaos.client-{c}")
    if scenario.audit_interval is not None:
        env.process(auditor(), label="chaos.auditor")

    env.run(until=start + config.horizon + config.settle)
    history.close_pending(env.now)

    final_state = scenario.final_state()
    violations: list[Violation] = []
    for oracle in scenario.oracles():
        violations.extend(oracle.check(history, final_state))
    return TrialResult(
        runtime=runtime, seed=seed, broken=broken, fast_path=fast_path,
        plan=plan, episodes=list(episodes), history=history,
        violations=violations, scenario=scenario,
    )
