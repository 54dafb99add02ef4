"""Orchestrated sagas: local transactions chained with compensations.

The saga pattern (Garcia-Molina & Salem 1987, paper §4.2) is the prevailing
consistency mechanism in microservice architectures: each step commits a
*local* transaction immediately; if a later step fails, previously
completed steps are undone by running their compensations in reverse.

Two properties the benchmarks measure fall directly out of this design:

- *No isolation*: between a step's commit and the saga's end, other
  transactions observe intermediate states (and between a failure and the
  completion of compensations, they observe states that will be undone).
- *No blocking*: unlike 2PC, no locks are held across services, so
  throughput under contention degrades far less.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.sim import Environment, Interrupted


class SagaStuck(Exception):
    """A step kept failing that can be neither undone nor skipped — a
    compensation, or a step past the pivot that may only go forward: the
    saga needs manual intervention.

    This is the saga pattern's dirty secret — compensations and the steps
    after the pivot must succeed eventually, and when they do not,
    consistency rests on a human.
    """

    def __init__(self, saga: str, step: str) -> None:
        super().__init__(f"saga {saga!r} stuck at step {step!r}")
        self.step = step


@dataclass(frozen=True)
class SagaStep:
    """One local transaction plus its compensation.

    ``action(ctx)`` and ``compensation(ctx)`` are generator functions; the
    shared mutable ``ctx`` dict carries results between steps (e.g. the
    reservation id the compensation must cancel).  ``compensation=None``
    marks a step that needs no undo (e.g. a pure read or the final step).
    """

    name: str
    action: Callable[[dict], Generator]
    compensation: Optional[Callable[[dict], Generator]] = None


@dataclass(frozen=True)
class Saga:
    """An ordered list of steps executed by the orchestrator."""

    name: str
    steps: tuple[SagaStep, ...]

    def __init__(self, name: str, steps: list[SagaStep]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "steps", tuple(steps))
        if not steps:
            raise ValueError("a saga needs at least one step")


@dataclass
class SagaOutcome:
    """What happened to one saga execution."""

    saga: str
    status: str  # "completed" | "compensated" | "stuck"
    completed_steps: list[str] = field(default_factory=list)
    failed_step: Optional[str] = None
    error: Optional[str] = None
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class SagaStats:
    completed: int = 0
    compensated: int = 0
    stuck: int = 0


class SagaOrchestrator:
    """Drives sagas forward and backward; the "orchestration" pattern.

    The orchestrator itself is modeled as durable (it would persist its
    progress in a saga log); step actions and compensations run against the
    live, failure-prone services.
    """

    def __init__(self, env: Environment, compensation_retries: int = 3) -> None:
        self.env = env
        self.compensation_retries = compensation_retries
        self.stats = SagaStats()
        self.outcomes: list[SagaOutcome] = []

    def execute(self, saga: Saga) -> Generator:
        """Run one saga instance; returns its :class:`SagaOutcome`.

        The outcome is also appended to :attr:`outcomes`.  Raises nothing
        for business failures (they become ``compensated`` outcomes); a
        repeatedly failing compensation yields a ``stuck`` outcome.  The
        steps share a fresh ``ctx`` dict.
        """
        ctx = {"saga_execution_id": self.env.next_id("saga-execution")}
        outcome = SagaOutcome(saga=saga.name, status="completed", started_at=self.env.now)
        completed: list[SagaStep] = []
        tracer = self.env.tracer
        span = tracer.begin(
            "saga", saga=saga.name, execution=ctx["saga_execution_id"]
        )
        try:
            for step in saga.steps:
                step_span = tracer.begin("saga.step", step=step.name)
                try:
                    result = yield from step.action(ctx)
                    ctx[step.name] = result
                    completed.append(step)
                    outcome.completed_steps.append(step.name)
                    tracer.end(step_span)
                except Interrupted:
                    tracer.end(step_span, outcome="interrupted")
                    raise
                except Exception as exc:  # noqa: BLE001 - any step failure triggers undo
                    tracer.end(step_span, outcome="failed")
                    outcome.failed_step = step.name
                    outcome.error = repr(exc)
                    yield from self._compensate(saga, completed, ctx, outcome)
                    break
        finally:
            tracer.end(span, status=outcome.status)
        outcome.finished_at = self.env.now
        if outcome.status == "completed":
            self.stats.completed += 1
        self.outcomes.append(outcome)
        return outcome

    def _compensate(
        self,
        saga: Saga,
        completed: list[SagaStep],
        ctx: dict,
        outcome: SagaOutcome,
    ) -> Generator:
        outcome.status = "compensated"
        tracer = self.env.tracer
        for step in reversed(completed):
            if step.compensation is None:
                continue
            attempts = 0
            span = tracer.begin("saga.compensate", step=step.name)
            try:
                while True:
                    attempts += 1
                    try:
                        yield from step.compensation(ctx)
                        break
                    except Interrupted:
                        raise
                    except Exception:  # noqa: BLE001 - retried, then declared stuck
                        if attempts > self.compensation_retries:
                            outcome.status = "stuck"
                            self.stats.stuck += 1
                            span.annotate(outcome="stuck")
                            return
                        yield self.env.timeout(2.0 * attempts)  # backoff
            finally:
                tracer.end(span, attempts=attempts)
        self.stats.compensated += 1
