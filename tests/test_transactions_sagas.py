"""Tests for the saga orchestrator: happy path, compensation, stuck sagas."""

import pytest

from repro.sim import Environment
from repro.transactions import Saga, SagaOrchestrator, SagaStep


@pytest.fixture
def env():
    return Environment(seed=12)


def run(env, gen):
    return env.run_until(env.process(gen))


def make_step(env, journal, name, fail=False, compensation_fails=0):
    """A step that appends to a journal; optionally failing."""

    def action(ctx):
        yield env.timeout(1.0)
        if fail:
            raise RuntimeError(f"{name} failed")
        journal.append(("do", name))
        return f"{name}-result"

    remaining_failures = {"count": compensation_fails}

    def compensation(ctx):
        yield env.timeout(1.0)
        if remaining_failures["count"] > 0:
            remaining_failures["count"] -= 1
            raise RuntimeError(f"undo {name} failed")
        journal.append(("undo", name))

    return SagaStep(name, action, compensation)


class TestHappyPath:
    def test_all_steps_run_in_order(self, env):
        journal = []
        saga = Saga("order", [make_step(env, journal, s) for s in ("a", "b", "c")])
        orchestrator = SagaOrchestrator(env)
        outcome = run(env, orchestrator.execute(saga))
        assert outcome.status == "completed"
        assert journal == [("do", "a"), ("do", "b"), ("do", "c")]
        assert outcome.completed_steps == ["a", "b", "c"]

    def test_ctx_carries_results_between_steps(self, env):
        seen = {}

        def first(ctx):
            yield env.timeout(1)
            return "reservation-42"

        def second(ctx):
            yield env.timeout(1)
            seen["from_first"] = ctx["reserve"]
            return None

        saga = Saga("s", [SagaStep("reserve", first), SagaStep("pay", second)])
        run(env, SagaOrchestrator(env).execute(saga))
        assert seen["from_first"] == "reservation-42"

    def test_stats_and_outcomes_recorded(self, env):
        journal = []
        saga = Saga("s", [make_step(env, journal, "only")])
        orchestrator = SagaOrchestrator(env)
        run(env, orchestrator.execute(saga))
        run(env, orchestrator.execute(saga))
        assert orchestrator.stats.completed == 2
        assert len(orchestrator.outcomes) == 2

    def test_duration_measured(self, env):
        journal = []
        saga = Saga("s", [make_step(env, journal, "a"), make_step(env, journal, "b")])
        outcome = run(env, SagaOrchestrator(env).execute(saga))
        assert outcome.duration == pytest.approx(2.0)

    def test_empty_saga_rejected(self):
        with pytest.raises(ValueError):
            Saga("empty", [])


class TestCompensation:
    def test_failure_compensates_in_reverse(self, env):
        journal = []
        saga = Saga(
            "order",
            [
                make_step(env, journal, "a"),
                make_step(env, journal, "b"),
                make_step(env, journal, "c", fail=True),
            ],
        )
        orchestrator = SagaOrchestrator(env)
        outcome = run(env, orchestrator.execute(saga))
        assert outcome.status == "compensated"
        assert outcome.failed_step == "c"
        assert "c failed" in outcome.error
        assert journal == [
            ("do", "a"),
            ("do", "b"),
            ("undo", "b"),
            ("undo", "a"),
        ]
        assert orchestrator.stats.compensated == 1

    def test_first_step_failure_needs_no_compensation(self, env):
        journal = []
        saga = Saga("s", [make_step(env, journal, "a", fail=True)])
        outcome = run(env, SagaOrchestrator(env).execute(saga))
        assert outcome.status == "compensated"
        assert journal == []

    def test_steps_without_compensation_skipped(self, env):
        journal = []

        def read_only(ctx):
            yield env.timeout(1)
            journal.append(("do", "read"))

        saga = Saga(
            "s",
            [
                SagaStep("read", read_only),  # no compensation
                make_step(env, journal, "b", fail=True),
            ],
        )
        outcome = run(env, SagaOrchestrator(env).execute(saga))
        assert outcome.status == "compensated"
        assert journal == [("do", "read")]

    def test_flaky_compensation_retried(self, env):
        journal = []
        saga = Saga(
            "s",
            [
                make_step(env, journal, "a", compensation_fails=2),
                make_step(env, journal, "b", fail=True),
            ],
        )
        orchestrator = SagaOrchestrator(env, compensation_retries=3)
        outcome = run(env, orchestrator.execute(saga))
        assert outcome.status == "compensated"
        assert ("undo", "a") in journal

    def test_hopeless_compensation_marks_saga_stuck(self, env):
        journal = []
        saga = Saga(
            "s",
            [
                make_step(env, journal, "a", compensation_fails=99),
                make_step(env, journal, "b", fail=True),
            ],
        )
        orchestrator = SagaOrchestrator(env, compensation_retries=2)
        outcome = run(env, orchestrator.execute(saga))
        assert outcome.status == "stuck"
        assert orchestrator.stats.stuck == 1
        assert ("undo", "a") not in journal  # inconsistency left behind!


class TestIsolationWindow:
    def test_intermediate_state_is_observable(self, env):
        """Sagas have no isolation: mid-saga state leaks to observers."""
        state = {"stock": 10, "paid": 0}
        observations = []

        def reserve(ctx):
            yield env.timeout(1)
            state["stock"] -= 1

        def unreserve(ctx):
            yield env.timeout(1)
            state["stock"] += 1

        def pay(ctx):
            yield env.timeout(10)  # slow payment provider
            raise RuntimeError("card declined")

        saga = Saga("checkout", [SagaStep("reserve", reserve, unreserve), SagaStep("pay", pay)])

        def observer():
            yield env.timeout(5)  # mid-saga
            observations.append(dict(state))

        env.process(SagaOrchestrator(env).execute(saga))
        env.process(observer())
        env.run()
        assert observations[0]["stock"] == 9  # saw the uncommitted reservation
        assert state["stock"] == 10  # eventually restored
