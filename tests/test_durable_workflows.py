"""Tests for the replay-based durable workflow engine."""

import pytest

from repro.faas import DurableWorkflows, NonDeterminismError, WorkflowFailed
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment(seed=161)


def make_engine(env):
    engine = DurableWorkflows(env, activity_latency=1.0)
    executions = {"log": []}

    @engine.activity("reserve")
    def reserve(item):
        yield env.timeout(2.0)
        executions["log"].append(("reserve", item))
        return f"res-{item}"

    @engine.activity("charge")
    def charge(amount):
        yield env.timeout(2.0)
        executions["log"].append(("charge", amount))
        return f"paid-{amount}"

    @engine.activity("boom")
    def boom():
        yield env.timeout(1.0)
        raise ValueError("activity exploded")

    @engine.workflow("checkout")
    def checkout(ctx, payload):
        reservation = yield ctx.activity("reserve", payload["item"])
        receipt = yield ctx.activity("charge", payload["amount"])
        return {"reservation": reservation, "receipt": receipt}

    @engine.workflow("with_timer")
    def with_timer(ctx, payload):
        yield ctx.timer(50.0)
        result = yield ctx.activity("reserve", "after-timer")
        return result

    @engine.workflow("parallel")
    def parallel(ctx, payload):
        results = yield ctx.all([
            ctx.activity("reserve", "a"),
            ctx.activity("reserve", "b"),
            ctx.activity("charge", 7),
        ])
        return results

    @engine.workflow("failing")
    def failing(ctx, payload):
        yield ctx.activity("boom")

    return engine, executions


def run(env, fut):
    return env.run_until(fut)


class TestHappyPath:
    def test_sequential_activities(self, env):
        engine, executions = make_engine(env)
        result = run(env, engine.start("wf-1", "checkout",
                                       {"item": "book", "amount": 30}))
        assert result == {"reservation": "res-book", "receipt": "paid-30"}
        assert executions["log"] == [("reserve", "book"), ("charge", 30)]
        assert engine._instances["wf-1"].status == "completed"

    def test_history_records_command_order(self, env):
        engine, _ = make_engine(env)
        run(env, engine.start("wf-1", "checkout", {"item": "x", "amount": 1}))
        assert engine.history_of("wf-1") == [
            ("activity", "reserve"), ("activity", "charge"),
        ]

    def test_start_is_idempotent(self, env):
        engine, executions = make_engine(env)
        fut1 = engine.start("wf-1", "checkout", {"item": "x", "amount": 1})
        fut2 = engine.start("wf-1", "checkout", {"item": "x", "amount": 1})
        run(env, fut1)
        env.run()
        assert fut2.done
        assert executions["log"].count(("reserve", "x")) == 1

    def test_durable_timer(self, env):
        engine, _ = make_engine(env)
        fut = engine.start("wf-t", "with_timer", None)
        result = run(env, fut)
        assert result == "res-after-timer"
        assert env.now >= 50.0

    def test_parallel_activities(self, env):
        engine, executions = make_engine(env)
        started = env.now
        results = run(env, engine.start("wf-p", "parallel", None))
        assert results == ["res-a", "res-b", "paid-7"]
        # Concurrent, not sequential: ~one activity duration, not three.
        assert env.now - started < 3 * 3.0

    def test_unknown_workflow(self, env):
        engine, _ = make_engine(env)
        with pytest.raises(KeyError):
            engine.start("wf-1", "nope")


class TestFailures:
    def test_activity_failure_fails_workflow(self, env):
        engine, _ = make_engine(env)
        fut = engine.start("wf-f", "failing", None)
        with pytest.raises(WorkflowFailed, match="exploded"):
            run(env, fut)
        assert engine._instances["wf-f"].status == "failed"

    def test_workflow_exception_fails_instance(self, env):
        engine, _ = make_engine(env)

        @engine.workflow("raises")
        def raises(ctx, payload):
            yield ctx.timer(1.0)
            raise RuntimeError("business error")

        fut = engine.start("wf-r", "raises", None)
        with pytest.raises(WorkflowFailed, match="business error"):
            run(env, fut)

    def test_nondeterministic_workflow_detected(self, env):
        engine, _ = make_engine(env)
        flip = {"n": 0}

        @engine.workflow("flaky")
        def flaky(ctx, payload):
            flip["n"] += 1
            if flip["n"] == 1:
                yield ctx.activity("reserve", "first")
            else:
                yield ctx.activity("charge", 99)  # different command on replay!
            yield ctx.activity("reserve", "second")

        fut = engine.start("wf-nd", "flaky", None)
        env.run()
        assert engine._instances["wf-nd"].status == "failed"
        assert "replay mismatch" in engine._instances["wf-nd"].result
        with pytest.raises(WorkflowFailed, match="replay mismatch"):
            fut.result()

    def test_yielding_garbage_detected(self, env):
        engine, _ = make_engine(env)

        @engine.workflow("garbage")
        def garbage(ctx, payload):
            yield 42

        fut = engine.start("wf-g", "garbage", None)
        env.run()
        with pytest.raises(WorkflowFailed, match="may be yielded"):
            fut.result()


class TestCrashRecovery:
    def test_progress_survives_crash(self, env):
        """Crash after the first activity: replay skips it, runs the second."""
        engine, executions = make_engine(env)
        engine.start("wf-1", "checkout", {"item": "book", "amount": 30})
        env.run(until=4.0)  # reserve completed (t=3), charge in flight
        assert ("reserve", "book") in executions["log"]
        engine.crash()
        engine.recover()
        result = run(env, engine.wait("wf-1"))
        assert result == {"reservation": "res-book", "receipt": "paid-30"}
        # reserve executed once (its completion was recorded pre-crash);
        # charge executed at least once (lost in-flight, re-run on recovery).
        assert executions["log"].count(("reserve", "book")) == 1
        assert executions["log"].count(("charge", 30)) >= 1

    def test_activity_in_flight_at_crash_runs_again(self, env):
        """At-least-once activities: the §3.2 idempotency burden."""
        engine, executions = make_engine(env)
        engine.start("wf-1", "checkout", {"item": "x", "amount": 5})
        env.run(until=1.5)  # reserve dispatched, not yet completed
        engine.crash()
        engine.recover()
        run(env, engine.wait("wf-1"))
        assert executions["log"].count(("reserve", "x")) >= 1

    def test_activity_body_in_flight_at_crash_finishes_once_unrecorded(self, env):
        """The body models a remote worker: the engine's crash does not stop
        it, but its result reaches no history."""
        engine, executions = make_engine(env)
        engine.start("wf-1", "checkout", {"item": "x", "amount": 5})
        env.run(until=2.0)  # reserve dispatched at t=1, its body runs until t=3
        assert executions["log"] == []
        engine.crash()
        env.run()
        assert executions["log"] == [("reserve", "x")]
        assert engine.history_of("wf-1") == []
        assert engine._instances["wf-1"].status == "running"

    def test_crash_during_timer_resumes_timer(self, env):
        engine, _ = make_engine(env)
        engine.start("wf-t", "with_timer", None)
        env.run(until=20.0)  # mid-timer
        engine.crash()
        engine.recover()
        result = run(env, engine.wait("wf-t"))
        assert result == "res-after-timer"

    def test_completed_instance_unaffected_by_recovery(self, env):
        engine, executions = make_engine(env)
        run(env, engine.start("wf-1", "checkout", {"item": "x", "amount": 5}))
        count_before = len(executions["log"])
        engine.crash()
        engine.recover()
        env.run()
        assert len(executions["log"]) == count_before
        assert run(env, engine.wait("wf-1"))["receipt"] == "paid-5"

    def test_replay_count_visible(self, env):
        engine, _ = make_engine(env)
        run(env, engine.start("wf-1", "checkout", {"item": "x", "amount": 5}))
        # initial drive + one re-drive per completed command.
        assert engine.stats.replays == 3
