"""Unit tests for the environment, processes, and interrupts."""

import pytest

from repro.sim import CrashScope, Environment, Interrupted, SimulationError


@pytest.fixture
def env():
    return Environment(seed=7)


class TestClock:
    def test_time_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_timeout_advances_clock(self, env):
        fired = []
        env.schedule(5.0, lambda: fired.append(env.now))
        env.run()
        assert fired == [5.0]
        assert env.now == 5.0

    def test_run_until_limit(self, env):
        env.schedule(10.0, lambda: None)
        stopped = env.run(until=4.0)
        assert stopped == 4.0
        assert env.pending_events == 1

    def test_events_fire_in_time_then_fifo_order(self, env):
        order = []
        env.schedule(2.0, lambda: order.append("b"))
        env.schedule(1.0, lambda: order.append("a"))
        env.schedule(2.0, lambda: order.append("c"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.schedule(-1.0, lambda: None)

    def test_step_executes_one_event(self, env):
        hits = []
        env.schedule(1.0, lambda: hits.append(1))
        env.schedule(2.0, lambda: hits.append(2))
        assert env.step()
        assert hits == [1]
        assert env.step()
        assert not env.step()


class TestProcesses:
    def test_process_returns_value(self, env):
        def worker(env):
            yield env.timeout(3)
            return "ok"

        proc = env.process(worker(env))
        env.run()
        assert proc.result() == "ok"
        assert env.now == 3

    def test_process_waits_on_future(self, env):
        fut = env.future()

        def worker(env):
            value = yield fut
            return value * 2

        proc = env.process(worker(env))
        env.schedule(4.0, fut.succeed, 21)
        env.run()
        assert proc.result() == 42

    def test_process_waits_on_process(self, env):
        def inner(env):
            yield env.timeout(2)
            return 5

        def outer(env):
            value = yield env.process(inner(env))
            return value + 1

        proc = env.process(outer(env))
        env.run()
        assert proc.result() == 6

    def test_failed_future_raises_inside_process(self, env):
        fut = env.future()

        def worker(env):
            try:
                yield fut
            except ValueError:
                return "caught"
            return "not caught"

        proc = env.process(worker(env))
        env.schedule(1.0, fut.fail, ValueError("x"))
        env.run()
        assert proc.result() == "caught"

    def test_uncaught_exception_fails_the_process(self, env):
        def worker(env):
            yield env.timeout(1)
            raise KeyError("oops")

        proc = env.process(worker(env))
        env.run()
        assert proc.failed
        assert isinstance(proc.exception(), KeyError)

    def test_yielding_garbage_fails_the_process(self, env):
        def worker(env):
            yield 42

        proc = env.process(worker(env))
        env.run()
        assert proc.failed
        assert isinstance(proc.exception(), SimulationError)

    def test_run_until_returns_process_result(self, env):
        def worker(env):
            yield env.timeout(1)
            return "r"

        proc = env.process(worker(env))
        assert env.run_until(proc) == "r"

    def test_run_until_detects_deadlock(self, env):
        fut = env.future()  # nobody ever resolves this

        def worker(env):
            yield fut

        proc = env.process(worker(env))
        with pytest.raises(SimulationError, match="ran dry"):
            env.run_until(proc)


class TestInterrupts:
    def test_interrupt_raises_inside_process(self, env):
        def worker(env):
            try:
                yield env.timeout(100)
            except Interrupted as exc:
                return (env.now, f"interrupted:{exc.cause}")

        proc = env.process(worker(env))
        env.schedule(5.0, proc.interrupt, "node-down")
        env.run()
        assert proc.result() == (5.0, "interrupted:node-down")

    def test_interrupt_finished_process_is_noop(self, env):
        def worker(env):
            yield env.timeout(1)
            return 1

        proc = env.process(worker(env))
        env.run()
        proc.interrupt("late")
        env.run()
        assert proc.result() == 1

    def test_detached_future_does_not_resume(self, env):
        fut = env.future()

        def worker(env):
            try:
                yield fut
            except Interrupted:
                yield env.timeout(50)
                return "recovered"

        proc = env.process(worker(env))
        env.schedule(1.0, proc.interrupt, None)
        env.schedule(2.0, fut.succeed, "stale")  # must not resume the process
        env.run()
        assert proc.result() == "recovered"
        assert env.now == 51

    def test_uncaught_interrupt_fails_process(self, env):
        def worker(env):
            yield env.timeout(100)

        proc = env.process(worker(env))
        env.schedule(1.0, proc.interrupt, None)
        env.run()
        assert proc.failed
        assert isinstance(proc.exception(), Interrupted)


class TestCrashScope:
    def test_crash_runs_handlers_and_finally_blocks_synchronously(self, env):
        scope = CrashScope(env)
        state = {"inflight": 1, "seen": []}

        def worker(env):
            try:
                yield env.timeout(100)
            except Interrupted as exc:
                state["seen"].append((exc.cause, state["inflight"]))
                raise
            finally:
                state["inflight"] -= 1

        proc = scope.spawn(worker(env), "worker")
        env.run(until=5.0)
        scope.crash("boom")
        # The dying incarnation's state is still in place when the handler
        # runs, and the finally block has run before crash() returned.
        assert state == {"inflight": 0, "seen": [("boom", 1)]}
        assert proc.failed and isinstance(proc.exception(), Interrupted)
        env.run()
        assert env.now == 100.0  # the timeout fired, but resumed no one

    def test_unstarted_process_never_runs(self, env):
        scope = CrashScope(env)
        ran = []

        def worker(env):
            ran.append(env.now)
            yield env.timeout(1)

        proc = scope.spawn(worker(env))
        scope.crash()
        env.run()
        assert ran == [] and proc.failed

    def test_crash_drops_pending_timers_only(self, env):
        scope = CrashScope(env)
        fired = []
        scope.schedule(5.0, fired.append, "old")
        env.schedule(5.0, fired.append, "unscoped")
        env.run(until=1.0)
        scope.crash()
        scope.schedule(2.0, fired.append, "new")
        env.run()
        assert fired == ["new", "unscoped"]

    def test_work_spawned_after_a_crash_belongs_to_the_next_incarnation(self, env):
        scope = CrashScope(env)

        def sleeper(env):
            yield env.timeout(10)
            return env.now

        first = scope.spawn(sleeper(env))
        scope.crash()
        second = scope.spawn(sleeper(env))
        env.run()
        assert first.failed
        assert second.result() == 10.0

    def test_a_process_that_survives_the_kill_lives_on_outside_the_scope(self, env):
        scope = CrashScope(env)

        def cleanup(env):
            try:
                yield env.timeout(100)
            except Interrupted:
                yield env.timeout(3)  # e.g. the remote abort of its transaction
                return env.now

        proc = scope.spawn(cleanup(env))
        env.run(until=1.0)
        scope.crash()
        scope.crash()  # a second crash no longer owns it
        env.run()
        assert proc.result() == 4.0

    def test_a_process_crashing_its_own_scope_dies_at_its_next_suspension(self, env):
        scope = CrashScope(env)
        fired, outcome = [], []

        def bystander(env):
            try:
                yield env.timeout(100)
            except Interrupted:
                outcome.append(("bystander", env.now))
                raise

        def crasher(env):
            yield env.timeout(1)
            scope.crash("self")
            outcome.append(("crasher ran on", env.now))
            try:
                yield env.timeout(100)
            except Interrupted as exc:
                outcome.append(("crasher", exc.cause, env.now))
                raise

        scope.schedule(5.0, fired.append, "old")
        scope.spawn(bystander(env))
        proc = scope.spawn(crasher(env))
        env.run()
        assert outcome == [("bystander", 1.0), ("crasher ran on", 1.0), ("crasher", "self", 1.0)]
        assert isinstance(proc.exception(), Interrupted)
        assert fired == [] and scope._processes == []

    def test_timers_scheduled_by_dying_handlers_are_dropped(self, env):
        scope = CrashScope(env)
        fired = []

        def worker(env):
            try:
                yield env.timeout(100)
            finally:
                scope.schedule(1.0, fired.append, "from the dead")

        scope.spawn(worker(env))
        env.run(until=1.0)
        scope.crash()
        env.run()
        assert fired == []

    def test_two_thousand_live_processes_prune_only_on_doubling(self, env):
        scope = CrashScope(env)
        forever = env.future()

        def waiter():
            yield forever

        prunes = 0
        for _ in range(2000):
            before = scope._prune_at
            scope.spawn(waiter())
            prunes += scope._prune_at != before
        # 256 -> 514 -> 1030 -> 2062: a rescan per doubling, not per spawn.
        assert prunes == 3
        assert len(scope._processes) == 2000
        env.run()
        scope.crash()
        assert len(scope._processes) == 0

    def test_finished_processes_are_pruned(self, env):
        scope = CrashScope(env)

        def brief():
            yield env.timeout(1)

        for _ in range(5):
            for _ in range(300):
                scope.spawn(brief())
            env.run()
        assert len(scope._processes) <= 2 * 300


class TestRandomStreams:
    def test_streams_are_stable_across_runs(self):
        a = Environment(seed=3).stream("db").random()
        b = Environment(seed=3).stream("db").random()
        assert a == b

    def test_streams_are_independent(self):
        env = Environment(seed=3)
        first = env.stream("net").random()
        env.stream("db").random()  # consuming another stream...
        env2 = Environment(seed=3)
        assert env2.stream("net").random() == first  # ...does not disturb it

    def test_different_seeds_differ(self):
        a = Environment(seed=1).stream("x").random()
        b = Environment(seed=2).stream("x").random()
        assert a != b


class TestScheduleValidation:
    def test_nan_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.schedule(float("nan"), lambda: None)

    def test_positive_infinity_rejected(self, env):
        with pytest.raises(SimulationError):
            env.schedule(float("inf"), lambda: None)

    def test_zero_delay_accepted(self, env):
        fired = []
        env.schedule(0.0, lambda: fired.append(env.now))
        env.run()
        assert fired == [0.0]


class TestReadyQueueOrdering:
    """The FIFO fast path must preserve exact (time, sequence) order."""

    def _interleaved(self, fast_path):
        env = Environment(seed=7, fast_path=fast_path)
        order = []
        # A positive delay landing at t=1 *before* zero-delay events are
        # scheduled at t=1: the heap entry has the smaller sequence number
        # and must preempt the ready queue.
        env.schedule(1.0, lambda: order.append("early-heap"))

        def at_t1():
            env.schedule(0.0, lambda: order.append("ready-1"))
            env.schedule(0.0, lambda: order.append("ready-2"))

        env.schedule(0.5, lambda: env.schedule(0.5, at_t1))
        env.run()
        return order

    def test_fast_path_matches_heap_order(self):
        assert self._interleaved(True) == self._interleaved(False)

    def test_heap_entry_preempts_ready_queue_at_same_time(self):
        env = Environment(seed=7)
        order = []

        def zero_spawner():
            # Queued on the ready queue at t=1 with large sequence numbers.
            env.schedule(0.0, lambda: order.append("zero"))

        env.schedule(1.0, zero_spawner)        # seq 1, fires first at t=1
        env.schedule(1.0, lambda: order.append("heap"))  # seq 2, same instant
        env.run()
        # "heap" was scheduled before "zero" existed, so it runs first.
        assert order == ["heap", "zero"]

    def test_fast_path_off_forces_heap_only(self):
        env = Environment(seed=7, fast_path=False)
        env.schedule(0.0, lambda: None)
        assert len(env._heap) == 1 and not env._ready
        env.run()

    def test_events_executed_counts_both_containers(self):
        env = Environment(seed=7)
        env.schedule(0.0, lambda: None)
        env.schedule(1.0, lambda: None)
        env.run()
        assert env.events_executed == 2

    def test_same_seed_trace_identical_across_modes(self):
        def run(fast_path):
            env = Environment(seed=11, fast_path=fast_path)
            log = []

            def worker(env, name, delay):
                for i in range(5):
                    yield env.timeout(delay if i % 2 else 0)
                    log.append((round(env.now, 6), name, i))

            procs = [env.process(worker(env, n, d))
                     for n, d in [("a", 0.3), ("b", 0.7), ("c", 0.0)]]
            env.run()
            return log

        assert run(True) == run(False)
