"""Durable workflow orchestrations: event-sourced, replay-based execution.

Azure Durable Functions' orchestration model (paper refs [14, 15], §3.1),
also the Temporal model: a *workflow* is ordinary-looking code whose every
interaction with the world goes through commands (``ctx.activity``,
``ctx.timer``, ``ctx.all``).  The engine persists a **history** of command
completions; after any crash it re-executes the workflow from the top,
feeding recorded results instead of re-running activities — so workflow
progress is durable even though the code looks like a plain function.

Semantics reproduced:

- workflow-level effects are **exactly-once**: each activity's completion
  is recorded once and replay never re-executes completed activities;
- activity executions themselves are **at-least-once**: an activity that
  was scheduled but not yet recorded when the engine crashed runs again on
  recovery — activities must therefore be idempotent (the §3.2 burden
  again);
- workflow code must be **deterministic**: the engine verifies on replay
  that the code issues the same commands in the same order, raising
  :class:`NonDeterminismError` otherwise (the formal-semantics point of
  [15]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.sim import CrashScope, Environment, Future, Interrupted, all_of

ActivityFn = Callable[..., Generator]
WorkflowFn = Callable[["OrchestrationContext", Any], Generator]


class NonDeterminismError(Exception):
    """Replay produced different commands than the recorded history."""


class WorkflowFailed(Exception):
    """The workflow raised; carries the original error repr."""


@dataclass(frozen=True)
class _Command:
    kind: str  # "activity" | "timer" | "all"
    name: str = ""
    args: tuple = ()
    delay: float = 0.0
    children: tuple = ()


@dataclass
class _HistoryEvent:
    """One completed command, in issue order."""

    kind: str
    name: str
    result: Any


@dataclass
class _Instance:
    instance_id: str
    workflow: str
    input: Any
    history: list[_HistoryEvent] = field(default_factory=list)
    status: str = "running"  # running | completed | failed
    result: Any = None
    #: commands scheduled but not yet completed: issue-index -> command
    pending: dict[int, _Command] = field(default_factory=dict)
    future: Optional[Future] = None


class OrchestrationContext:
    """What workflow code may touch.  Everything else is nondeterminism."""

    def __init__(self, instance_id: str) -> None:
        self.instance_id = instance_id

    def activity(self, name: str, *args: Any) -> _Command:
        """Command: run activity ``name`` (idempotent!) and await its result."""
        return _Command(kind="activity", name=name, args=args)

    def timer(self, delay: float) -> _Command:
        """Command: durable timer (survives crashes, unlike a sleep)."""
        return _Command(kind="timer", name=f"timer:{delay}", delay=delay)

    def all(self, commands: list[_Command]) -> _Command:
        """Command: run sub-commands concurrently, await all results."""
        return _Command(kind="all", name="all", children=tuple(commands))


@dataclass
class DurableStats:
    completed: int = 0
    failed: int = 0
    replays: int = 0


class DurableWorkflows:
    """The orchestration engine."""

    def __init__(self, env: Environment, activity_latency: float = 1.0) -> None:
        self.env = env
        self.activity_latency = activity_latency
        self._workflows: dict[str, WorkflowFn] = {}
        self._activities: dict[str, ActivityFn] = {}
        self._instances: dict[str, _Instance] = {}  # histories are durable
        #: the live incarnation's dispatches and timers
        self._scope = CrashScope(env)
        self.stats = DurableStats()

    # -- registration -----------------------------------------------------------

    def workflow(self, name: str):
        def register(fn: WorkflowFn) -> WorkflowFn:
            if name in self._workflows:
                raise ValueError(f"workflow {name!r} already registered")
            self._workflows[name] = fn
            return fn

        return register

    def activity(self, name: str):
        def register(fn: ActivityFn) -> ActivityFn:
            if name in self._activities:
                raise ValueError(f"activity {name!r} already registered")
            self._activities[name] = fn
            return fn

        return register

    # -- client API ---------------------------------------------------------------

    def start(self, instance_id: str, workflow: str, input: Any = None) -> Future:
        """Begin an orchestration; the future resolves with its result."""
        if workflow not in self._workflows:
            raise KeyError(f"no workflow {workflow!r}")
        if instance_id in self._instances:
            instance = self._instances[instance_id]
            if instance.future is None:
                instance.future = self.env.future(label=f"wf:{instance_id}")
                self._settle_if_finished(instance)
            return instance.future  # idempotent start
        instance = _Instance(
            instance_id=instance_id,
            workflow=workflow,
            input=input,
            future=self.env.future(label=f"wf:{instance_id}"),
        )
        self._instances[instance_id] = instance
        self._drive(instance)
        return instance.future

    def history_of(self, instance_id: str) -> list[tuple[str, str]]:
        return [(e.kind, e.name) for e in self._instances[instance_id].history]

    # -- the replay loop -------------------------------------------------------------

    def _drive(self, instance: _Instance) -> None:
        """(Re-)execute the workflow from the top against its history."""
        if instance.status != "running":
            return
        self.stats.replays += 1
        fn = self._workflows[instance.workflow]
        ctx = OrchestrationContext(instance.instance_id)
        generator = fn(ctx, instance.input)
        cursor = 0
        send_value: Any = None
        try:
            while True:
                command = generator.send(send_value)
                if not isinstance(command, _Command):
                    raise NonDeterminismError(
                        f"{instance.instance_id}: workflow yielded {command!r}; "
                        "only ctx.activity/ctx.timer/ctx.all may be yielded"
                    )
                if cursor < len(instance.history):
                    event = instance.history[cursor]
                    if event.name != command.name or event.kind != command.kind:
                        raise NonDeterminismError(
                            f"{instance.instance_id}: replay mismatch at step "
                            f"{cursor}: history has {event.kind}:{event.name}, "
                            f"code issued {command.kind}:{command.name}"
                        )
                    send_value = event.result
                    cursor += 1
                    continue
                # A new command: schedule it and suspend this execution.
                self._schedule(instance, cursor, command)
                return
        except StopIteration as stop:
            instance.status = "completed"
            instance.result = stop.value
            instance.pending.clear()
            self.stats.completed += 1
            self._settle_if_finished(instance)
        except NonDeterminismError as exc:
            # Determinism violations fail the orchestration (as Durable
            # Functions does) — they may surface mid-replay in a callback,
            # where raising would vanish into a background process.
            self._fail_instance(instance, repr(exc))
        except Exception as exc:  # noqa: BLE001 - workflow business failure
            instance.status = "failed"
            instance.result = repr(exc)
            instance.pending.clear()
            self.stats.failed += 1
            self._settle_if_finished(instance)

    def _settle_if_finished(self, instance: _Instance) -> None:
        if instance.future is None:
            return
        if instance.status == "completed":
            instance.future.try_succeed(instance.result)
        elif instance.status == "failed":
            instance.future.try_fail(WorkflowFailed(instance.result))

    # -- command execution --------------------------------------------------------------

    def _schedule(self, instance: _Instance, index: int, command: _Command) -> None:
        if index in instance.pending:
            return  # already in flight (e.g. re-drive while awaiting)
        instance.pending[index] = command
        if command.kind == "all":
            self._scope.spawn(
                self._run_all(instance, index, command),
                f"{instance.instance_id}:all@{index}",
            )
        elif command.kind == "timer":
            self._scope.schedule(
                command.delay, self._complete, instance, index, command, None
            )
        else:
            self._scope.spawn(
                self._run_activity(instance, index, command),
                f"{instance.instance_id}:{command.name}@{index}",
            )

    def _execute(self, command: _Command) -> Generator:
        """Dispatch one activity and return its result.

        The dispatch belongs to the engine's scope; the body does not.  It
        runs in a process of its own, modelling a remote worker that an
        engine crash does not stop, and its result reaches the history
        only through a dispatch that is still alive.
        """
        fn = self._activities.get(command.name)
        if fn is None:
            raise KeyError(f"no activity {command.name!r}")
        yield self.env.timeout(self.activity_latency)
        return (yield self.env.process(fn(*command.args), label=f"activity:{command.name}"))

    def _run_activity(self, instance: _Instance, index: int, command: _Command) -> Generator:
        try:
            result = yield from self._execute(command)
        except Interrupted:
            raise
        except Exception as exc:  # noqa: BLE001 - activity failure fails the wf
            self._fail_instance(instance, f"activity {command.name!r}: {exc!r}")
            return
        self._complete(instance, index, command, result)

    def _run_all(self, instance: _Instance, index: int, command: _Command) -> Generator:
        children = [
            self.env.timeout(child.delay) if child.kind == "timer"
            else self._scope.spawn(
                self._execute(child), f"{instance.instance_id}:child:{child.name}"
            )
            for child in command.children
        ]
        try:
            results = yield all_of(self.env, children)
        except Interrupted:
            raise
        except Exception as exc:  # noqa: BLE001
            self._fail_instance(instance, repr(exc))
            return
        self._complete(instance, index, command, list(results))

    def _complete(
        self, instance: _Instance, index: int, command: _Command, result: Any
    ) -> None:
        if instance.status != "running":
            return
        instance.pending.pop(index, None)
        instance.history.append(_HistoryEvent(command.kind, command.name, result))
        self._drive(instance)

    def _fail_instance(self, instance: _Instance, reason: str) -> None:
        if instance.status != "running":
            return
        instance.status = "failed"
        instance.result = reason
        instance.pending.clear()
        self.stats.failed += 1
        self._settle_if_finished(instance)

    # -- crash / recovery ------------------------------------------------------------------

    def crash(self) -> None:
        """Kill the engine: in-flight activity executions and timers are
        lost; histories (durable storage) survive."""
        self._scope.crash()
        for instance in self._instances.values():
            instance.pending.clear()
            if instance.future is not None and not instance.future.done:
                instance.future = None  # the client connection died too

    def recover(self) -> None:
        """Replay every unfinished orchestration from its history."""
        for instance in self._instances.values():
            if instance.status == "running":
                self._drive(instance)

    def wait(self, instance_id: str) -> Future:
        """(Re-)subscribe to an instance's completion (after recovery)."""
        instance = self._instances[instance_id]
        if instance.future is None or instance.future.done:
            instance.future = self.env.future(label=f"wf:{instance_id}")
        self._settle_if_finished(instance)
        return instance.future
