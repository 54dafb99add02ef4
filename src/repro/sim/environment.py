"""The simulation environment: virtual clock, event queue, and processes.

The environment owns two event containers:

- a **ready queue** (FIFO deque) for zero-delay events — future dispatches,
  process steps, ``timeout(0)`` — which make up the bulk of traffic in
  RPC-heavy workloads and need no priority ordering, and
- a **heap** of ``(time, sequence, callback, args)`` entries for genuinely
  future events.

Every scheduled event still consumes one monotone sequence number, and the
executors drain both containers in exact global ``(time, sequence)`` order,
so the split is invisible to simulated behaviour: two runs with the same
seed produce byte-identical traces with the fast path on or off (see
``fast_path`` below and ``tests/test_golden_equivalence.py``).  Time only
advances when the next entry is popped, so latencies measured inside the
simulation are exact.
"""

from __future__ import annotations

import heapq
import random
import zlib
from collections import deque
from typing import Any, Callable, Generator, Optional

from repro.obs.tracer import default_tracer
from repro.sim.events import Future

_INF = float("inf")
#: a virtual time no run reaches: a periodic timer cannot hide a deadlock
#: from :meth:`Environment.run_until` past it
RUN_UNTIL_LIMIT_MS = 1e12


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Interrupted(Exception):
    """Thrown into a process that was interrupted (e.g. its node crashed).

    The ``cause`` attribute carries the interrupter's reason object.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Future):
    """A running generator, resumable by the environment.

    A process is itself a future: it resolves with the generator's return
    value, or fails with the exception that escaped the generator.  Yield a
    process to wait for it; call :meth:`interrupt` to throw
    :class:`Interrupted` into it at its current suspension point.
    """

    __slots__ = ("_generator", "_waiting_on", "_resume_callback", "_tracer", "_trace_ctx")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Any, Any, Any],
        label: str = "",
    ) -> None:
        super().__init__(env, label=label or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Optional[Future] = None
        # One reusable bound resume callback per process: creating a fresh
        # closure on every suspension shows up in kernel profiles.
        self._resume_callback: Callable[[Future], None] = self._resume
        # Causal tracing: a process inherits the spawner's span context and
        # carries it across suspensions (see repro.obs.tracer).
        tracer = env.tracer
        self._tracer = tracer if tracer.enabled else None
        self._trace_ctx = tracer.current if self._tracer is not None else None
        env.call_soon(self._step, None, None)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process *now*.

        The process's ``except Interrupted`` handlers and ``finally``
        blocks run before ``interrupt`` returns.  The future the process
        was waiting on is detached: its eventual resolution no longer
        resumes the process.  A process that catches the interrupt and
        suspends again lives on: it models cleanup that another party
        finishes, such as a database aborting the dead client's
        transaction.  Interrupting a finished process is a no-op; a
        process that interrupts itself (say, by crashing its own node)
        receives the interrupt at its next suspension point.
        """
        if self._done:
            return
        if self._generator.gi_running:
            self.env.call_soon(self.interrupt, cause)
            return
        tracer = self._tracer
        context = tracer.current if tracer is not None else None
        self._detach()
        self._step(None, Interrupted(cause))
        if tracer is not None:
            tracer.current = context

    def _detach(self) -> None:
        if self._waiting_on is not None:
            self._waiting_on.remove_done_callback(self._resume_callback)
        self._waiting_on = None

    def _resume(self, fut: Future) -> None:
        # The success branch below is a manual inline of
        # ``self._step(fut._value, None)`` — one stack frame per process
        # resumption is the kernel's hottest cost.  Keep it in sync with
        # :meth:`_step`.
        if self._done:
            return
        if fut is not self._waiting_on:
            return  # detached by an interrupt that raced this callback
        if fut._exc is not None:
            self._step(None, fut._exc)
            return
        self._waiting_on = None
        tracer = self._tracer
        if tracer is not None:
            tracer.current = self._trace_ctx
        try:
            try:
                target = self._generator.send(fut._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - process bodies may raise anything
                self.fail(exc)
                return
            if not isinstance(target, Future):
                self.env.call_soon(self._step, None, self._yield_error(target))
                return
            self._waiting_on = target
            # Inlined target.add_done_callback(self._resume_callback):
            if target._done:
                self.env.call_soon(self._resume_callback, target)
            else:
                target._callbacks.append(self._resume_callback)
        finally:
            if tracer is not None:
                self._trace_ctx = tracer.current
                tracer.current = None

    def _yield_error(self, target: Any) -> SimulationError:
        return SimulationError(
            f"process {self.label!r} yielded {target!r}; "
            "only Future/Timeout/Process may be yielded"
        )

    def _step(self, send_value: Any, throw_exc: Optional[BaseException]) -> None:
        if self._done:
            return
        self._waiting_on = None
        tracer = self._tracer
        if tracer is not None:
            tracer.current = self._trace_ctx
        try:
            try:
                if throw_exc is not None:
                    target = self._generator.throw(throw_exc)
                else:
                    target = self._generator.send(send_value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - process bodies may raise anything
                self.fail(exc)
                return
            if not isinstance(target, Future):
                self.env.call_soon(self._step, None, self._yield_error(target))
                return
            self._waiting_on = target
            # Inlined target.add_done_callback(self._resume_callback):
            if target._done:
                self.env.call_soon(self._resume_callback, target)
            else:
                target._callbacks.append(self._resume_callback)
        finally:
            if tracer is not None:
                self._trace_ctx = tracer.current
                tracer.current = None


class CrashScope:
    """The processes and timers one incarnation of a component owns.

    :meth:`crash` interrupts every live process the scope spawned (see
    :meth:`Process.interrupt`) and drops every timer it scheduled that has not
    fired, synchronously: ``finally`` blocks and ``except Interrupted``
    handlers run against the dying incarnation's state before the caller
    resets it.  Work left over from a crashed incarnation therefore never
    acts on recovered state, by construction rather than by a check after
    each suspension point.  The scope outlives its crashes: what it spawns
    afterwards belongs to the next incarnation.
    """

    __slots__ = ("env", "_processes", "_prune_at", "_timers")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._processes: list[Process] = []
        self._prune_at = 256
        #: the live incarnation's timer token: crash() swaps it, and a
        #: timer scheduled under an older token fires as a no-op
        self._timers = object()

    def spawn(self, generator: Generator[Any, Any, Any], label: str = "") -> Process:
        """Start a process that dies with the scope's next crash."""
        process = Process(self.env, generator, label)
        processes = self._processes
        processes.append(process)
        if len(processes) > self._prune_at:
            # Drop finished processes once the list has doubled since the
            # last prune: amortized O(1) per spawn however many are alive.
            self._processes = [p for p in processes if not p._done]
            self._prune_at = max(256, 2 * len(self._processes))
        return process

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` unless the scope crashes first."""
        self.env.schedule(delay, self._fire, self._timers, callback, args)

    def _fire(self, token: object, callback: Callable[..., None], args: tuple) -> None:
        if token is self._timers:
            callback(*args)

    def crash(self, cause: Any = "crash") -> None:
        """Kill every live process and drop every pending timer, now.

        Timers that the dying processes' handlers schedule in the scope
        are dropped too.  A process crashing its own scope dies at its
        next suspension point.
        """
        processes, self._processes = self._processes, []
        for process in processes:
            process.interrupt(cause)
        self._prune_at = 256
        self._timers = object()


class Environment:
    """Deterministic event loop with a virtual clock.

    Parameters
    ----------
    seed:
        Master seed.  Use :meth:`stream` to derive independent, stable
        random streams for different subsystems so that adding randomness
        in one place does not perturb another.
    tracer:
        A :class:`repro.obs.Tracer` to record causal spans against the
        virtual clock, or ``None`` for the process-wide default (the no-op
        tracer unless :func:`repro.obs.set_default_tracing` turned tracing
        on).  Tracing never consumes virtual time, so traced and untraced
        runs produce identical metrics.
    fast_path:
        The one reference switch for the whole stack.  When ``True`` (the
        default), zero-delay events are kept in a FIFO ready queue instead
        of the heap, and every :class:`~repro.db.engine.Database` built on
        this environment runs its storage fast paths (version-chain GC,
        group commit, copy elision, read-only commit elision).  ``False``
        forces every event through the heap and builds reference engines
        (every version kept, one fsync per commit, copying reads), so
        equivalence stays testable: the golden suite asserts both modes
        produce byte-identical results.
    """

    __slots__ = (
        "_now",
        "_heap",
        "_ready",
        "_sequence",
        "_executed",
        "seed",
        "_streams",
        "_counters",
        "tracer",
        "fast_path",
    )

    def __init__(
        self,
        seed: int = 0,
        tracer: Optional[Any] = None,
        fast_path: bool = True,
    ) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._ready: deque[tuple[int, Callable[..., None], tuple]] = deque()
        self._sequence = 0
        self._executed = 0
        self.seed = seed
        self._streams: dict[str, random.Random] = {}
        self._counters: dict[str, int] = {}
        self.tracer = tracer if tracer is not None else default_tracer()
        self.fast_path = fast_path
        if self.tracer.enabled:
            self.tracer.clock = lambda: self._now

    # -- clock and scheduling -----------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time (milliseconds by convention)."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` units of virtual time."""
        if delay == 0.0 and self.fast_path:
            self._sequence += 1
            self._ready.append((self._sequence, callback, args))
            return
        if not (0.0 <= delay < _INF):  # rejects negatives, NaN, and +inf
            raise SimulationError(
                f"cannot schedule at a non-finite or past offset (delay={delay})"
            )
        self._sequence += 1
        heapq.heappush(self._heap, (self._now + delay, self._sequence, callback, args))

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at the current time (zero delay).

        The kernel's internal fast path for future dispatch and process
        steps; equivalent to ``schedule(0.0, ...)`` but skips the delay
        validation.
        """
        self._sequence += 1
        if self.fast_path:
            self._ready.append((self._sequence, callback, args))
        else:
            heapq.heappush(self._heap, (self._now, self._sequence, callback, args))

    def timeout(self, delay: float, value: Any = None) -> Future:
        """Return a future that succeeds with ``value`` after ``delay``."""
        # Field-by-field construction skips the Future.__init__ frame; one
        # constructor call per timeout is measurable at benchmark scale.
        # Keep in sync with Future.__init__.
        fut = Future.__new__(Future)
        fut.env = self
        fut._done = False
        fut._value = None
        fut._exc = None
        fut._callbacks = []
        fut.label = "timeout"
        if delay == 0.0 and self.fast_path:
            self._sequence += 1
            self._ready.append((self._sequence, fut.try_succeed, (value,)))
            return fut
        self.schedule(delay, fut.try_succeed, value)
        return fut

    def future(self, label: str = "") -> Future:
        """Create an unresolved future bound to this environment."""
        return Future(self, label=label)

    def process(self, generator: Generator[Any, Any, Any], label: str = "") -> Process:
        """Start a new process from a generator and return its handle."""
        return Process(self, generator, label=label)

    # -- running ------------------------------------------------------------

    # The three executors below intentionally inline the "pop next event in
    # global (time, sequence) order" logic rather than sharing a helper:
    # one extra function call per event costs ~15% wall-clock at benchmark
    # scale.  A ready entry always carries the *current* time (the loop
    # never advances the clock while the ready queue is non-empty), so the
    # only case where the heap must be drained first is a heap entry at the
    # same timestamp with a smaller sequence number — an earlier-scheduled
    # positive delay landing on the current instant.

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue, optionally stopping at virtual time ``until``.

        Returns the virtual time at which the run stopped.
        """
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        executed = 0
        try:
            while ready or heap:
                if ready:
                    if until is not None and self._now > until:
                        self._now = until
                        return self._now
                    entry = ready.popleft()
                    if heap and heap[0][0] <= self._now and heap[0][1] < entry[0]:
                        ready.appendleft(entry)
                        when, _seq, callback, args = pop(heap)
                        self._now = when
                    else:
                        _seq, callback, args = entry
                else:
                    when = heap[0][0]
                    if until is not None and when > until:
                        self._now = until
                        return self._now
                    when, _seq, callback, args = pop(heap)
                    self._now = when
                executed += 1
                callback(*args)
        finally:
            self._executed += executed
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_until(self, future: Future) -> Any:
        """Run until ``future`` resolves; return its result.

        Raises :class:`SimulationError` if the queue drains (or the next
        event lies past ``RUN_UNTIL_LIMIT_MS``) before the future resolves —
        i.e. the simulation deadlocked.
        """
        limit = RUN_UNTIL_LIMIT_MS
        heap = self._heap
        ready = self._ready
        pop = heapq.heappop
        executed = 0
        try:
            while not future._done:
                if ready:
                    entry = ready.popleft()
                    if heap and heap[0][0] <= self._now and heap[0][1] < entry[0]:
                        ready.appendleft(entry)
                        when, _seq, callback, args = pop(heap)
                        self._now = when
                    else:
                        _seq, callback, args = entry
                elif heap:
                    when = heap[0][0]
                    if when > limit:
                        raise SimulationError(
                            f"simulation ran dry at t={self._now} before "
                            f"{future.label!r} resolved"
                        )
                    when, _seq, callback, args = pop(heap)
                    self._now = when
                else:
                    raise SimulationError(
                        f"simulation ran dry at t={self._now} before "
                        f"{future.label!r} resolved"
                    )
                executed += 1
                callback(*args)
        finally:
            self._executed += executed
        return future.result()

    def step(self) -> bool:
        """Execute a single event; return ``False`` when the queue is empty."""
        ready = self._ready
        heap = self._heap
        if ready:
            entry = ready.popleft()
            if heap and heap[0][0] <= self._now and heap[0][1] < entry[0]:
                ready.appendleft(entry)
                when, _seq, callback, args = heapq.heappop(heap)
                self._now = when
            else:
                _seq, callback, args = entry
        elif heap:
            when, _seq, callback, args = heapq.heappop(heap)
            self._now = when
        else:
            return False
        self._executed += 1
        callback(*args)
        return True

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._heap) + len(self._ready)

    @property
    def events_executed(self) -> int:
        """Total events this environment has executed (perf accounting)."""
        return self._executed

    # -- randomness ---------------------------------------------------------

    def stream(self, name: str) -> random.Random:
        """Return a named random stream, stable across runs for a given seed."""
        if name not in self._streams:
            derived = zlib.crc32(name.encode("utf-8")) ^ (self.seed * 2654435761 % 2**32)
            self._streams[name] = random.Random(derived)
        return self._streams[name]

    # -- id allocation -------------------------------------------------------

    def next_id(self, name: str) -> int:
        """Allocate the next integer (from 1) of a named per-env counter.

        Replaces process-global ``itertools.count`` class attributes: ids
        are now deterministic per simulation run instead of depending on
        how many environments the process created before this one.
        """
        value = self._counters.get(name, 0) + 1
        self._counters[name] = value
        return value

    def reseed_counter(self, name: str, floor: int) -> None:
        """Ensure the named counter's next value exceeds ``floor``.

        Recovery hook: a component restoring a snapshot that embeds
        previously-issued ids (e.g. the dataflow's committed-tid set) calls
        this so fresh ids never collide with recovered ones.
        """
        if self._counters.get(name, 0) < floor:
            self._counters[name] = floor

    def __repr__(self) -> str:
        return (
            f"<Environment t={self._now} "
            f"pending={len(self._heap) + len(self._ready)} seed={self.seed}>"
        )
