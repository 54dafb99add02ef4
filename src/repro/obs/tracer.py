"""Causal spans over the virtual clock.

A :class:`Span` is a named interval of virtual time with a parent link and
tags; a :class:`Tracer` collects them and tracks the *current* span of the
running process so that instrumentation hooks nest automatically.  Context
follows the simulation's causality:

- a spawned :class:`~repro.sim.Process` inherits the spawner's current span;
- a process suspended on a future resumes with its own saved context (the
  kernel saves/restores :attr:`Tracer.current` around every process step);
- cross-process edges (an RPC request executing on another node) are linked
  by carrying the caller's span id in the message and passing it as an
  explicit ``parent``.

Because start/end times come from the virtual clock and span ids from a
per-tracer counter, two same-seed runs produce *byte-identical* exports.
When tracing is off the shared :data:`NULL_TRACER` makes every hook a
no-op, so instrumentation costs nothing on untraced runs.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

#: Sentinel distinguishing "parent not given: use the current span" from an
#: explicit ``parent=None`` (start a new root).
_CURRENT = object()


class Span:
    """One named interval of virtual time in the causal tree."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "tags", "_prev")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        tags: dict[str, Any],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.tags = tags
        self._prev: Optional["Span"] = None  # current span to restore on end

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Virtual-time duration; 0.0 while unfinished."""
        return (self.end - self.start) if self.end is not None else 0.0

    def annotate(self, **tags: Any) -> None:
        """Attach (or overwrite) tags on the span."""
        self.tags.update(tags)

    def __repr__(self) -> str:
        state = f"..{self.end}" if self.end is not None else ".."
        return f"<Span #{self.span_id} {self.name!r} [{self.start}{state}] {self.tags}>"


class Tracer:
    """Collects spans against a virtual clock.

    The tracer is bound to an :class:`~repro.sim.Environment` at
    construction time of the environment (which points :attr:`clock` at the
    virtual clock).  Instrumentation uses three verbs:

    - :meth:`begin` — open a span as a child of the current span and make
      it current (until the matching :meth:`end`);
    - :meth:`start` — open a *detached* span (e.g. a message in flight)
      that never becomes current and is ended elsewhere;
    - :meth:`event` — record an instantaneous marker.
    """

    enabled = True

    def __init__(self) -> None:
        self.clock: Callable[[], float] = lambda: 0.0
        self.spans: list[Span] = []
        self.current: Optional[Span] = None
        self._ids = itertools.count(1)

    # -- recording ----------------------------------------------------------

    def start(self, name: str, parent: Any = _CURRENT, **tags: Any) -> Span:
        """Open a span without making it current.

        ``parent`` may be omitted (child of the current span), ``None``
        (a new root), an ``int`` span id (cross-process causal link), or a
        :class:`Span`.
        """
        if parent is _CURRENT:
            current = self.current
            parent_id = current.span_id if current is not None else None
        elif isinstance(parent, Span):
            parent_id = parent.span_id
        else:
            parent_id = parent
        span = Span(next(self._ids), parent_id, name, self.clock(), tags)
        self.spans.append(span)
        return span

    def begin(self, name: str, parent: Any = _CURRENT, **tags: Any) -> Span:
        """Open a span and make it the current context."""
        span = self.start(name, parent=parent, **tags)
        span._prev = self.current
        self.current = span
        return span

    def end(self, span: Span, **tags: Any) -> Span:
        """Finish ``span`` at the current virtual time.

        If the span is the current context, the context pops back to
        whatever was current when it began.  Ending a span twice keeps the
        first end time (late duplicate deliveries may race the end).
        """
        if span.end is None:
            span.end = self.clock()
        if tags:
            span.tags.update(tags)
        if self.current is span:
            self.current = span._prev
        return span

    def event(self, name: str, **tags: Any) -> Span:
        """Record an instantaneous (zero-duration) marker span, a child of
        the current span."""
        span = self.start(name, **tags)
        span.end = span.start
        return span

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[Span]:
        """Context manager for synchronous (non-yielding) sections."""
        span = self.begin(name, **tags)
        try:
            yield span
        finally:
            self.end(span)

    # -- inspection ---------------------------------------------------------

    def roots(self) -> list[Span]:
        """Top-level spans, in creation order."""
        return [s for s in self.spans if s.parent_id is None]

    def find(self, name: str) -> list[Span]:
        """All spans with the given name, in creation order."""
        return [s for s in self.spans if s.name == name]

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return f"<Tracer spans={len(self.spans)}>"


class _NullSpan:
    """The do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()
    span_id = 0
    parent_id = None
    name = ""
    start = 0.0
    end = 0.0
    tags: dict[str, Any] = {}
    finished = True
    duration = 0.0

    def annotate(self, **tags: Any) -> None:
        pass

    def __repr__(self) -> str:
        return "<NullSpan>"


NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer installed when tracing is disabled.

    Every verb returns :data:`NULL_SPAN` without recording anything, so
    instrumented code needs no ``if tracing:`` branches on its hot paths.
    """

    enabled = False
    current = None
    spans: list[Span] = []

    def start(self, name: str, parent: Any = _CURRENT, **tags: Any) -> _NullSpan:
        return NULL_SPAN

    def begin(self, name: str, parent: Any = _CURRENT, **tags: Any) -> _NullSpan:
        return NULL_SPAN

    def end(self, span: Any, **tags: Any) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, **tags: Any) -> _NullSpan:
        return NULL_SPAN

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[_NullSpan]:
        yield NULL_SPAN

    def roots(self) -> list[Span]:
        return []

    def find(self, name: str) -> list[Span]:
        return []

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "<NullTracer>"


NULL_TRACER = NullTracer()

# -- process-wide default (how benches opt whole runs in) -------------------

_default_enabled = False
_registry: list[Tracer] = []


def set_default_tracing(enabled: bool) -> None:
    """Make every subsequently created Environment trace (or stop tracing).

    Used by the benchmark harness (``--trace-export``) so existing benches
    emit traces without per-bench code.
    """
    global _default_enabled
    _default_enabled = enabled


def default_tracing_enabled() -> bool:
    return _default_enabled


def default_tracer():
    """The tracer a new Environment gets when none is passed explicitly.

    While default tracing is on, each call creates a fresh :class:`Tracer`
    and registers it for :func:`drain_registered_tracers` to collect.
    """
    if not _default_enabled:
        return NULL_TRACER
    tracer = Tracer()
    _registry.append(tracer)
    return tracer


def drain_registered_tracers() -> list[Tracer]:
    """Return and clear the tracers created under default tracing."""
    drained, _registry[:] = list(_registry), []
    return drained
