"""The workload driver: arrivals → operations → metrics + ledger + trace."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, Optional

from repro.core.metrics import LatencyRecorder, MetricsCollector
from repro.obs import Tracer, chrome_trace_json
from repro.sim import Environment, Interrupted
from repro.transactions.anomalies import AnomalyReport, EffectLedger, Invariant

#: An executor runs one abstract operation end to end; raising means the
#: client observed a failure (the op is then *not* acknowledged).
Executor = Callable[[Any], Generator]


def _kind_of(op: Any) -> str:
    return getattr(op, "kind", type(op).__name__)


@dataclass
class RunResult:
    """Everything one benchmark run produced."""

    label: str
    metrics: MetricsCollector
    anomalies: AnomalyReport
    wall_ms: float
    extra: dict = field(default_factory=dict)
    #: The run's :class:`~repro.obs.Tracer` when tracing was enabled.
    trace: Optional[Tracer] = None
    _pooled: Optional[LatencyRecorder] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def throughput(self) -> float:
        return self.metrics.throughput()

    def p(self, q: float) -> float:
        """Latency percentile pooled over every operation type.

        Samples are pooled once (without touching the collector's state)
        and the pooled recorder caches its sort, so repeated ``p(50)`` /
        ``p(99)`` queries cost one sort total.
        """
        if self._pooled is None:
            pooled = LatencyRecorder()
            for recorder in self.metrics.recorders().values():
                pooled.extend(recorder.samples)
            self._pooled = pooled
        if not self._pooled.count:
            return 0.0
        return self._pooled.p(q)

    @property
    def completed(self) -> int:
        return self.metrics.completed()

    @property
    def failed(self) -> int:
        return self.metrics.failed()

    # -- trace artifacts ----------------------------------------------------

    def trace_json(self) -> str:
        """Chrome ``trace_event`` JSON for this run (Perfetto-loadable)."""
        if self.trace is None:
            raise ValueError(
                f"run {self.label!r} was not traced; pass tracer=Tracer() to "
                "Environment or call repro.obs.set_default_tracing(True)"
            )
        return chrome_trace_json(self.trace)


class WorkloadDriver:
    """Runs an operation list through an executor under an arrival model."""

    def __init__(self, env: Environment, label: str = "run") -> None:
        self.env = env
        self.label = label
        self.metrics = MetricsCollector()
        self.ledger = EffectLedger()

    def issue_fn(self, ops: list[Any], execute: Executor) -> Callable[[int], Generator]:
        """Build the per-operation callback for an arrival process."""

        def issue(op_index: int) -> Generator:
            op = ops[op_index]
            kind = _kind_of(op)
            tracer = self.env.tracer
            if not tracer.enabled:
                # Untraced fast path: no span bookkeeping per operation.
                started = self.env.now
                try:
                    yield from execute(op)
                except Interrupted:
                    raise
                except Exception:  # noqa: BLE001 - a failure the client observed
                    self.metrics.record_failure(kind)
                    raise
                self.metrics.record_success(kind, self.env.now - started)
                op_id = getattr(op, "op_id", None)
                if op_id is not None:
                    self.ledger.acknowledge(op_id)
                return
            # Each client-visible operation is a root span: the unit the
            # critical-path report decomposes.
            span = tracer.begin(f"op:{kind}", parent=None, index=op_index)
            started = self.env.now
            try:
                yield from execute(op)
            except Interrupted:
                tracer.end(span, outcome="interrupted")
                raise
            except Exception:  # noqa: BLE001 - a failure the client observed
                self.metrics.record_failure(kind)
                tracer.end(span, outcome="failed")
                raise
            self.metrics.record_success(kind, self.env.now - started)
            tracer.end(span, outcome="ok")
            op_id = getattr(op, "op_id", None)
            if op_id is not None:
                self.ledger.acknowledge(op_id)

        return issue

    def run(
        self,
        ops: Iterable[Any],
        execute: Executor,
        arrival,
        invariants: Iterable[Invariant] = (),
        state_fn: Optional[Callable[[], Any]] = None,
    ) -> Generator:
        """Drive the whole run; returns a :class:`RunResult`.

        ``state_fn`` (if given) is called after the run to produce the
        snapshot the invariants check — use it when final state must be
        read after quiescence.
        """
        ops = list(ops)
        started = self.env.now
        self.metrics.start(started)
        yield from arrival.drive(self.env, self.issue_fn(ops, execute))
        self.metrics.stop(self.env.now)
        final_state = state_fn() if state_fn is not None else None
        report = self.ledger.reconcile(invariants=invariants, state=final_state)
        tracer = self.env.tracer
        return RunResult(
            label=self.label,
            metrics=self.metrics,
            anomalies=report,
            wall_ms=self.env.now - started,
            trace=tracer if tracer.enabled else None,
        )
