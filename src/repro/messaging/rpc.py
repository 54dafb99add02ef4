"""Synchronous RPC over the simulated network (REST/gRPC stand-in).

HTTP-style request/response is stateless and gives no delivery guarantee
(paper §3.2): a timed-out request is retried, and because the original may
have been delivered *and executed*, retries create duplicate executions.
The client attaches an idempotency key to every logical call; whether the
server deduplicates on it is the server's choice — leaving it off is how
the benchmarks reproduce the double-charge anomalies the paper warns about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Sequence

from repro.flow import AdmissionController, RetryBudget, PRIORITY_NORMAL
from repro.messaging.idempotency import IdempotencyStore
from repro.net.network import Message, Network
from repro.net.node import Node
from repro.obs.tracer import NULL_SPAN
from repro.sim import Environment, Interrupted, any_of


class RpcError(Exception):
    """Base class for RPC failures."""


class RpcTimeout(RpcError):
    """No reply within the deadline after all retries."""

    def __init__(self, dst: str, method: str, attempts: int) -> None:
        super().__init__(f"rpc {dst}.{method} timed out after {attempts} attempt(s)")
        self.dst = dst
        self.method = method
        self.attempts = attempts


class RpcRemoteError(RpcError):
    """The remote handler raised; carries the remote exception repr."""

    def __init__(self, dst: str, method: str, remote_error: str) -> None:
        super().__init__(f"rpc {dst}.{method} failed remotely: {remote_error}")
        self.remote_error = remote_error


class RpcRejected(RpcError):
    """The server shed the request at admission (it did NOT execute).

    Distinct from :class:`RpcTimeout` on purpose: a rejection is a definite
    negative — the handler never ran — so callers must not retry it through
    the same overloaded server (that is how retry storms start) and chaos
    oracles may count it as "definitely not applied".
    """

    def __init__(self, dst: str, method: str, detail: str) -> None:
        super().__init__(f"rpc {dst}.{method} shed by admission control: {detail}")
        self.detail = detail


class _Request:
    """One wire request.  ``__slots__``: built once per attempt on the hot
    path, so dataclass construction overhead is measurable."""

    __slots__ = (
        "request_id", "method", "payload", "reply_to", "reply_port",
        "idempotency_key", "trace_parent", "deadline", "priority",
    )

    def __init__(
        self,
        request_id: int,
        method: str,
        payload: Any,
        reply_to: str,
        reply_port: str,
        idempotency_key: Optional[str],
        trace_parent: Optional[int] = None,
        deadline: Optional[float] = None,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        self.request_id = request_id
        self.method = method
        self.payload = payload
        self.reply_to = reply_to
        self.reply_port = reply_port
        self.idempotency_key = idempotency_key
        #: Caller's span id, carried across the wire for causal trace linking.
        self.trace_parent = trace_parent
        #: Absolute virtual-time deadline, propagated so downstream work can
        #: be dropped once nobody is waiting for it (None = no deadline).
        self.deadline = deadline
        #: Admission-control priority class (repro.flow PRIORITY_*).
        self.priority = priority


class _Reply:
    """One wire reply (``code="rejected"`` = shed at admission)."""

    __slots__ = ("request_id", "ok", "value", "code")

    def __init__(
        self, request_id: int, ok: bool, value: Any, code: Optional[str] = None
    ) -> None:
        self.request_id = request_id
        self.ok = ok
        self.value = value
        self.code = code


class RpcCall:
    """One logical call handed to :meth:`RpcClient.gather`.

    The public fields are the arguments of :meth:`RpcClient.call` with the
    same meaning and defaults.  The underscored fields are the state of the
    call's current attempt, owned by the client; a call object is sent once.
    """

    __slots__ = (
        "dst", "method", "payload", "timeout", "retries", "idempotency_key",
        "deadline", "retry_budget", "priority",
        "_span", "_attempt_span", "_attempts", "_request_id", "_reply",
        "_wait", "_sent_at",
    )

    def __init__(
        self,
        dst: str,
        method: str,
        payload: Any = None,
        timeout: float = 20.0,
        retries: int = 3,
        idempotency_key: Optional[str] = None,
        deadline: Optional[float] = None,
        retry_budget: Optional[RetryBudget] = None,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        self.dst = dst
        self.method = method
        self.payload = payload
        self.timeout = timeout
        self.retries = retries
        self.idempotency_key = idempotency_key
        self.deadline = deadline
        self.retry_budget = retry_budget
        self.priority = priority
        self._span: Any = NULL_SPAN
        self._attempt_span: Any = NULL_SPAN
        self._attempts = 0
        #: the live attempt: its request id, reply future, how long it may
        #: wait and when it was sent
        self._request_id = 0
        self._reply: Any = None
        self._wait = 0.0
        self._sent_at = 0.0

    def __repr__(self) -> str:
        return f"<RpcCall {self.dst}.{self.method} attempts={self._attempts}>"


class RpcOutcome:
    """How one call of a :meth:`RpcClient.gather` ended: a value or an error."""

    __slots__ = ("value", "error")

    def __init__(self) -> None:
        self.value: Any = None
        self.error: Optional[RpcError] = None

    def result(self) -> Any:
        """The handler's result, raising the call's :class:`RpcError` if it failed."""
        if self.error is not None:
            raise self.error
        return self.value

    def __repr__(self) -> str:
        if self.error is not None:
            return f"<RpcOutcome error={self.error!r}>"
        return f"<RpcOutcome value={self.value!r}>"


@dataclass
class RpcStats:
    calls: int = 0
    retries: int = 0
    timeouts: int = 0
    duplicate_executions: int = 0
    deduplicated: int = 0
    #: client: calls that raised RpcRejected (server shed them)
    rejected: int = 0
    #: client: retry loops stopped early by an exhausted retry budget
    budget_stopped: int = 0
    #: server: requests dropped unexecuted because their deadline passed
    expired_dropped: int = 0
    #: server: requests shed by the admission controller
    shed: int = 0


class RpcServer:
    """Dispatches incoming requests to registered handler generators.

    ``handler(payload)`` must be a generator function; each request runs as
    its own process on the server's node (so a node crash kills in-flight
    handlers mid-execution — the partial-failure case of §3.2).

    If ``dedup_store`` is given, requests carrying an idempotency key are
    executed at most once: repeats return the recorded response.

    If ``admission`` is given, requests are shed at the door when the
    controller's in-flight limit for their priority class is reached
    (reply code ``"rejected"`` → the client raises :class:`RpcRejected`),
    and requests whose propagated deadline already passed are dropped
    unexecuted — the two server-side overload defenses of ``repro.flow``.
    """

    def __init__(
        self,
        network: Network,
        node: Node,
        service: str = "rpc",
        dedup_store: Optional[IdempotencyStore] = None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        self.network = network
        self.node = node
        self.service = service
        self.dedup = dedup_store
        self.admission = admission
        self._handlers: dict[str, Callable[[Any], Generator]] = {}
        self.stats = RpcStats()
        self._executed_keys: set[str] = set()
        self._inflight: dict[str, Any] = {}  # idempotency key -> Future
        self.node.on_restart(lambda _node: self._on_restart())
        self._start()

    def _on_restart(self) -> None:
        self._inflight = {}  # in-flight executions died with the node
        self._start()

    def register(self, method: str, handler: Callable[[Any], Generator]) -> None:
        """Expose ``handler`` as ``method`` (a generator function)."""
        self._handlers[method] = handler

    def _start(self) -> None:
        inbox = self.node.bind(self.service)

        def listen(env: Environment) -> Generator:
            while True:
                message = yield inbox.get()
                self.node.spawn(
                    self._handle(message), label=f"{self.service}.handler"
                )

        self.node.spawn(listen(self.network.env), label=f"{self.service}.listener")

    def _handle(self, message: Message):
        # Plain function: untraced requests run the processing generator
        # directly (no span bookkeeping, no delegating frame).
        request: _Request = message.payload
        if self.network.env.tracer.enabled:
            return self._handle_traced(request)
        return self._process(request, NULL_SPAN)

    def _handle_traced(self, request: _Request) -> Generator:
        tracer = self.network.env.tracer
        span = tracer.begin(
            "rpc.handle",
            parent=request.trace_parent,
            method=request.method,
            node=self.node.name,
        )
        try:
            yield from self._process(request, span)
        finally:
            tracer.end(span)

    def _process(self, request: _Request, span: Any) -> Generator:
        handler = self._handlers.get(request.method)
        if handler is None:
            self._reply(request, ok=False, value=f"no such method {request.method!r}")
            return
        if (
            request.deadline is not None
            and self.network.env.now >= request.deadline
        ):
            # Nobody is waiting for this answer any more; executing it would
            # only add load.  Drop it on the floor — the caller's timeout
            # already fired (or will, from its own clock).
            self.stats.expired_dropped += 1
            span.annotate(outcome="expired")
            return
        key = request.idempotency_key
        if key is not None and self.dedup is not None:
            # Dedup *before* admission: serving a recorded response costs
            # O(1), and shedding a retry of work that already executed would
            # tell the caller "definitely not done" about work that is done.
            hit = self.dedup.lookup(key)
            if hit is not None:
                self.stats.deduplicated += 1
                span.annotate(dedup="store")
                self._reply(request, ok=True, value=hit.response)
                return
            inflight = self._inflight.get(key)
            if inflight is not None:
                # A duplicate arrived while the original still executes:
                # piggyback on its outcome instead of re-executing.  No
                # admission slot is held while parked here.
                self.stats.deduplicated += 1
                span.annotate(dedup="inflight")
                outcome = yield inflight
                self._reply(request, ok=outcome[0], value=outcome[1])
                return
        if self.admission is not None and not self.admission.try_admit(
            request.priority
        ):
            self.stats.shed += 1
            span.annotate(outcome="shed")
            self._reply(
                request,
                ok=False,
                value=f"{self.service}@{self.node.name} over admission limit",
                code="rejected",
            )
            return
        # Execution proper (inlined rather than a nested generator: one
        # frame per request at benchmark rates).
        try:
            if key is not None:
                if self.dedup is not None:
                    self._inflight[key] = self.network.env.future(
                        label=f"inflight:{key}"
                    )
                if key in self._executed_keys:
                    self.stats.duplicate_executions += 1
                self._executed_keys.add(key)
            try:
                result = yield from handler(request.payload)
            except Interrupted:
                raise  # node crashed mid-handler; no reply is ever sent
            except Exception as exc:  # noqa: BLE001 - report remote errors to caller
                self._settle_inflight(key, ok=False, value=repr(exc))
                self._reply(request, ok=False, value=repr(exc))
                return
            if key is not None and self.dedup is not None:
                self.dedup.record(key, result)
            self._settle_inflight(key, ok=True, value=result)
            self._reply(request, ok=True, value=result)
        finally:
            if self.admission is not None:
                self.admission.release()

    def _settle_inflight(self, key: Optional[str], ok: bool, value: Any) -> None:
        if key is None or self.dedup is None:
            return
        fut = self._inflight.pop(key, None)
        if fut is not None:
            fut.try_succeed((ok, value))

    def _reply(
        self, request: _Request, ok: bool, value: Any, code: Optional[str] = None
    ) -> None:
        self.network.send(
            self.node.name, request.reply_to, request.reply_port,
            _Reply(request.request_id, ok, value, code),
        )


class RpcClient:
    """Issues calls from a node, with timeout/retry and reply matching."""

    def __init__(self, network: Network, node: Node, service: str = "rpc") -> None:
        self.network = network
        self.node = node
        self.service = service
        self.stats = RpcStats()
        self._pending: dict[int, Any] = {}
        self._reply_port = f"{service}-replies"
        self.node.on_restart(lambda _node: self._on_restart())
        self._start()

    def _on_restart(self) -> None:
        # The crash interrupted every caller and dropped the reply port, so
        # no pending reply can ever be matched again.  Fail the futures and
        # reset the table — leaving them in place leaks an entry per
        # in-flight call on every crash, forever.
        pending, self._pending = self._pending, {}
        for request_id, fut in pending.items():
            fut.try_fail(
                RpcError(f"node {self.node.name} restarted with call #{request_id} pending")
            )
        self._start()

    def _start(self) -> None:
        inbox = self.node.bind(self._reply_port)

        def pump(env: Environment) -> Generator:
            while True:
                message = yield inbox.get()
                reply = message.payload
                fut = self._pending.pop(reply.request_id, None)
                if fut is not None:
                    fut.try_succeed(reply)

        self.node.spawn(pump(self.network.env), label=f"{self._reply_port}.pump")

    def call(
        self,
        dst: str,
        method: str,
        payload: Any = None,
        timeout: float = 20.0,
        retries: int = 3,
        idempotency_key: Optional[str] = None,
        deadline: Optional[float] = None,
        retry_budget: Optional[RetryBudget] = None,
        priority: int = PRIORITY_NORMAL,
    ) -> Generator:
        """Invoke ``method`` on node ``dst``; returns the handler's result.

        Retries up to ``retries`` extra times after each ``timeout``; each
        retry is a *new network message with the same idempotency key* —
        the duplicate-generation mechanism of §3.2.  Raises
        :class:`RpcTimeout` or :class:`RpcRemoteError`.

        Overload defenses (all optional, all off by default):

        - ``deadline`` — absolute virtual-time deadline.  Propagated to the
          server (which drops expired requests unexecuted) and enforced
          locally: attempts never wait past it, and no retry is sent once
          it has passed.
        - ``retry_budget`` — a :class:`repro.flow.RetryBudget`; every retry
          must buy a token, and a success refunds a fraction.  With the
          budget empty, the call fails fast instead of amplifying load.
        - ``priority`` — admission class carried to the server; low
          priority is shed first under overload.  A shed reply raises
          :class:`RpcRejected` and is never retried here — the server
          explicitly refused, so hammering it again is the storm.
        """
        env = self.network.env
        tracer = env.tracer
        call = RpcCall(
            dst, method, payload, timeout, retries, idempotency_key,
            deadline, retry_budget, priority,
        )
        self.stats.calls += 1
        if tracer.enabled:
            call._span = tracer.begin("rpc.call", dst=dst, method=method)
        try:
            while self._send_attempt(call):
                index, value = yield any_of(
                    env, [call._reply, env.timeout(call._wait, "timeout")]
                )
                if index == 0:
                    return self._settle(call, value)
                self._abandon_attempt(call)
            raise self._give_up(call)
        finally:
            tracer.end(call._span)

    def gather(self, calls: Sequence[RpcCall]) -> Generator:
        """Scatter-gather: send every call, then collect the replies.

        All first attempts leave in call order before anything is awaited,
        so N independent calls cost one round trip of virtual time, not N.
        Replies are collected *in call order* by the calling process itself
        — no process, combinator or callback per call: a reply that landed
        while an earlier call was being awaited is picked up without a
        single extra event.  Each call keeps the full :meth:`call`
        discipline on its own clock: its timeout runs from *its* send (a
        retry is issued when the collector reaches a call and finds it
        overdue), retries reuse its idempotency key, and its deadline,
        retry budget and priority apply to it alone.

        Returns one :class:`RpcOutcome` per call, in call order; a failed
        call (:class:`RpcError`) is reported in its outcome and never hides
        or cuts short the others.  When tracing is on every call gets the
        same ``rpc.call``/``rpc.attempt`` spans as :meth:`call`, as
        siblings; a call's span ends when its outcome is collected.
        """
        env = self.network.env
        tracer = env.tracer
        traced = tracer.enabled
        sent = []
        for call in calls:
            if call._attempts:
                raise ValueError(f"{call!r} was already sent: an RpcCall is single-use")
            self.stats.calls += 1
            if traced:
                call._span = tracer.start("rpc.call", dst=call.dst, method=call.method)
            sent.append(self._send_attempt(call))
        outcomes = []
        try:
            for call, live in zip(calls, sent):
                outcome = RpcOutcome()
                try:
                    while live:
                        reply = call._reply
                        if not reply.done:
                            remaining = call._wait - (env.now - call._sent_at)
                            if remaining > 0.0:
                                yield any_of(env, [reply, env.timeout(remaining, "timeout")])
                        if reply.done:
                            outcome.value = self._settle(call, reply.result())
                            break
                        self._abandon_attempt(call)
                        live = self._send_attempt(call)
                    else:
                        raise self._give_up(call)
                except RpcError as exc:
                    outcome.error = exc
                tracer.end(call._span)
                outcomes.append(outcome)
        except BaseException:
            # Interrupted mid-gather (this node crashed): leave no span open.
            for call in calls:
                tracer.end(call._span)
            raise
        return outcomes

    # -- one attempt: shared by call() and gather() ---------------------------

    def _send_attempt(self, call: RpcCall) -> bool:
        """Send ``call``'s next attempt; ``False`` when it has none left
        (retries, deadline or retry budget spent)."""
        env = self.network.env
        tracer = env.tracer
        deadline = call.deadline
        if call._attempts > call.retries:
            return False
        if deadline is not None and env.now >= deadline:
            return False  # out of time
        if call._attempts > 0:
            budget = call.retry_budget
            if budget is not None and not budget.try_spend():
                self.stats.budget_stopped += 1
                call._span.annotate(outcome="budget-exhausted")
                return False
            self.stats.retries += 1
        call._attempts += 1
        traced = tracer.enabled
        dst = call.dst
        request_id = env.next_id("rpc-request")
        request = _Request(
            request_id=request_id,
            method=call.method,
            payload=call.payload,
            reply_to=self.node.name,
            reply_port=self._reply_port,
            idempotency_key=call.idempotency_key,
            trace_parent=call._span.span_id if traced else None,
            deadline=deadline,
            priority=call.priority,
        )
        if traced:
            context = tracer.current
            call._attempt_span = tracer.begin(
                "rpc.attempt", parent=call._span, attempt=call._attempts
            )
        reply = env.future(label=f"rpc:{dst}.{call.method}#{request_id}")
        self._pending[request_id] = reply
        self.network.send(self.node.name, dst, self.service, request)
        if traced:
            # The attempt span stays open until its reply or timeout, but is
            # the context only of its own send: a gather's sibling calls are
            # not its children.
            tracer.current = context
        wait = call.timeout
        if deadline is not None:
            wait = min(wait, deadline - env.now)
        call._request_id = request_id
        call._reply = reply
        call._wait = wait
        call._sent_at = env.now
        return True

    def _settle(self, call: RpcCall, reply: _Reply) -> Any:
        """Turn the reply to ``call``'s live attempt into a value or raise."""
        self.network.env.tracer.end(call._attempt_span, outcome="reply")
        span = call._span
        span.annotate(attempts=call._attempts)
        if reply.ok:
            if call.retry_budget is not None:
                call.retry_budget.on_success()
            return reply.value
        if reply.code == "rejected":
            self.stats.rejected += 1
            span.annotate(outcome="rejected")
            raise RpcRejected(call.dst, call.method, reply.value)
        raise RpcRemoteError(call.dst, call.method, reply.value)

    def _abandon_attempt(self, call: RpcCall) -> None:
        """``call``'s live attempt timed out: stop listening for its reply."""
        self.network.env.tracer.end(call._attempt_span, outcome="timeout")
        self._pending.pop(call._request_id, None)

    def _give_up(self, call: RpcCall) -> RpcTimeout:
        self.stats.timeouts += 1
        call._span.annotate(attempts=call._attempts, outcome="timeout")
        return RpcTimeout(call.dst, call.method, call._attempts)
