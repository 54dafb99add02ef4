"""The FaaS platform: triggers, containers, cold starts, composition.

Lifecycle management is the platform's job (§4.3): it provisions a
container per concurrent invocation, reuses warm containers within their
keep-alive window, and pays a cold start otherwise — "challenges associated
with cold starts, execution performance, and costs undermine a wider
adoption of the FaaS paradigm".  Benchmark C7 sweeps exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from repro.faas.state import SharedKv
from repro.net.latency import Latency, Sampler
from repro.sim import Environment

FunctionBody = Callable[["FaasContext", Any], Generator]


class FunctionError(Exception):
    """A function invocation failed."""


class Throttled(FunctionError):
    """The function's concurrency limit was exceeded (an HTTP 429).

    Platforms cap concurrent executions per function (§4.3 resource
    management); excess triggers are rejected and clients must back off.
    """


@dataclass
class _Container:
    """One warm execution slot for one function."""

    function: str
    worker: str
    expires_at: float
    busy: bool = False


@dataclass
class FaasStats:
    cold_starts: int = 0
    warm_starts: int = 0

    @property
    def cold_fraction(self) -> float:
        total = self.cold_starts + self.warm_starts
        return self.cold_starts / total if total else 0.0


class FaasContext:
    """What a running function can touch."""

    def __init__(self, platform: "FaasPlatform", worker: str) -> None:
        self.platform = platform
        self.worker = worker
        self.env: Environment = platform.env

    @property
    def kv(self) -> SharedKv:
        """The platform's shared state service (remote access)."""
        return self.platform.kv

    def kv_get(self, key: Any, default: Any = None) -> Generator:
        """State read honouring the platform's state mode."""
        if self.platform.cached_state:
            value = yield from self.platform.kv.cached_get(self.worker, key, default)
        else:
            value = yield from self.platform.kv.get(key, default)
        return value

    def call(self, function: str, payload: Any = None) -> Generator:
        """Synchronous function composition (function-to-function trigger)."""
        result = yield from self.platform.invoke(function, payload)
        return result


#: the workers containers are placed on
NUM_WORKERS = 4


class FaasPlatform:
    """Registry + scheduler + container pool."""

    def __init__(
        self,
        env: Environment,
        keep_alive: float = 300.0,
        cold_start: Optional[Sampler] = None,
        warm_dispatch: Optional[Sampler] = None,
        cached_state: bool = False,
        kv: Optional[SharedKv] = None,
    ) -> None:
        self.env = env
        self.keep_alive = keep_alive
        self.cached_state = cached_state
        self.kv = kv or SharedKv(env)
        self._cold_start = cold_start or Latency.shifted_exponential(100.0, 50.0)
        self._warm_dispatch = warm_dispatch or Latency.constant(0.5)
        self._rng = env.stream("faas-platform")
        self._workers = [f"faas-worker-{i}" for i in range(NUM_WORKERS)]
        self._functions: dict[str, FunctionBody] = {}
        self._pool: dict[str, list[_Container]] = {}
        self._limits: dict[str, int] = {}
        self._running: dict[str, int] = {}
        self.stats = FaasStats()

    def register(
        self,
        name: str,
        body: FunctionBody,
        concurrency_limit: Optional[int] = None,
    ) -> None:
        """Register a function (a generator taking ``(ctx, payload)``).

        ``concurrency_limit`` caps simultaneous executions; excess
        invocations raise :class:`Throttled` immediately.
        """
        if name in self._functions:
            raise ValueError(f"function {name!r} already registered")
        if concurrency_limit is not None and concurrency_limit <= 0:
            raise ValueError("concurrency_limit must be positive")
        self._functions[name] = body
        if concurrency_limit is not None:
            self._limits[name] = concurrency_limit

    def function(
        self, name: str, concurrency_limit: Optional[int] = None
    ) -> Callable[[FunctionBody], FunctionBody]:
        """Decorator form of :meth:`register`."""

        def wrap(body: FunctionBody) -> FunctionBody:
            self.register(name, body, concurrency_limit=concurrency_limit)
            return body

        return wrap

    # -- invocation ---------------------------------------------------------------

    def invoke(self, name: str, payload: Any = None) -> Generator:
        """Trigger a function; returns its result (or raises its error)."""
        body = self._functions.get(name)
        if body is None:
            raise FunctionError(f"no function named {name!r}")
        limit = self._limits.get(name)
        if limit is not None and self._running.get(name, 0) >= limit:
            raise Throttled(f"{name!r} at its concurrency limit ({limit})")
        self._running[name] = self._running.get(name, 0) + 1
        container = None
        try:
            container = yield from self._acquire(name)
            ctx = FaasContext(self, container.worker)
            result = yield from body(ctx, payload)
            return result
        finally:
            self._running[name] -= 1
            if container is not None:
                container.busy = False
                container.expires_at = self.env.now + self.keep_alive

    def _acquire(self, name: str) -> Generator:
        pool = self._pool.setdefault(name, [])
        pool[:] = [c for c in pool if c.busy or c.expires_at > self.env.now]
        for container in pool:
            if not container.busy:
                container.busy = True
                self.stats.warm_starts += 1
                yield self.env.timeout(self._warm_dispatch(self._rng))
                return container
        # Cold start: provision a new container on the least-loaded worker.
        self.stats.cold_starts += 1
        load = {worker: 0 for worker in self._workers}
        for containers in self._pool.values():
            for container in containers:
                load[container.worker] += 1
        worker = min(self._workers, key=lambda w: (load[w], w))
        container = _Container(
            function=name,
            worker=worker,
            expires_at=self.env.now + self.keep_alive,
            busy=True,
        )
        pool.append(container)
        yield self.env.timeout(self._cold_start(self._rng))
        return container
