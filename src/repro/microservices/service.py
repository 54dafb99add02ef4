"""Service definition: handlers, context, and data access.

A :class:`Microservice` is a named bundle of request handlers (generator
functions) plus a database schema initializer.  Handlers receive a
:class:`ServiceContext` giving them their own database, RPC to sibling
services, and broker publishing — the three capabilities of §3's building
blocks, scoped the way a framework like Spring would scope them.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.db.server import DatabaseServer
from repro.flow import PRIORITY_NORMAL, RetryBudget
from repro.messaging.broker import Broker
from repro.messaging.rpc import RpcClient
from repro.sim import Environment

Handler = Callable[["ServiceContext", Any], Generator]


class Microservice:
    """Declarative service: register handlers with :meth:`handler`.

    ``init_db`` (if given) is called once at deployment with the service's
    :class:`~repro.db.server.DatabaseServer` to create tables and load
    seed data — the service's private schema ("data encapsulation", §1).
    """

    def __init__(
        self,
        name: str,
        init_db: Optional[Callable[[DatabaseServer], None]] = None,
    ) -> None:
        self.name = name
        self.init_db = init_db
        self.handlers: dict[str, Handler] = {}

    def handler(self, method: str) -> Callable[[Handler], Handler]:
        """Decorator: expose a generator function as an RPC method."""

        def register(fn: Handler) -> Handler:
            if method in self.handlers:
                raise ValueError(f"handler {method!r} already registered on {self.name}")
            self.handlers[method] = fn
            return fn

        return register


class ServiceContext:
    """What a handler can touch: its DB, sibling services, the broker."""

    def __init__(
        self,
        env: Environment,
        db: DatabaseServer,
        rpc_client: RpcClient,
        broker: Broker,
        service_nodes: dict[str, str],
    ) -> None:
        self.env = env
        self.db = db
        self._rpc = rpc_client
        self.broker = broker
        self._service_nodes = service_nodes

    def call(
        self,
        service: str,
        method: str,
        payload: Any = None,
        timeout: float = 50.0,
        retries: int = 2,
        idempotency_key: Optional[str] = None,
        deadline: Optional[float] = None,
        retry_budget: Optional[RetryBudget] = None,
        priority: int = PRIORITY_NORMAL,
    ) -> Generator:
        """Synchronous RPC to a sibling service (§3.2 REST-style).

        ``deadline``/``retry_budget``/``priority`` thread the repro.flow
        overload defenses through the call chain — pass the incoming
        request's own deadline so downstream work inherits it.
        """
        node = self._service_nodes[service]
        result = yield from self._rpc.call(
            node,
            method,
            payload,
            timeout=timeout,
            retries=retries,
            idempotency_key=idempotency_key,
            deadline=deadline,
            retry_budget=retry_budget,
            priority=priority,
        )
        return result

    def publish(self, topic: str, key: Any, value: Any) -> Generator:
        """Asynchronous event to the broker (§3.2 message-queue style)."""
        record = yield from self.broker.publish(topic, key, value)
        return record
