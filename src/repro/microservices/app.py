"""Application assembly: deploy services onto nodes, wire RPC and state.

Each service gets its own :class:`DatabaseServer` — §3.3's "database per
service", physical isolation at higher infrastructure cost (benchmark C6
measures it against one shared server).

Service nodes are stateless: :meth:`MicroserviceApp.crash_service` +
``restart_service`` model the §4.1 recovery story (kill the pod, the
replacement reconnects to the same database).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

from repro.db.server import DatabaseServer
from repro.flow import PRIORITY_NORMAL, RetryBudget
from repro.messaging.broker import Broker
from repro.messaging.idempotency import IdempotencyStore
from repro.messaging.rpc import RpcCall, RpcClient, RpcServer
from repro.microservices.service import Microservice, ServiceContext
from repro.net.latency import Latency
from repro.net.network import Network
from repro.sim import Environment

#: one network hop between the edge and a service, or between services
NETWORK_LATENCY = Latency.intra_zone()
#: the connection pool of each service's database server
DB_CONNECTIONS = 32


class MicroserviceApp:
    """A deployed set of microservices plus a client edge.

    Every service gets its own node, database server and RPC server; the
    services share one :class:`Broker` for events.  ``dedup_requests``
    gives each RPC server an idempotency store, so a retried request with
    the same key is answered from its recorded response.  No service sheds
    load: the overload defenses are the chaos ``overload`` scenario's.
    """

    def __init__(self, env: Environment, dedup_requests: bool = False) -> None:
        self.env = env
        self.net = Network(env, default_latency=NETWORK_LATENCY)
        self.dedup_requests = dedup_requests
        self.broker = Broker(env)
        self.services: dict[str, Microservice] = {}
        self.databases: dict[str, DatabaseServer] = {}
        self.dedup_stores: dict[str, IdempotencyStore] = {}
        self.rpc_servers: dict[str, RpcServer] = {}
        self._service_nodes: dict[str, str] = {}
        self._contexts: dict[str, ServiceContext] = {}
        client_node = self.net.add_node("edge-client")
        self._client_rpc = RpcClient(self.net, client_node)

    # -- deployment -------------------------------------------------------------

    def add_service(self, service: Microservice) -> None:
        """Deploy a service on its own node with its configured database."""
        if service.name in self.services:
            raise ValueError(f"service {service.name!r} already deployed")
        node = self.net.add_node(service.name)
        db = DatabaseServer(self.env, name=f"{service.name}-db", connections=DB_CONNECTIONS)
        if service.init_db is not None:
            service.init_db(db)
        dedup = IdempotencyStore() if self.dedup_requests else None
        if dedup is not None:
            self.dedup_stores[service.name] = dedup
        rpc_server = RpcServer(self.net, node, dedup_store=dedup)
        self.rpc_servers[service.name] = rpc_server
        rpc_client = RpcClient(self.net, node)
        context = ServiceContext(
            env=self.env,
            db=db,
            rpc_client=rpc_client,
            broker=self.broker,
            service_nodes=self._service_nodes,
        )
        for method, handler in service.handlers.items():
            rpc_server.register(method, self._bind(handler, context))
        self.services[service.name] = service
        self.databases[service.name] = db
        self._service_nodes[service.name] = node.name
        self._contexts[service.name] = context

    @staticmethod
    def _bind(handler: Callable, context: ServiceContext) -> Callable[[Any], Generator]:
        def bound(payload: Any) -> Generator:
            result = yield from handler(context, payload)
            return result

        return bound

    def context(self, service: str) -> ServiceContext:
        """The deployed context of a service (for tests and sagas)."""
        return self._contexts[service]

    # -- client edge ---------------------------------------------------------------

    def request(
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
        """An external client request entering the application.

        ``deadline`` (absolute virtual time), ``retry_budget`` and
        ``priority`` opt this request into the repro.flow overload
        defenses; all default off so existing callers are untouched.
        """
        node = self._service_nodes[service]
        result = yield from self._client_rpc.call(
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

    def gather(
        self,
        requests: Iterable[tuple[str, str, Any, Optional[str]]],
        timeout: float = 50.0,
        retries: int = 2,
    ) -> Generator:
        """Several client requests in one round trip (scatter-gather).

        ``requests`` are ``(service, method, payload, idempotency_key)``
        tuples; ``timeout`` and ``retries`` apply to each request as in
        :meth:`request`.  All are sent before any reply is awaited; returns
        one :class:`~repro.messaging.rpc.RpcOutcome` per request, in
        request order, so one failed request never hides the others (see
        :meth:`RpcClient.gather <repro.messaging.rpc.RpcClient.gather>`).
        """
        outcomes = yield from self._client_rpc.gather([
            RpcCall(self._service_nodes[service], method, payload, timeout, retries, key)
            for service, method, payload, key in requests
        ])
        return outcomes

    # -- operations ------------------------------------------------------------------

    def crash_service(self, service: str) -> None:
        """Kill the (stateless) service node; its database is unaffected."""
        self.net.node(self._service_nodes[service]).crash()

    def restart_service(self, service: str) -> None:
        """Bring the node back; RPC listeners re-register via restart hooks."""
        self.net.node(self._service_nodes[service]).restart()

    def database_of(self, service: str) -> DatabaseServer:
        return self.databases[service]
