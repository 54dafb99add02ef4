"""Application assembly: deploy services onto nodes, wire RPC and state.

The deployment decisions of §3.3 are constructor flags:

- ``shared_database=True`` deploys one :class:`DatabaseServer` (one
  connection pool, one lock table) for every service — logically separated
  data, physically shared resources;
- ``shared_database=False`` (default) gives each service its own server —
  "database per service", physical isolation at higher infrastructure cost.

Service nodes are stateless: :meth:`MicroserviceApp.crash_service` +
``restart_service`` model the §4.1 recovery story (kill the pod, the
replacement reconnects to the same database).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

from repro.db.server import DatabaseServer
from repro.flow import AdmissionController, PRIORITY_NORMAL, RetryBudget
from repro.messaging.broker import Broker
from repro.messaging.idempotency import IdempotencyStore
from repro.messaging.rpc import RpcCall, RpcClient, RpcServer
from repro.microservices.service import Microservice, ServiceContext
from repro.net.latency import Latency, Sampler
from repro.net.network import Network
from repro.sim import Environment


class MicroserviceApp:
    """A deployed set of microservices plus a client edge.

    ``admission_limit`` (per-service max in-flight requests) turns on
    load-shedding admission control at every service's RPC server; the
    controllers are exposed in :attr:`admission` for stats inspection.
    Off by default — the unprotected configuration is the §3 status quo
    the overload benchmark measures against.
    """

    def __init__(
        self,
        env: Environment,
        shared_database: bool = False,
        db_connections: int = 32,
        with_broker: bool = True,
        network_latency: Optional[Sampler] = None,
        dedup_requests: bool = False,
        admission_limit: Optional[int] = None,
    ) -> None:
        self.env = env
        self.net = Network(env, default_latency=network_latency or Latency.intra_zone())
        self.shared_database = shared_database
        self.dedup_requests = dedup_requests
        self.admission_limit = admission_limit
        self._db_connections = db_connections
        self._shared_db: Optional[DatabaseServer] = None
        if shared_database:
            self._shared_db = DatabaseServer(
                env, name="shared-db", connections=db_connections
            )
        self.broker = Broker(env) if with_broker else None
        self.services: dict[str, Microservice] = {}
        self.databases: dict[str, DatabaseServer] = {}
        self.dedup_stores: dict[str, IdempotencyStore] = {}
        self.admission: dict[str, AdmissionController] = {}
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
        if self.shared_database:
            db = self._shared_db
        else:
            db = DatabaseServer(
                self.env,
                name=f"{service.name}-db",
                connections=self._db_connections,
            )
        if service.init_db is not None:
            service.init_db(db)
        dedup = IdempotencyStore(clock=lambda: self.env.now) if self.dedup_requests else None
        if dedup is not None:
            self.dedup_stores[service.name] = dedup
        admission = None
        if self.admission_limit is not None:
            admission = AdmissionController(
                self.admission_limit, name=f"{service.name}.admission"
            )
            self.admission[service.name] = admission
        rpc_server = RpcServer(self.net, node, dedup_store=dedup, admission=admission)
        self.rpc_servers[service.name] = rpc_server
        rpc_client = RpcClient(self.net, node)
        context = ServiceContext(
            env=self.env,
            service_name=service.name,
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
        deadline: Optional[float] = None,
        retry_budget: Optional[RetryBudget] = None,
        priority: int = PRIORITY_NORMAL,
    ) -> Generator:
        """Several client requests in one round trip (scatter-gather).

        ``requests`` are ``(service, method, payload, idempotency_key)``
        tuples; the remaining arguments apply to each request as in
        :meth:`request`.  All are sent before any reply is awaited; returns
        one :class:`~repro.messaging.rpc.RpcOutcome` per request, in
        request order, so one failed request never hides the others (see
        :meth:`RpcClient.gather <repro.messaging.rpc.RpcClient.gather>`).
        """
        outcomes = yield from self._client_rpc.gather([
            RpcCall(
                self._service_nodes[service], method, payload, timeout, retries,
                key, deadline, retry_budget, priority,
            )
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
