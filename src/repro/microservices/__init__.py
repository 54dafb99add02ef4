"""A microservice framework (Spring Boot / Flask stand-in).

The status-quo architecture of §3.1: stateless service instances behind
RPC, each owning an *external* database (§3.3 "database per service") or
sharing one (§3.3 "shared database"), composing multi-service workflows
with retries and sagas rather than distributed transactions (§4.2).
Retries, retry budgets and deadlines are :class:`repro.messaging.RpcClient`'s;
schema evolution and autoscaling (§4.3) are described in DESIGN.md, not
modelled.

Fault tolerance follows §4.1: the service tier is stateless, so crashing a
service node loses only in-flight requests; restarting reconnects to the
same database.
"""

from repro.microservices.app import MicroserviceApp
from repro.microservices.service import Microservice, ServiceContext

__all__ = [
    "Microservice",
    "MicroserviceApp",
    "ServiceContext",
]
