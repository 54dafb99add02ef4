"""Reference applications implemented on every runtime.

The tutorial's comparison only makes sense like-for-like: the *same*
application built on each programming model.  This package provides those
builds, shared by the examples and the benchmark suite:

- :mod:`repro.apps.banking` — money transfers on the database, actors
  (plain and transactional), FaaS (shared-KV, entities, Beldi workflows),
  and dataflow (exactly-once and Styx-transactional);
- :mod:`repro.apps.shop` — the marketplace checkout as microservices,
  with no coordination, saga coordination, or 2PC;
- :mod:`repro.apps.tpcc_impls` — TPC-C-lite on a monolithic database, on
  Beldi-style transactional FaaS, and on the Styx-like dataflow.

The kernel apps — :mod:`repro.apps.ledger`, :mod:`repro.apps.invoicing`
and :mod:`repro.apps.hotel` — are each one
:class:`~repro.apps.core.AppSpec` that :func:`repro.apps.core.bind`
deploys onto every runtime.
"""

from repro.apps.banking import (
    ActorBank,
    DataflowBank,
    DbBank,
    FaasBank,
    StatefunBank,
    TxnDataflowBank,
)
from repro.apps.shop import MicroserviceShop
from repro.apps.tpcc_impls import DbTpcc, StyxTpcc, WorkflowTpcc

__all__ = [
    "ActorBank",
    "DataflowBank",
    "DbBank",
    "DbTpcc",
    "FaasBank",
    "MicroserviceShop",
    "StatefunBank",
    "StyxTpcc",
    "TxnDataflowBank",
    "WorkflowTpcc",
]
