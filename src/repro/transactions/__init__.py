"""Cross-component consistency protocols and correctness metrology.

The coordination mechanisms the paper surveys for multi-service consistency
(§4.2, §5.2), plus the measurement machinery its benchmark critique calls
for (§5.3: "most benchmarks are oblivious to key aspects of data
management"):

- :mod:`repro.transactions.sagas` — orchestrated sagas with compensations
  (the BASE/eventual-consistency status quo of microservices);
- :mod:`repro.transactions.choreography` — event-driven choreographies and
  their monitor (the saga variant without an orchestrator);
- :mod:`repro.transactions.causal` — vector clocks and a causally
  consistent replicated store (the Antipode direction);
- :mod:`repro.transactions.anomalies` — invariant checkers and the effect
  ledger that counts lost/duplicated/phantom effects after every run.

Two-phase commit, the blocking alternative microservices avoid, is one
coordinator, :mod:`repro.transactions.commit`, run by the runtimes that
measure it: ``ShardedDatabase.commit`` (:mod:`repro.db.sharding`), the
microservice binder's ``2pc`` mode (:mod:`repro.apps.core.binders.micro`)
and the actor transaction coordinator (:mod:`repro.actors.transactions`).
"""

from repro.transactions.anomalies import (
    AnomalyReport,
    ConservationInvariant,
    EffectLedger,
    Invariant,
    PredicateInvariant,
    Violation,
)
from repro.transactions.causal import CausalStore, VectorClock
from repro.transactions.choreography import ChoreographyMonitor, Reactor
from repro.transactions.sagas import (
    Saga,
    SagaOrchestrator,
    SagaOutcome,
    SagaStep,
    SagaStuck,
)

__all__ = [
    "AnomalyReport",
    "CausalStore",
    "ChoreographyMonitor",
    "ConservationInvariant",
    "Reactor",
    "EffectLedger",
    "Invariant",
    "PredicateInvariant",
    "Saga",
    "SagaOrchestrator",
    "SagaOutcome",
    "SagaStep",
    "SagaStuck",
    "VectorClock",
    "Violation",
]
