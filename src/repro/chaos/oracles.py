"""Invariant oracles: did the history + final state stay explainable?

Oracles extend the repository's invariant vocabulary
(:mod:`repro.transactions.anomalies`) from "check a state snapshot" to
"check a state snapshot *given what clients were told*".  The key
subtlety is the Jepsen ``info`` category: an operation whose outcome is
unknown (timeout, 2PC uncertainty window, in flight at trial end) may or
may not have applied, and a correct system is allowed either.

Kernel apps compile their oracles from their spec
(:func:`repro.apps.core.compile_oracles`); this module holds the base
class and the two oracles no spec states: the saga shop's atomicity
cross-check and the mid-run snapshot audit.
"""

from __future__ import annotations

from typing import Any

from repro.chaos.history import History
from repro.transactions.anomalies import Violation


class Oracle:
    """Base oracle: judge a completed trial."""

    name = "oracle"

    def check(self, history: History, final_state: Any) -> list[Violation]:
        raise NotImplementedError


class SagaAtomicityOracle(Oracle):
    """Marketplace sagas: all-or-nothing effects, per-workload invariants.

    Delegates state checks (no oversell, charge-exactly-once) to the
    workload's own invariants, then cross-checks the history: every ``ok``
    checkout must have produced its order row, and no ``fail`` checkout
    may have one.
    """

    def __init__(self, workload: Any, kind: str = "checkout") -> None:
        self.name = "saga_atomicity"
        self.workload = workload
        self.kind = kind

    def check(self, history: History, final_state: Any) -> list[Violation]:
        violations: list[Violation] = []
        for invariant in self.workload.invariants():
            violations.extend(invariant.check(final_state))
        order_ids = {row["id"] for row in final_state.get("orders", [])}
        for op_id in history.ok_ops(self.kind):
            if op_id not in order_ids:
                violations.append(Violation(
                    self.name, f"{op_id}: acknowledged checkout has no order row",
                ))
        for op_id in history.fail_ops(self.kind):
            if op_id in order_ids:
                violations.append(Violation(
                    self.name, f"{op_id}: failed checkout left an order row",
                ))
        return violations


class SnapshotAuditOracle(Oracle):
    """Every successful mid-run audit saw the invariant total.

    Only valid for runtimes whose audit is an isolated (serializable)
    read — a transactional-dataflow audit transaction or an OCC audit
    workflow.  Non-isolated audits legitimately observe in-flight
    transfers and must not install this oracle.
    """

    def __init__(self, expected_total: int, kind: str = "audit") -> None:
        self.name = "snapshot_audit"
        self.expected_total = expected_total
        self.kind = kind

    def check(self, history: History, final_state: Any) -> list[Violation]:
        violations = []
        for event in history.completions("ok", self.kind):
            if event.value != self.expected_total:
                violations.append(Violation(
                    self.name,
                    f"{event.op_id} at t={event.ts}: observed total "
                    f"{event.value}, expected {self.expected_total}",
                ))
        return violations
