"""The oracle layer: every app invariant becomes a chaos oracle.

Declaring an app once makes it chaos-fuzzable on every runtime: each
:class:`~repro.apps.core.spec.InvariantSpec` compiles to a
:class:`repro.chaos.oracles.Oracle` over the kernel snapshot, and apps
with an op-keyed effect entity additionally get the history-aware
applied-exactly-once oracle (``ok`` ⇒ the effect row exists, ``fail`` ⇒
it does not, ``info`` ⇒ either — the Jepsen outcome discipline).

The state invariants shipped by the kernel (conservation, double-entry,
gap-free sequence, capacity, causal audit) are all *info-robust* by
construction: an unknown-outcome operation either applied atomically or
not at all, and the invariant holds in both worlds — so no search over
subsets of unknown-outcome operations is needed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.apps.core.spec import AppSpec, InvariantSpec
from repro.transactions.anomalies import Violation

if TYPE_CHECKING:  # chaos imports back into repro.apps; keep this edge lazy
    from repro.chaos.history import History
    from repro.chaos.oracles import Oracle

__all__ = ["AppliedExactlyOracle", "SpecOracle", "compile_oracles"]


class SpecOracle:
    """A state invariant, judged against the final kernel snapshot.

    Structurally a :class:`repro.chaos.oracles.Oracle` (the runner only
    ever calls ``check(history, final_state)``); not a subclass, so the
    kernel never imports the chaos package at runtime.
    """

    def __init__(self, invariant: InvariantSpec) -> None:
        self.invariant = invariant
        self.name = invariant.name

    def check(self, history: "History", final_state: Any) -> list[Violation]:
        return self.invariant.check(final_state)


class AppliedExactlyOracle:
    """Effect rows (keyed by op id) agree with what clients were told.

    Every acknowledged operation must have left exactly its effect row
    (rows are unique by primary key, so presence *is* exactly-once at the
    state level); every failed operation must have left none; an
    unknown-outcome operation may have done either.
    """

    def __init__(self, entity: str, kind: str) -> None:
        self.entity = entity
        self.kind = kind
        self.name = f"applied_exactly({entity})"

    def check(self, history: "History", final_state: Any) -> list[Violation]:
        present = {row["id"] for row in final_state.get(self.entity, [])}
        violations = []
        for op_id in history.ok_ops(self.kind):
            if op_id not in present:
                violations.append(Violation(
                    self.name,
                    f"{op_id}: acknowledged but no {self.entity} row committed",
                ))
        for op_id in history.fail_ops(self.kind):
            if op_id in present:
                violations.append(Violation(
                    self.name,
                    f"{op_id}: reported failed but a {self.entity} row committed",
                ))
        return violations


def compile_oracles(spec: AppSpec) -> list["Oracle"]:
    """One oracle per invariant, plus applied-exactly when declarable."""
    oracles: list["Oracle"] = [SpecOracle(inv) for inv in spec.invariants]
    if spec.effect_entity is not None:
        oracles.append(AppliedExactlyOracle(spec.effect_entity, spec.kind))
    return oracles
