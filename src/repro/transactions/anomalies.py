"""Invariant checkers and the effect ledger: correctness as a metric.

The paper's benchmark critique (§5.3) is that throughput and latency alone
cannot evaluate transactional cloud runtimes — "the presence of data
invariants, transactional guarantees ... are examples of missing
requirements".  Every benchmark in this repository therefore reports an
:class:`AnomalyReport` next to its performance numbers:

- :class:`Invariant` subclasses check application-level data invariants
  (conservation of money, non-negative stock) against final state;
- :class:`EffectLedger` tracks intended vs applied effects, counting
  **lost** effects (acknowledged but absent) and **duplicate** effects
  (applied more than once) — the fingerprints of broken message-delivery
  guarantees.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Optional


@dataclass(frozen=True)
class Violation:
    """One detected violation of an invariant."""

    invariant: str
    detail: str


class Invariant:
    """Base class: subclasses implement :meth:`check` over a state snapshot.

    ``state`` is whatever the harness passes — usually a list of rows or a
    dict — keeping invariants decoupled from the runtime under test.
    """

    name = "invariant"

    def check(self, state: Any) -> list[Violation]:
        raise NotImplementedError


class ConservationInvariant(Invariant):
    """A numeric field's total over all entities must equal a constant.

    The classic transfer-workload invariant: money is neither created nor
    destroyed.  Lost updates, partial transfers, and duplicated effects all
    break it.
    """

    def __init__(self, field_name: str, expected_total: float, name: str = "") -> None:
        self.field_name = field_name
        self.expected_total = expected_total
        self.name = name or f"conservation({field_name})"

    def check(self, state: Iterable[dict]) -> list[Violation]:
        total = sum(row[self.field_name] for row in state)
        if total != self.expected_total:
            return [
                Violation(
                    self.name,
                    f"sum({self.field_name}) = {total}, expected {self.expected_total} "
                    f"(drift {total - self.expected_total:+})",
                )
            ]
        return []


class PredicateInvariant(Invariant):
    """An arbitrary predicate over the whole state snapshot."""

    def __init__(self, name: str, predicate: Callable[[Any], bool], detail: str = "") -> None:
        self.name = name
        self.predicate = predicate
        self.detail = detail or "predicate failed"

    def check(self, state: Any) -> list[Violation]:
        if not self.predicate(state):
            return [Violation(self.name, self.detail)]
        return []


@dataclass
class AnomalyReport:
    """The correctness half of a benchmark result."""

    violations: list[Violation] = field(default_factory=list)
    lost_effects: int = 0
    duplicate_effects: int = 0
    unacknowledged_applied: int = 0

    @property
    def clean(self) -> bool:
        return (
            not self.violations
            and self.lost_effects == 0
            and self.duplicate_effects == 0
        )

    def summary(self) -> str:
        if self.clean:
            return "clean"
        parts = []
        if self.violations:
            parts.append(f"{len(self.violations)} invariant violation(s)")
        if self.lost_effects:
            parts.append(f"{self.lost_effects} lost effect(s)")
        if self.duplicate_effects:
            parts.append(f"{self.duplicate_effects} duplicate effect(s)")
        return ", ".join(parts)


class EffectLedger:
    """Reconciles what clients were told happened with what actually did.

    Usage protocol:

    - the *client* calls :meth:`acknowledge` when an operation was reported
      successful to it;
    - the *state owner* calls :meth:`apply` every time the operation's
      effect is (re)applied to state.

    After the run, :meth:`reconcile`:

    - **lost**: acknowledged but never applied (at-most-once losses);
    - **duplicate**: applied more than once (at-least-once without dedup);
    - **unacknowledged applied**: applied but the client saw a failure —
      not an anomaly per se (the client may retry), but worth surfacing.
    """

    def __init__(self) -> None:
        self._acknowledged: set[Hashable] = set()
        self._applied: Counter = Counter()

    def acknowledge(self, op_id: Hashable) -> None:
        self._acknowledged.add(op_id)

    def apply(self, op_id: Hashable) -> None:
        self._applied[op_id] += 1

    @property
    def acknowledged_count(self) -> int:
        return len(self._acknowledged)

    @property
    def applied_count(self) -> int:
        return sum(self._applied.values())

    def lost(self) -> list[Hashable]:
        return sorted(
            (op for op in self._acknowledged if self._applied[op] == 0), key=repr
        )

    def duplicates(self) -> list[Hashable]:
        return sorted(
            (op for op, count in self._applied.items() if count > 1), key=repr
        )

    def unacknowledged(self) -> list[Hashable]:
        return sorted(
            (op for op in self._applied if op not in self._acknowledged), key=repr
        )

    def reconcile(
        self,
        invariants: Iterable[Invariant] = (),
        state: Any = None,
    ) -> AnomalyReport:
        """Build the final report, optionally checking invariants too."""
        report = AnomalyReport(
            lost_effects=len(self.lost()),
            duplicate_effects=len(self.duplicates()),
            unacknowledged_applied=len(self.unacknowledged()),
        )
        for invariant in invariants:
            report.violations.extend(invariant.check(state))
        return report
