"""The model layer: one declarative application definition.

An :class:`AppSpec` is everything a transactional cloud application *is*,
stated once and independent of any runtime:

- **entities** — named collections of keyed rows (the unit of state a
  runtime may partition, replicate, or turn into an actor/service);
- **handlers** — the stored procedures, written as generators against a
  :class:`~repro.apps.core.base.KernelContext` with *declared* read/write
  key sets (an access the planner cannot see is an access it cannot
  make safe);
- **invariants** — first-class correctness statements (conservation,
  gap-free sequences, capacity bounds, causal audit consistency) attached
  to the application, not to any runtime or benchmark.

Binders (:mod:`repro.apps.core.binders`) deploy one spec onto the
monolith database, microservices, actors, transactional dataflow, and
FaaS workflows; the oracle layer (:mod:`repro.apps.core.oracles`)
compiles each invariant into a :mod:`repro.chaos` oracle, so declaring an
app once makes it chaos-fuzzable on every runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, NamedTuple, Optional

from repro.transactions.anomalies import Invariant, Violation

#: ``(entity, key)`` — the unit of declared access.
KeyRef = tuple[str, Hashable]


class OpAccess(NamedTuple):
    """One operation's declared key sets.

    Computed once per execution (:meth:`HandlerSpec.access`) and shared by
    the binder — which routes, locks or declares by it — and by every
    :class:`~repro.apps.core.base.KernelContext` the operation creates,
    retries included, which enforce it.
    """

    #: reads before writes, de-duplicated
    declared: tuple[KeyRef, ...]
    #: the declared read set alone, de-duplicated, in declaration order —
    #: what a binder may fetch before the body runs
    reads: tuple[KeyRef, ...]
    readable: frozenset
    writable: frozenset


@dataclass(frozen=True)
class EntitySpec:
    """One named collection of keyed rows."""

    name: str
    key: str = "id"


@dataclass(frozen=True)
class HandlerSpec:
    """One stored procedure with its declared access sets.

    ``body(ctx, op)`` is a generator stored procedure.  ``reads`` and
    ``writes`` map an operation to the exact ``(entity, key)`` sets the
    body may touch — binders use them to route, lock, partition, and (for
    queue-oriented runtimes) declare the transaction's key set up front.

    ``steps`` (optional) splits the body into a sequence of bodies that
    the mutant ``invoicing.split_allocator`` (:mod:`repro.chaos.mutants`)
    runs as *separate* transactions sharing a ``scratch`` dict — the
    intentionally unsound variant ("allocate the invoice number in one
    transaction, insert the invoice in another") whose anomalies the
    oracles must catch.  Every binder runs ``body`` and ignores step
    boundaries.

    ``compensate`` (optional) is a generator body undoing a completed
    execution — the application-level inverse a saga binder needs.
    """

    name: str
    body: Callable
    reads: Callable[[Any], Iterable[KeyRef]]
    writes: Callable[[Any], Iterable[KeyRef]]
    steps: Optional[tuple[Callable, ...]] = None
    compensate: Optional[Callable] = None

    def access(self, op: Any) -> OpAccess:
        """Evaluate ``reads`` and ``writes`` for ``op``, once."""
        writes = tuple(self.writes(op))
        reads = tuple(dict.fromkeys(self.reads(op)))
        declared = tuple(dict.fromkeys((*reads, *writes)))
        return OpAccess(declared, reads, frozenset(declared), frozenset(writes))


class AppSpec:
    """One application: entities + handlers + invariants + initial data."""

    def __init__(
        self,
        name: str,
        entities: Iterable[EntitySpec],
        handlers: Iterable[HandlerSpec],
        invariants: Iterable["InvariantSpec"] = (),
        initial_rows: Optional[dict[str, list[dict]]] = None,
        route: Optional[Callable[[Any], str]] = None,
        kind: str = "op",
        effect_entity: Optional[str] = None,
    ) -> None:
        self.name = name
        self.entities: dict[str, EntitySpec] = {e.name: e for e in entities}
        self.handlers: dict[str, HandlerSpec] = {h.name: h for h in handlers}
        self.invariants: list[InvariantSpec] = list(invariants)
        self.initial_rows: dict[str, list[dict]] = dict(initial_rows or {})
        for entity in self.initial_rows:
            if entity not in self.entities:
                raise ValueError(f"initial rows for unknown entity {entity!r}")
        self._route = route
        #: operation kind label for histories/metrics (e.g. "posting")
        self.kind = kind
        #: entity whose rows are keyed by op id (one row per applied op);
        #: enables the applied-exactly-once history oracle.
        self.effect_entity = effect_entity
        if effect_entity is not None and effect_entity not in self.entities:
            raise ValueError(f"effect_entity {effect_entity!r} is not an entity")

    def entity(self, name: str) -> EntitySpec:
        return self.entities[name]

    def handler_for(self, op: Any) -> HandlerSpec:
        """Route an operation to its handler.

        Uses the explicit ``route`` function when given, else the
        operation's ``kind`` attribute, else the spec's single handler.
        """
        if self._route is not None:
            return self.handlers[self._route(op)]
        kind = getattr(op, "kind", None)
        if kind in self.handlers:
            return self.handlers[kind]
        if len(self.handlers) == 1:
            return next(iter(self.handlers.values()))
        raise KeyError(
            f"cannot route {op!r}: spec {self.name!r} has handlers "
            f"{sorted(self.handlers)} and no route function"
        )

    def state_invariants(self) -> list[Invariant]:
        """The invariants as plain state-snapshot checkers."""
        return list(self.invariants)


# ---------------------------------------------------------------------------
# Invariant specs
#
# Each is a plain Invariant over the kernel state snapshot (a dict
# ``entity -> list[rows]``), plus enough structure for the oracle layer to
# compile it into a history-aware chaos oracle and a live probe.
# ---------------------------------------------------------------------------


class InvariantSpec(Invariant):
    """An application invariant, stated against the kernel snapshot.

    ``check(state)`` judges a ``{entity: [rows]}`` snapshot.  The oracle
    layer wraps it with history awareness (see
    :func:`repro.apps.core.oracles.compile_oracles`); binders may also run
    it mid-workload as a live probe via :meth:`probe_value`.
    """

    #: entities this invariant reads; probes fetch only these.
    entities: tuple[str, ...] = ()

    def check(self, state: dict[str, list[dict]]) -> list[Violation]:
        raise NotImplementedError

    def probe_value(self, state: dict[str, list[dict]]) -> Any:
        """A scalar observation a live probe records (None = no probe)."""
        return None


class ConservationSpec(InvariantSpec):
    """Sum of ``field`` over ``entity`` rows equals a constant."""

    def __init__(self, entity: str, field_name: str, expected_total: float) -> None:
        self.entity = entity
        self.field_name = field_name
        self.expected_total = expected_total
        self.entities = (entity,)
        self.name = f"conservation({entity}.{field_name})"

    def check(self, state: dict[str, list[dict]]) -> list[Violation]:
        total = sum(row[self.field_name] for row in state.get(self.entity, []))
        if total != self.expected_total:
            return [Violation(
                self.name,
                f"sum({self.entity}.{self.field_name}) = {total}, expected "
                f"{self.expected_total} (drift {total - self.expected_total:+})",
            )]
        return []

    def probe_value(self, state: dict[str, list[dict]]) -> Any:
        return sum(row[self.field_name] for row in state.get(self.entity, []))


class DoubleEntrySpec(InvariantSpec):
    """Every balance delta is explained by balanced postings.

    The double-entry discipline: each posting row carries both legs
    (``debit_field`` account loses ``amount_field``, ``credit_field``
    account gains it), so per-account::

        balance - initial == sum(credits) - sum(debits)

    A balance that moved without a posting (or a posting without its
    balance effect — a torn application) leaves a residual here, which
    makes this the sharpest state-only detector for partial application.
    """

    def __init__(
        self,
        accounts_entity: str,
        postings_entity: str,
        initial: dict[Hashable, int],
        balance_field: str = "balance",
        debit_field: str = "src",
        credit_field: str = "dst",
        amount_field: str = "amount",
    ) -> None:
        self.accounts_entity = accounts_entity
        self.postings_entity = postings_entity
        self.initial = dict(initial)
        self.balance_field = balance_field
        self.debit_field = debit_field
        self.credit_field = credit_field
        self.amount_field = amount_field
        self.entities = (accounts_entity, postings_entity)
        self.name = f"double_entry({accounts_entity}<-{postings_entity})"

    def check(self, state: dict[str, list[dict]]) -> list[Violation]:
        delta: dict[Hashable, int] = {}
        for row in state.get(self.postings_entity, []):
            amount = row[self.amount_field]
            delta[row[self.debit_field]] = delta.get(row[self.debit_field], 0) - amount
            delta[row[self.credit_field]] = delta.get(row[self.credit_field], 0) + amount
        violations = []
        for row in state.get(self.accounts_entity, []):
            account = row["id"]
            expected = self.initial.get(account, 0) + delta.get(account, 0)
            if row[self.balance_field] != expected:
                violations.append(Violation(
                    self.name,
                    f"{account!r}: balance {row[self.balance_field]} != initial "
                    f"{self.initial.get(account, 0)} + posted delta "
                    f"{delta.get(account, 0):+}",
                ))
        return violations


class GapFreeSequenceSpec(InvariantSpec):
    """Allocated sequence numbers are contiguous: no gaps, no duplicates.

    ``entity`` rows carry ``number_field``; ``counter_entity[counter_key]``
    holds the allocator's ``counter_field`` (next number to hand out).
    Committed state must show exactly the numbers ``1..next-1``, each
    once — an allocator that commits the increment separately from the
    row that uses it (the classic unsound split) leaves a gap here the
    moment anything fails between the two.
    """

    def __init__(
        self,
        entity: str,
        number_field: str,
        counter_entity: str,
        counter_key: Hashable,
        counter_field: str = "next",
    ) -> None:
        self.entity = entity
        self.number_field = number_field
        self.counter_entity = counter_entity
        self.counter_key = counter_key
        self.counter_field = counter_field
        self.entities = (entity, counter_entity)
        self.name = f"gap_free({entity}.{number_field})"

    def check(self, state: dict[str, list[dict]]) -> list[Violation]:
        numbers = sorted(
            row[self.number_field] for row in state.get(self.entity, [])
        )
        violations: list[Violation] = []
        if len(set(numbers)) != len(numbers):
            duplicates = sorted(
                n for n in set(numbers) if numbers.count(n) > 1
            )
            violations.append(Violation(
                self.name, f"duplicate sequence numbers: {duplicates}",
            ))
        expected = list(range(1, len(set(numbers)) + 1))
        if sorted(set(numbers)) != expected:
            gaps = sorted(set(range(1, (max(numbers) if numbers else 0) + 1)) - set(numbers))
            violations.append(Violation(
                self.name,
                f"sequence has gap(s) at {gaps}: allocated numbers are not "
                f"contiguous from 1",
            ))
        counter = next(
            (row for row in state.get(self.counter_entity, [])
             if row["id"] == self.counter_key),
            None,
        )
        if counter is not None and numbers:
            handed_out = counter[self.counter_field] - 1
            if max(numbers) > handed_out:
                violations.append(Violation(
                    self.name,
                    f"number {max(numbers)} in use but counter says only "
                    f"{handed_out} were ever allocated",
                ))
        return violations

    def probe_value(self, state: dict[str, list[dict]]) -> Any:
        return len(state.get(self.entity, []))


class CapacityBoundSpec(InvariantSpec):
    """A per-row numeric field stays within ``[minimum, bound_field]``.

    With only ``minimum`` this is the non-negative-stock bound; with
    ``bound_field`` it is the never-oversold bound (e.g. ``reserved``
    must not exceed ``capacity``).
    """

    def __init__(
        self,
        entity: str,
        field_name: str,
        minimum: Optional[float] = 0,
        bound_field: Optional[str] = None,
    ) -> None:
        self.entity = entity
        self.field_name = field_name
        self.minimum = minimum
        self.bound_field = bound_field
        self.entities = (entity,)
        self.name = f"capacity({entity}.{field_name})"

    def check(self, state: dict[str, list[dict]]) -> list[Violation]:
        violations = []
        for row in state.get(self.entity, []):
            value = row[self.field_name]
            if self.minimum is not None and value < self.minimum:
                violations.append(Violation(
                    self.name,
                    f"{row.get('id')!r}: {self.field_name} = {value} < {self.minimum}",
                ))
            if self.bound_field is not None and value > row[self.bound_field]:
                violations.append(Violation(
                    self.name,
                    f"{row.get('id')!r}: {self.field_name} = {value} > "
                    f"{self.bound_field} = {row[self.bound_field]}",
                ))
        return violations


class CausalAuditSpec(InvariantSpec):
    """The audit trail is causally consistent with the writes it describes.

    Every effect row (keyed by op id) must have exactly one audit entry
    whose recorded fields match it, and every audit entry must describe an
    effect that exists — an audit log that mentions a write which never
    landed (or misses one that did) broke the causal tie between the
    trail and the data (the C12/Antipode concern, stated as app state).
    """

    def __init__(
        self,
        effect_entity: str,
        audit_entity: str,
        match_fields: tuple[str, ...] = (),
    ) -> None:
        self.effect_entity = effect_entity
        self.audit_entity = audit_entity
        self.match_fields = match_fields
        self.entities = (effect_entity, audit_entity)
        self.name = f"causal_audit({audit_entity}->{effect_entity})"

    def check(self, state: dict[str, list[dict]]) -> list[Violation]:
        effects = {row["id"]: row for row in state.get(self.effect_entity, [])}
        audits = {row["id"]: row for row in state.get(self.audit_entity, [])}
        violations = []
        for op_id in sorted(set(effects) - set(audits), key=repr):
            violations.append(Violation(
                self.name, f"{op_id!r}: effect committed with no audit entry",
            ))
        for op_id in sorted(set(audits) - set(effects), key=repr):
            violations.append(Violation(
                self.name, f"{op_id!r}: audit entry describes no committed effect",
            ))
        for op_id in sorted(set(audits) & set(effects), key=repr):
            for field_name in self.match_fields:
                if audits[op_id].get(field_name) != effects[op_id].get(field_name):
                    violations.append(Violation(
                        self.name,
                        f"{op_id!r}: audit {field_name}="
                        f"{audits[op_id].get(field_name)!r} != effect "
                        f"{effects[op_id].get(field_name)!r}",
                    ))
        return violations
