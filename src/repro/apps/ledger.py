"""The payments ledger: double-entry postings, balanced by construction.

The first app defined purely as an :class:`~repro.apps.core.AppSpec` —
one posting handler, three entities, three invariants — and deployed
onto every runtime by the generic binders.  A transfer is not two
balance updates that happen to cancel; it is a *posting row* recording
both legs plus the two balance effects plus a causally-tied audit entry,
all in one declared-key transaction:

- ``conservation`` — the balance total never drifts;
- ``double_entry`` — every balance delta is explained by postings (the
  sharpest state-only detector for torn application);
- ``causal_audit`` — the audit trail describes exactly the postings
  that committed (the C12/Antipode concern as app state).

A second, read-only handler answers an :class:`AuditOp`: it reads every
account, writes nothing and returns the balance total — the mid-run
snapshot audit the chaos harness runs on isolated runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.apps.core import (
    AppSpec,
    CausalAuditSpec,
    ConservationSpec,
    DoubleEntrySpec,
    EntitySpec,
    HandlerSpec,
)
from repro.workloads.transfers import TransferOp, TransferWorkload


@dataclass(frozen=True)
class AuditOp:
    """Read every account's balance in one transaction; returns the total."""

    op_id: str


def _post(ctx, op: TransferOp) -> Generator:
    src = yield from ctx.get("accounts", op.src)
    dst = yield from ctx.get("accounts", op.dst)
    yield from ctx.put(
        "accounts", op.src, {"id": op.src, "balance": src["balance"] - op.amount}
    )
    yield from ctx.put(
        "accounts", op.dst, {"id": op.dst, "balance": dst["balance"] + op.amount}
    )
    posting = {"id": op.op_id, "src": op.src, "dst": op.dst, "amount": op.amount}
    yield from ctx.put("postings", op.op_id, posting)
    yield from ctx.put("audit", op.op_id, dict(posting))
    return True


def _reads(op: TransferOp):
    return [("accounts", op.src), ("accounts", op.dst)]


def _writes(op: TransferOp):
    return [
        ("accounts", op.src),
        ("accounts", op.dst),
        ("postings", op.op_id),
        ("audit", op.op_id),
    ]


def ledger_spec(workload: TransferWorkload) -> AppSpec:
    """Build the ledger app over a transfer workload's account universe."""
    initial = {row["id"]: row["balance"] for row in workload.initial_rows()}
    accounts = [("accounts", account) for account in initial]

    def audit(ctx, op: AuditOp) -> Generator:
        total = 0
        for ref in accounts:
            row = yield from ctx.get(*ref)
            total += row["balance"]
        return total

    return AppSpec(
        name="ledger",
        entities=[
            EntitySpec("accounts"),
            EntitySpec("postings"),
            EntitySpec("audit"),
        ],
        handlers=[
            HandlerSpec("posting", _post, _reads, _writes),
            HandlerSpec("audit", audit, lambda op: accounts, lambda op: ()),
        ],
        invariants=[
            ConservationSpec("accounts", "balance", workload.expected_total),
            DoubleEntrySpec("accounts", "postings", initial),
            CausalAuditSpec("postings", "audit",
                            match_fields=("src", "dst", "amount")),
        ],
        initial_rows={"accounts": workload.initial_rows()},
        route=lambda op: "audit" if isinstance(op, AuditOp) else "posting",
        kind="posting",
        effect_entity="postings",
    )
