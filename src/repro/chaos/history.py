"""Jepsen-style operation histories over the virtual clock.

Every client operation is recorded as an ``invoke`` followed by exactly
one completion: ``ok`` (effect definitely happened), ``fail`` (effect
definitely did not happen), or ``info`` (outcome unknown — timeouts,
commit-uncertainty windows, operations still in flight at the end of a
trial).  Oracles reason over the completed history plus final state; the
``info`` category is what keeps them honest about uncertainty instead of
misclassifying an in-doubt transfer as lost money.

Event contents are deliberately limited to client-visible facts (op ids,
kinds, values, virtual timestamps) so :meth:`History.digest` is stable
across runs of the same seed even when runtime internals allocate ids
differently.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional

#: Completion actions; ``invoke`` opens an operation.
ACTIONS = ("invoke", "ok", "fail", "info")


@dataclass(frozen=True)
class HistoryEvent:
    """One line of the history."""

    index: int
    ts: float
    client: str
    action: str
    op_id: str
    kind: str
    detail: str = ""
    value: Any = None
    span_id: Optional[int] = None

    def to_dict(self) -> dict:
        out: dict = {
            "index": self.index,
            "ts": self.ts,
            "client": self.client,
            "action": self.action,
            "op_id": self.op_id,
            "kind": self.kind,
        }
        if self.detail:
            out["detail"] = self.detail
        if self.value is not None:
            out["value"] = self.value
        if self.span_id:
            out["span_id"] = self.span_id
        return out


class History:
    """An append-only operation history with invoke/completion pairing."""

    def __init__(self) -> None:
        self.events: list[HistoryEvent] = []
        self._open: dict[str, HistoryEvent] = {}

    # -- recording -----------------------------------------------------------

    def _append(
        self,
        ts: float,
        client: str,
        action: str,
        op_id: str,
        kind: str,
        detail: str = "",
        value: Any = None,
        span_id: Optional[int] = None,
    ) -> HistoryEvent:
        event = HistoryEvent(
            index=len(self.events), ts=ts, client=client, action=action,
            op_id=op_id, kind=kind, detail=detail, value=value,
            span_id=span_id or None,
        )
        self.events.append(event)
        return event

    def invoke(self, ts: float, client: str, op_id: str, kind: str,
               detail: str = "", span_id: Optional[int] = None) -> HistoryEvent:
        if op_id in self._open:
            raise ValueError(f"operation {op_id!r} already open")
        event = self._append(ts, client, "invoke", op_id, kind, detail,
                             span_id=span_id)
        self._open[op_id] = event
        return event

    def _complete(self, ts: float, action: str, op_id: str, detail: str,
                  value: Any) -> HistoryEvent:
        invoked = self._open.pop(op_id, None)
        if invoked is None:
            raise ValueError(f"completion for {op_id!r} without invoke")
        return self._append(ts, invoked.client, action, op_id, invoked.kind,
                            detail, value, span_id=invoked.span_id)

    def ok(self, ts: float, op_id: str, value: Any = None) -> HistoryEvent:
        return self._complete(ts, "ok", op_id, "", value)

    def fail(self, ts: float, op_id: str, detail: str = "") -> HistoryEvent:
        return self._complete(ts, "fail", op_id, detail, None)

    def info(self, ts: float, op_id: str, detail: str = "") -> HistoryEvent:
        return self._complete(ts, "info", op_id, detail, None)

    def close_pending(self, ts: float) -> int:
        """Mark every still-open invoke as ``info`` (trial ended first)."""
        open_ids = sorted(self._open, key=lambda op: self._open[op].index)
        for op_id in open_ids:
            self._complete(ts, "info", op_id, "still in flight at trial end", None)
        return len(open_ids)

    # -- querying ------------------------------------------------------------

    def completions(self, action: str, kind: Optional[str] = None) -> list[HistoryEvent]:
        return [
            e for e in self.events
            if e.action == action and (kind is None or e.kind == kind)
        ]

    def ok_ops(self, kind: Optional[str] = None) -> list[str]:
        return [e.op_id for e in self.completions("ok", kind)]

    def fail_ops(self, kind: Optional[str] = None) -> list[str]:
        return [e.op_id for e in self.completions("fail", kind)]

    def counts(self) -> dict[str, int]:
        out = {action: 0 for action in ACTIONS}
        for event in self.events:
            out[event.action] += 1
        return out

    def digest(self) -> str:
        """A stable fingerprint: sha256 over the canonical event list."""
        payload = json.dumps(
            [event.to_dict() for event in self.events],
            sort_keys=True, separators=(",", ":"), default=repr,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"<History {len(self.events)} events {self.counts()}>"
