"""Receiver-side deduplication: idempotency keys and message-id dedup.

The paper (§3.2) puts the burden of exactly-once effects on applications:
"uniqueness ID guarantee and subsequent detection of duplicated messages
are still the responsibility of applications".  These two helpers are that
responsibility, packaged:

- :class:`IdempotencyStore` — keyed by a caller-chosen idempotency key;
  stores the first response so duplicates can be answered without
  re-execution (the HTTP Idempotency-Key pattern).
- :class:`Deduplicator` — keyed by message id; a bounded set for
  at-least-once consumers.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional


@dataclass(frozen=True)
class IdempotencyEntry:
    """The recorded outcome of the first execution."""

    key: str
    response: Any


class IdempotencyStore:
    """Durable map of idempotency key → first response.

    Durability matters: if the store were lost with the state it guards, a
    replayed message would re-execute.  Co-locate it with the state (same
    database transaction) for true exactly-once — see
    :mod:`repro.messaging.outbox` for the pattern.
    """

    def __init__(self) -> None:
        self._entries: dict[str, IdempotencyEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def lookup(self, key: str) -> Optional[IdempotencyEntry]:
        """Return the recorded entry, or ``None`` if this key is new."""
        return self._entries.get(key)

    def record(self, key: str, response: Any) -> IdempotencyEntry:
        """Record the first response for ``key`` (first writer wins)."""
        if key in self._entries:
            return self._entries[key]
        entry = IdempotencyEntry(key, response)
        self._entries[key] = entry
        return entry


#: message ids a :class:`Deduplicator` remembers
WINDOW = 100_000


class Deduplicator:
    """Bounded set of already-processed message ids (FIFO eviction).

    A finite window models reality: dedup state cannot grow forever, so a
    sufficiently delayed duplicate *can* slip through — which is why the
    window must exceed the maximum redelivery delay.
    """

    def __init__(self) -> None:
        self._seen: OrderedDict[Hashable, None] = OrderedDict()
        self.duplicates = 0
        self.accepted = 0

    def is_duplicate(self, message_id: Hashable) -> bool:
        """Test-and-record: True if seen before (within the window)."""
        if message_id in self._seen:
            self.duplicates += 1
            return True
        self._seen[message_id] = None
        if len(self._seen) > WINDOW:
            self._seen.popitem(last=False)
        self.accepted += 1
        return False

    def __len__(self) -> int:
        return len(self._seen)
