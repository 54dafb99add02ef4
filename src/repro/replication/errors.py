"""Error taxonomy for the replication layer.

The split mirrors the chaos history's outcome classes: definite failures
(the client *knows* nothing committed) versus uncertain outcomes (the
proposal may or may not survive — Jepsen ``info``).  ``FencedOut``, which
a replica settles a deposed leader's ack with, lives in
:mod:`repro.db.errors` because it is a transaction error the db binders
and the sharded database handle; it is re-exported here for convenience.
"""

from __future__ import annotations


def __getattr__(name: str):
    # Lazy re-export: importing repro.db.errors eagerly would close an
    # import cycle (repro.db -> sharding -> here -> repro.db).
    if name == "FencedOut":
        from repro.db.errors import FencedOut

        return FencedOut
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ReplicationError(RuntimeError):
    """Base class for replication-layer failures."""


class NotLeader(ReplicationError):
    """The targeted replica is not (or no longer) the group leader.

    Raised *before* a command is appended to any log, so the outcome is a
    definite failure — nothing was proposed, nothing can commit later.
    """

    def __init__(self, group: str, node: str, hint: str | None = None) -> None:
        self.group = group
        self.node = node
        suffix = f" (try {hint})" if hint else ""
        super().__init__(f"{node} is not the leader of {group}{suffix}")


class NoLeader(ReplicationError):
    """No live leader emerged within the discovery window (definite fail)."""

    def __init__(self, group: str) -> None:
        self.group = group
        super().__init__(f"no live leader for replica group {group}")


class ReplicaUnavailable(ReplicationError):
    """The replica a transaction was pinned to crashed or was deposed."""

    def __init__(self, group: str, node: str) -> None:
        self.group = group
        self.node = node
        super().__init__(f"replica {node} of {group} is unavailable")


class ReplicationUncertain(ReplicationError):
    """A proposed command's fate is unknown (it may still commit).

    Everything after ``propose()`` succeeds is uncertain territory: the
    entry sits in at least one log, and a future leader may carry it to
    commitment even if this client never hears back.
    """


class QuorumTimeout(ReplicationUncertain):
    """The quorum acknowledgement did not arrive within the deadline."""

    def __init__(self, group: str, index: int) -> None:
        self.group = group
        self.index = index
        super().__init__(
            f"no quorum ack for {group} log index {index} within deadline"
        )


__all__ = [
    "FencedOut",
    "NoLeader",
    "NotLeader",
    "QuorumTimeout",
    "ReplicaUnavailable",
    "ReplicationError",
    "ReplicationUncertain",
]
