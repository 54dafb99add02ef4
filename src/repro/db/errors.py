"""Exception hierarchy of the database engine."""

from __future__ import annotations


class TransactionError(Exception):
    """Base class for all transactional failures."""


class TransactionAborted(TransactionError):
    """The transaction was aborted and its effects rolled back."""

    def __init__(self, tid: int, reason: str = "") -> None:
        super().__init__(f"transaction {tid} aborted: {reason}")
        self.tid = tid


class DeadlockAbort(TransactionAborted):
    """Aborted as a deadlock victim (waits-for cycle)."""

    def __init__(self, tid: int, cycle: list[int]) -> None:
        super().__init__(tid, f"deadlock, cycle {cycle}")
        self.cycle = cycle


class WriteConflict(TransactionAborted):
    """Snapshot-isolation first-committer-wins validation failed."""

    def __init__(self, tid: int, table: str, key: object) -> None:
        super().__init__(tid, f"write-write conflict on {table}[{key!r}]")
        self.table = table
        self.key = key


class DuplicateKey(TransactionError):
    """Insert with a primary key that already exists."""

    def __init__(self, table: str, key: object) -> None:
        super().__init__(f"duplicate key {key!r} in table {table!r}")
        self.table = table
        self.key = key


class NoSuchTable(TransactionError):
    """Operation on an undefined table."""


class InvalidTransactionState(TransactionError):
    """Operation not allowed in the transaction's current status."""


class FencedOut(TransactionError):
    """A deposed leader's write was refused acknowledgement.

    The replica settling the ack is in a term (its fencing token) higher
    than the one the write was proposed under: the entry still installs
    if the log committed it, but the proposing leader must not report
    success — its leadership ended before it could learn the outcome.
    """

    def __init__(self, gid: object, token: int, fence: int) -> None:
        super().__init__(
            f"replicated txn {gid!r} proposed under term {token} but the "
            f"replica is in term {fence}: ack refused (fenced out)"
        )
        self.gid = gid
        self.token = token
        self.fence = fence
