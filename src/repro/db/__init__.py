"""A from-scratch transactional database engine.

This is the *external DBMS* substrate of the paper (§1, §3.3): the system
that monoliths delegated state management, recovery, and consistency to, and
that each microservice re-adopts as a private or shared database.  It
provides:

- heap tables with primary keys and secondary indexes,
- three isolation levels — read committed, snapshot isolation (MVCC with
  first-committer-wins), and serializable (strict two-phase locking with
  intention locks and deadlock detection),
- a write-ahead log with redo recovery (deferred updates, so undo is not
  needed — an "ARIES-lite"),
- an XA-style participant interface (prepare / commit / rollback,
  in-doubt recovery) used by the cross-shard 2PC,
- hash-sharding with cross-shard two-phase commit.
"""

from repro.db.errors import (
    DeadlockAbort,
    DuplicateKey,
    FencedOut,
    TransactionAborted,
    TransactionError,
    WriteConflict,
)
from repro.db.engine import Database, IsolationLevel, Row, Transaction, TxnStatus
from repro.db.locks import LockManager, LockMode
from repro.db.server import DatabaseServer
from repro.db.sharding import ShardedDatabase

__all__ = [
    "Database",
    "DatabaseServer",
    "DeadlockAbort",
    "DuplicateKey",
    "FencedOut",
    "IsolationLevel",
    "LockManager",
    "LockMode",
    "Row",
    "ShardedDatabase",
    "Transaction",
    "TransactionAborted",
    "TransactionError",
    "TxnStatus",
    "WriteConflict",
]
