"""Per-shard replicated logs: quorum commits, elections, fenced failover.

The paper's availability gap (§3.2, ROADMAP item 1): one replica per
shard means "recovery" is replay-from-WAL, never failover.  This package
adds Raft-style replica groups over :mod:`repro.messaging.rpc`:

- :class:`ReplicationConfig` — factor, timeouts and batching, all
  sound settings (the intentionally broken local-ack variant the chaos
  oracles must catch is the mutant ``replication.unfenced`` in
  :mod:`repro.chaos.mutants`);
- :class:`ReplicatedLog` / :class:`LogEntry` — the 1-based log with a
  compaction floor;
- :class:`Replica` — one member: elections, AppendEntries,
  InstallSnapshot, and the engine apply path with fencing tokens;
- :class:`ReplicaGroup` — the per-shard unit :mod:`repro.db.sharding`
  places and migrates; quorum writes, leader reads (read-index
  barrier), bounded-stale follower reads with :class:`Session`
  read-your-writes.

See ``docs/REPLICATION.md`` for the protocol walk-through and how the
C16 bench maps the quorum round trip onto the "Distributed
Transactional Systems Cannot Be Fast" latency floor.
"""

from repro.replication.config import ReplicationConfig
from repro.replication.errors import (
    FencedOut,
    NoLeader,
    NotLeader,
    QuorumTimeout,
    ReplicaUnavailable,
    ReplicationError,
    ReplicationUncertain,
)
from repro.replication.group import ReplicaGroup, Session
from repro.replication.log import LogEntry, ReplicatedLog
from repro.replication.replica import Replica

__all__ = [
    "FencedOut",
    "LogEntry",
    "NoLeader",
    "NotLeader",
    "QuorumTimeout",
    "Replica",
    "ReplicaGroup",
    "ReplicaUnavailable",
    "ReplicatedLog",
    "ReplicationConfig",
    "ReplicationError",
    "ReplicationUncertain",
    "Session",
]
