"""Tunables for per-shard replicated logs.

All durations are virtual milliseconds.  The defaults follow the usual
Raft guidance — heartbeat interval well below the election timeout span,
randomized timeouts to break split votes — scaled to the simulator's
intra-zone RTTs.

Every field is a sound setting.  The intentionally broken variant the
chaos oracles must catch is not a field but the mutant
``replication.unfenced`` (:mod:`repro.chaos.mutants`): its leader
acknowledges a write as soon as it is applied locally (no quorum wait)
and, once deposed, ignores higher terms, so an isolated or about-to-die
leader keeps acking writes that a failover will erase.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReplicationConfig:
    #: replicas per shard (leader + followers); quorum = factor//2 + 1
    factor: int = 3
    #: leader -> follower AppendEntries cadence when idle
    heartbeat_ms: float = 15.0
    #: randomized follower election timeout span (uniform per arming)
    election_timeout: tuple[float, float] = (60.0, 120.0)
    #: per-RPC timeout for vote/append/snapshot rounds
    rpc_timeout_ms: float = 30.0
    #: client-visible deadline for a quorum-acknowledged commit
    commit_timeout_ms: float = 250.0
    #: how long a client waits for a leader to emerge before NoLeader
    leader_wait_ms: float = 200.0
    #: max log entries per AppendEntries batch
    max_append_batch: int = 32
    #: compact the log once it holds more than this many entries ...
    compact_threshold: int = 256
    #: ... keeping at least this many trailing entries for cheap catch-up
    compact_keep: int = 32
    #: follower reads refuse service if the leader has been silent longer
    max_staleness_ms: float = 200.0
    #: simulated fsync charge for appending entries to the replicated log
    log_fsync_ms: float = 0.5
    #: simulated charge for installing a full snapshot on a follower
    snapshot_install_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.factor < 1:
            raise ValueError("replication factor must be >= 1")
        lo, hi = self.election_timeout
        if not (0 < lo <= hi):
            raise ValueError("election_timeout must be a (lo <= hi) span")
        if self.heartbeat_ms <= 0:
            raise ValueError("heartbeat_ms must be positive")
        if self.compact_keep < 1:
            raise ValueError("compact_keep must be >= 1")

    @property
    def quorum(self) -> int:
        return self.factor // 2 + 1


__all__ = ["ReplicationConfig"]
