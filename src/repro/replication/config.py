"""The one setting of a replicated shard: its replication factor.

The protocol's timing and sizing (heartbeat, election timeout, RPC and
commit deadlines, append batch, compaction, follower staleness, log
fsync and snapshot install charges) are constants of
:mod:`repro.replication.replica` and :mod:`repro.replication.group`,
beside their uses.

The intentionally broken variant the chaos oracles must catch is not a
setting but the mutant ``replication.unfenced``
(:mod:`repro.chaos.mutants`): its leader acknowledges a write as soon as
it is applied locally (no quorum wait) and, once deposed, ignores higher
terms, so an isolated or about-to-die leader keeps acking writes that a
failover will erase.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReplicationConfig:
    #: replicas per shard (leader + followers); a replica works out its
    #: quorum from its peers
    factor: int = 3

    def __post_init__(self) -> None:
        if self.factor < 1:
            raise ValueError("replication factor must be >= 1")


__all__ = ["ReplicationConfig"]
