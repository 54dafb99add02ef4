"""Unified cluster placement: hashing, directory, router, live rebalancing.

The paper's taxonomy turns on *who owns state partitioning*: actor
runtimes place activations via a directory, dataflow engines hash keys to
operator partitions, sharded databases route by primary key, brokers by
record key.  Before this package each runtime in the repository carried
its own copy of that logic; ``repro.cluster`` is the shared substrate
they all consult instead:

- :mod:`~repro.cluster.hashing` — the platform-stable hash formulas,
  including the one key→shard formula :func:`shard_of`;
- :mod:`~repro.cluster.directory` — shard→node ownership with epochs,
  plus the activation registry behind virtual-actor placement;
- :mod:`~repro.cluster.router` — cached key→node resolution with
  straggler forwarding;
- :mod:`~repro.cluster.migration` — the live shard-migration protocol
  (drain → copy → flip → forward), traced via ``repro.obs``;
- :mod:`~repro.cluster.stats` / :mod:`~repro.cluster.rebalancer` — the
  load signal and the control loop that moves hot shards to cold nodes;
- :mod:`~repro.cluster.plan` — declared-access planning: the one lock
  order and the conflict waves.

See ``docs/CLUSTER.md`` for the protocol and the determinism contract.
"""

from repro.cluster.directory import (
    ClusterError,
    MigrationRecord,
    PlacementDirectory,
)
from repro.cluster.hashing import (
    rendezvous_owner,
    shard_of,
    stable_hash,
    stable_hash_text,
)
from repro.cluster.migration import MigrationStats, ShardMover, migrate_shard
from repro.cluster.rebalancer import Move, Rebalancer, RebalancerStats
from repro.cluster.router import Route, Router, RouterStats
from repro.cluster.stats import ShardStats

__all__ = [
    "ClusterError",
    "MigrationRecord",
    "MigrationStats",
    "Move",
    "PlacementDirectory",
    "Rebalancer",
    "RebalancerStats",
    "Route",
    "Router",
    "RouterStats",
    "ShardMover",
    "ShardStats",
    "migrate_shard",
    "rendezvous_owner",
    "shard_of",
    "stable_hash",
    "stable_hash_text",
]
