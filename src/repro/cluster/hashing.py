"""Platform-stable hashing — the one place routing digests are computed.

Every runtime in the repository used to carry its own copy of the same
``zlib.crc32`` routing formula (database shards, broker partitions,
dataflow key groups, actor rendezvous placement).  They now all call into
this module, so the determinism contract lives in exactly one place:

- :func:`stable_hash` hashes a *value* via ``repr`` — identical across
  processes and ``PYTHONHASHSEED`` values, unlike builtin ``hash``;
- :func:`shard_of` maps a key to one of ``num_shards`` shards
  (``stable_hash(key) % num_shards``);
- :func:`stable_hash_text` hashes an already-stringified identifier;
- :func:`rendezvous_owner` implements highest-random-weight placement
  with first-wins tie-breaking, the formula the actor runtime has always
  used (``crc32("{node}|{key}")``).

Changing any formula here is a re-baselining event for every committed
benchmark table; see ``docs/CLUSTER.md`` (determinism contract).
"""

from __future__ import annotations

import zlib
from typing import Hashable, Optional, Sequence


def stable_hash(key: Hashable) -> int:
    """CRC32 of ``repr(key)`` — deterministic, platform-stable."""
    return zlib.crc32(repr(key).encode("utf-8"))


def shard_of(key: Hashable, num_shards: int) -> int:
    """The shard owning ``key``: ``stable_hash(key) % num_shards``.

    The one key→partition formula: the sharded database's router and
    bulk load, the broker's topic partitions, the dataflow and Statefun
    runtimes' operator partitions, and the benches that pick keys per
    shard.  (The transactional dataflow inlines it on its hot path.)
    """
    return stable_hash(key) % num_shards


def stable_hash_text(text: str) -> int:
    """CRC32 of an already-stringified identifier (no ``repr`` quoting)."""
    return zlib.crc32(text.encode("utf-8"))


def rendezvous_owner(nodes: Sequence[str], key: str) -> Optional[str]:
    """The node with the highest rendezvous score for ``key``.

    Ties break toward the earlier node in ``nodes`` (exactly the behaviour
    of ``max()`` over an iterable, which this replaces).  Returns ``None``
    for an empty candidate list.
    """
    best: Optional[str] = None
    best_score = -1
    for node in nodes:
        score = zlib.crc32(f"{node}|{key}".encode("utf-8"))
        if score > best_score:
            best = node
            best_score = score
    return best
