"""Declared-access planning: the one place work is ordered by key sets.

Deterministic execution orders transactions *before* running them, from
the keys each one declares (Calvin, Styx; the queue-oriented QueCC line in
PAPERS.md).  Every such decision in the repository is made here, and this
module imports nothing from the rest of the repository:

- :func:`key_order` and :func:`by_partition` — the one acquisition order,
  ``(partition, table, repr(key))``.  ``Database.lock_and_fetch`` locks a
  partition's rows in it and ``ShardedDatabase.lock_and_fetch`` visits
  shards in it, so two transactions that both lock through them cannot
  close a waits-for cycle;
- :func:`conflict_waves` — a TID-ordered batch cut into conflict-free
  waves that may run in parallel, an undeclared item acting as a barrier
  (the transactional dataflow's epochs).
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Hashable, Iterable, Optional

#: ``(table, key)`` — the unit of declared access
Ref = tuple[str, Hashable]


def key_order(ref: Ref) -> tuple[str, str]:
    """The order one partition's rows are acquired in: ``(table, repr(key))``."""
    return ref[0], repr(ref[1])


def by_partition(
    refs: Iterable[Ref],
    partition_of: Callable[[Hashable], int],
    placed: dict[Ref, int],
) -> dict[int, list[Ref]]:
    """``{partition: refs in key order}``, partitions ascending.

    ``partition_of`` maps a row key to its partition; each ref's partition
    is also recorded in ``placed``, in the same pass.  Iterating the result
    walks ``refs`` in the global ``(partition, table, repr(key))`` order.
    """
    grouped: dict[int, list[Ref]] = {}
    for ref in refs:
        part = placed[ref] = partition_of(ref[1])
        grouped.setdefault(part, []).append(ref)
    return {part: sorted(grouped[part], key=key_order) for part in sorted(grouped)}


def conflict_waves(
    items: Iterable[Any], keys_of: Callable[[Any], Optional[Collection[Hashable]]]
) -> list[list[Any]]:
    """Split TID-ordered ``items`` into conflict-free waves.

    No two items of a wave share a key, and an item lands in the wave
    after the last one it conflicts with, so running the waves in order
    is equivalent to the serial order of ``items`` (Calvin/Styx's
    deterministic locking: parallelism without runtime deadlocks).
    ``keys_of(item)`` returns the item's declared keys; an empty set
    conflicts with nothing, while ``None`` means *undeclared*: the item
    runs alone in its wave, after every earlier item and before every
    later one.
    """
    waves: list[list[Any]] = []
    open_keys: list[set] = []  # key sets of the waves since the last barrier
    for item in items:
        keys = keys_of(item)
        if keys is None:
            waves.append([item])
            open_keys = []
            continue
        target = 0
        for index, taken in enumerate(open_keys):
            if not taken.isdisjoint(keys):
                target = index + 1
        if target == len(open_keys):
            waves.append([item])
            open_keys.append(set(keys))
        else:
            waves[len(waves) - len(open_keys) + target].append(item)
            open_keys[target].update(keys)
    return waves
