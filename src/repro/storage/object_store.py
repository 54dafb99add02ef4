"""A cloud object store (S3-like): buckets, high latency, high durability.

The *disaggregated* storage tier of the paper (§3.3, §5.2): dataflow
checkpoints, actor persistence, and FaaS state all land here.  The pure
:class:`ObjectStore` holds the bytes; :class:`ObjectStoreServer` runs it on
a node and charges realistic request latency plus size-proportional
transfer time, which is what makes embedded-vs-disaggregated trade-offs
measurable.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.net.latency import Latency, Sampler
from repro.net.node import Node
from repro.sim import Environment, Future


class NoSuchKey(KeyError):
    """Requested object does not exist."""


class ObjectStore:
    """Durable flat namespace of ``(bucket, key) -> object``.

    Objects survive any node crash: durability is the defining property of
    the disaggregated tier.
    """

    def __init__(self) -> None:
        self._objects: dict[tuple[str, str], Any] = {}

    def put(self, bucket: str, key: str, obj: Any, size: int = 1) -> None:
        """Store an object (last-writer-wins, like S3).  ``size`` is what
        the server charged the transfer for; a recording store keeps it."""
        self._objects[(bucket, key)] = obj

    def get(self, bucket: str, key: str) -> Any:
        """Fetch an object; raises :class:`NoSuchKey` if absent."""
        try:
            return self._objects[(bucket, key)]
        except KeyError:
            raise NoSuchKey(f"{bucket}/{key}") from None

    def exists(self, bucket: str, key: str) -> bool:
        return (bucket, key) in self._objects

    def delete(self, bucket: str, key: str) -> bool:
        return self._objects.pop((bucket, key), None) is not None

    def list(self, bucket: str) -> list[str]:
        """Sorted keys in ``bucket``."""
        return sorted(k for (b, k) in self._objects if b == bucket)


#: transfer cost per unit of object size, on top of the request latency
TRANSFER_MS_PER_UNIT = 0.01


class ObjectStoreServer:
    """Latency-charging facade over an :class:`ObjectStore`.

    All methods are generators intended for ``yield from`` inside simulation
    processes; each charges a sampled request latency plus a per-unit-size
    transfer cost.  A write lands when its request does, whether or not the
    caller is still waiting: a request in flight when its client crashes
    still completes at the store.
    """

    def __init__(
        self,
        env: Environment,
        store: Optional[ObjectStore] = None,
        latency: Optional[Sampler] = None,
        stream: str = "object-store",
    ) -> None:
        self.env = env
        self.store = store if store is not None else ObjectStore()
        self._latency = latency or Latency.object_store()
        self._rng = env.stream(stream)

    def client(self, stream: str) -> "ObjectStoreServer":
        """A second client of the same store, same cost model, own RNG stream.

        Background work (compaction, garbage collection) draws its request
        latencies here so it never shifts the foreground client's draws.
        """
        return ObjectStoreServer(self.env, self.store, self._latency, stream=stream)

    def put(self, bucket: str, key: str, obj: Any, size: int = 1) -> Generator:
        """Store an object, charging request + transfer latency."""
        delay = self._latency(self._rng) + TRANSFER_MS_PER_UNIT * size
        yield self._request(delay, self.store.put, bucket, key, obj, size)

    def get(self, bucket: str, key: str, size: int = 1) -> Generator:
        """Fetch an object, charging request + transfer latency."""
        yield self.env.timeout(self._latency(self._rng) + TRANSFER_MS_PER_UNIT * size)
        return self.store.get(bucket, key)

    def exists(self, bucket: str, key: str) -> Generator:
        yield self.env.timeout(self._latency(self._rng))
        return self.store.exists(bucket, key)

    def list(self, bucket: str) -> Generator:
        yield self.env.timeout(self._latency(self._rng))
        return self.store.list(bucket)

    def delete_many(self, bucket: str, keys: list[str]) -> Generator:
        """Delete a batch of objects in one request (S3 ``DeleteObjects``)."""
        yield self._request(self._latency(self._rng), self._delete_all, bucket, keys)

    def _delete_all(self, bucket: str, keys: list[str]) -> None:
        for key in keys:
            self.store.delete(bucket, key)

    def _request(self, delay: float, apply: Callable[..., None], *args: Any) -> Future:
        """A write request: ``apply(*args)`` runs when it lands, then it resolves."""
        landed = self.env.future(label="object-store.write")
        self.env.schedule(delay, self._land, landed, apply, args)
        return landed

    @staticmethod
    def _land(landed: Future, apply: Callable[..., None], args: tuple) -> None:
        apply(*args)
        landed.succeed(None)
