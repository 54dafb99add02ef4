"""The message fabric connecting nodes, with configurable fault injection.

The network is asynchronous and unreliable by default semantics: messages
may be delayed, dropped (when loss is injected), duplicated, or lost to
partitions and crashed receivers.  Reliable delivery is an *application*
concern (retries + idempotency keys, paper §3.2) — exactly what the
messaging layer built on top of this module provides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from repro.net.latency import Latency, Sampler
from repro.net.node import Node
from repro.sim import Environment


class Message:
    """An envelope traveling between two nodes.

    A ``__slots__`` class rather than a frozen dataclass: one envelope is
    built per dispatched message, and frozen-dataclass construction is the
    second-hottest allocation on the RPC path.  Treat instances as
    immutable.
    """

    __slots__ = (
        "msg_id", "src", "dst", "port", "payload", "sent_at", "duplicate",
        "span", "dst_alive_at_send",
    )

    def __init__(
        self,
        msg_id: int,
        src: str,
        dst: str,
        port: str,
        payload: Any,
        sent_at: float,
        duplicate: bool = False,
        span: Any = None,
        dst_alive_at_send: bool = True,
    ) -> None:
        self.msg_id = msg_id
        self.src = src
        self.dst = dst
        self.port = port
        self.payload = payload
        self.sent_at = sent_at
        self.duplicate = duplicate
        #: Causal tracing span covering the in-flight interval (None untraced).
        self.span = span
        #: Whether the receiver was alive when the message left the sender —
        #: distinguishes a crash-race (receiver died mid-flight) from a send
        #: aimed at an already-dead node.
        self.dst_alive_at_send = dst_alive_at_send

    def __repr__(self) -> str:
        return (
            f"Message(msg_id={self.msg_id!r}, src={self.src!r}, "
            f"dst={self.dst!r}, port={self.port!r}, payload={self.payload!r}, "
            f"sent_at={self.sent_at!r}, duplicate={self.duplicate!r})"
        )


@dataclass
class NetworkStats:
    """Counters of everything the fabric did, for assertions and reports."""

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_partition: int = 0
    dropped_dead: int = 0
    dropped_crashed_inflight: int = 0
    duplicated: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped_loss": self.dropped_loss,
            "dropped_partition": self.dropped_partition,
            "dropped_dead": self.dropped_dead,
            "dropped_crashed_inflight": self.dropped_crashed_inflight,
            "duplicated": self.duplicated,
        }


@dataclass
class _LinkFaults:
    """Per-link (or global) fault configuration."""

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    extra_delay: float = 0.0


class Network:
    """The cluster fabric: registry of nodes plus a message scheduler."""

    def __init__(
        self,
        env: Environment,
        default_latency: Optional[Sampler] = None,
    ) -> None:
        self.env = env
        self.default_latency = default_latency or Latency.intra_zone()
        self.nodes: dict[str, Node] = {}
        self.stats = NetworkStats()
        self._rng = env.stream("network")
        self._msg_ids = itertools.count(1)
        self._global_faults = _LinkFaults()
        self._link_faults: dict[tuple[str, str], _LinkFaults] = {}
        self._partitions: set[frozenset[str]] = set()
        self._link_latency: dict[tuple[str, str], Sampler] = {}

    # -- topology -------------------------------------------------------------

    def add_node(self, name: str) -> Node:
        """Create and register a node; names must be unique."""
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        node = Node(self.env, name)
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        return self.nodes[name]

    def set_link_latency(self, src: str, dst: str, sampler: Sampler) -> None:
        """Override latency for the directed link ``src -> dst``."""
        self._link_latency[(src, dst)] = sampler

    # -- fault injection --------------------------------------------------------

    def set_loss(self, rate: float, src: str = "*", dst: str = "*") -> None:
        """Drop each matching message independently with probability ``rate``."""
        self._faults_for(src, dst).drop_rate = rate

    def set_duplication(self, rate: float, src: str = "*", dst: str = "*") -> None:
        """Duplicate each matching message with probability ``rate``."""
        self._faults_for(src, dst).duplicate_rate = rate

    def set_extra_delay(self, delay: float, src: str = "*", dst: str = "*") -> None:
        """Add a fixed delay to each matching message (congestion)."""
        self._faults_for(src, dst).extra_delay = delay

    def partition(self, group_a: list[str], group_b: list[str]) -> None:
        """Cut bidirectional connectivity between two groups of nodes."""
        for a in group_a:
            for b in group_b:
                self._partitions.add(frozenset((a, b)))

    def heal(self) -> None:
        """Remove all partitions."""
        self._partitions.clear()

    def is_partitioned(self, a: str, b: str) -> bool:
        """Whether a message between ``a`` and ``b`` would be cut."""
        return frozenset((a, b)) in self._partitions

    @property
    def loss_rate(self) -> float:
        """Current global message-loss rate."""
        return self._global_faults.drop_rate

    @property
    def duplication_rate(self) -> float:
        """Current global duplication rate."""
        return self._global_faults.duplicate_rate

    @property
    def extra_delay(self) -> float:
        """Current global extra per-message delay."""
        return self._global_faults.extra_delay

    def _faults_for(self, src: str, dst: str) -> _LinkFaults:
        if src == "*" and dst == "*":
            return self._global_faults
        key = (src, dst)
        if key not in self._link_faults:
            self._link_faults[key] = _LinkFaults()
        return self._link_faults[key]

    # -- sending ---------------------------------------------------------------

    def send(self, src: str, dst: str, port: str, payload: Any) -> int:
        """Fire-and-forget a message; returns its id.

        Delivery is asynchronous (after sampled latency) and never
        acknowledged at this layer.
        """
        if dst not in self.nodes:
            raise KeyError(f"unknown destination node {dst!r}")
        msg_id = next(self._msg_ids)
        self.stats.sent += 1

        tracer = self.env.tracer
        faults = self._effective_faults(src, dst)
        if self.is_partitioned(src, dst):
            self.stats.dropped_partition += 1
            tracer.event("net.drop", src=src, dst=dst, port=port, reason="partition")
            return msg_id
        if faults.drop_rate > 0 and self._rng.random() < faults.drop_rate:
            self.stats.dropped_loss += 1
            tracer.event("net.drop", src=src, dst=dst, port=port, reason="loss")
            return msg_id

        self._dispatch(src, dst, port, payload, msg_id, faults, duplicate=False)
        if faults.duplicate_rate > 0 and self._rng.random() < faults.duplicate_rate:
            self.stats.duplicated += 1
            self._dispatch(src, dst, port, payload, msg_id, faults, duplicate=True)
        return msg_id

    def send_local(self, node_name: str, port: str, payload: Any) -> int:
        """Loopback delivery: hand ``payload`` straight to a port on
        ``node_name``, skipping latency sampling and fault injection.

        A process talking to itself does not traverse the fabric, so the
        message cannot be lost, duplicated, partitioned, or delayed.  No
        runtime sends this way; ``benchmarks/suite/layers.py`` still counts
        it as a network boundary beside :meth:`send`.  Still counted in
        ``stats`` (sent + delivered, or dropped_dead when the node is down)
        so conservation assertions keep holding.
        """
        node = self.nodes.get(node_name)
        if node is None:
            raise KeyError(f"unknown destination node {node_name!r}")
        msg_id = next(self._msg_ids)
        self.stats.sent += 1
        message = Message(
            msg_id=msg_id,
            src=node_name,
            dst=node_name,
            port=port,
            payload=payload,
            sent_at=self.env.now,
            dst_alive_at_send=node.alive,
        )
        if node.deliver(port, message):
            self.stats.delivered += 1
        else:
            self.stats.dropped_dead += 1
        return msg_id

    def _effective_faults(self, src: str, dst: str) -> _LinkFaults:
        link = self._link_faults.get((src, dst))
        if link is None:
            return self._global_faults
        return _LinkFaults(
            drop_rate=max(link.drop_rate, self._global_faults.drop_rate),
            duplicate_rate=max(link.duplicate_rate, self._global_faults.duplicate_rate),
            extra_delay=link.extra_delay + self._global_faults.extra_delay,
        )

    def _dispatch(
        self,
        src: str,
        dst: str,
        port: str,
        payload: Any,
        msg_id: int,
        faults: _LinkFaults,
        duplicate: bool,
    ) -> None:
        sampler = self._link_latency.get((src, dst), self.default_latency)
        delay = sampler(self._rng) + faults.extra_delay
        if duplicate:
            # A duplicate (retransmission) arrives strictly later.
            delay += sampler(self._rng)
        tracer = self.env.tracer
        span = None
        if tracer.enabled:
            # Detached span: covers the in-flight interval, ended at delivery.
            span = tracer.start(
                "net.msg", src=src, dst=dst, port=port,
                msg_id=msg_id, duplicate=duplicate,
            )
        receiver = self.nodes.get(dst)
        message = Message(
            msg_id=msg_id,
            src=src,
            dst=dst,
            port=port,
            payload=payload,
            sent_at=self.env.now,
            duplicate=duplicate,
            span=span,
            dst_alive_at_send=receiver is not None and receiver.alive,
        )
        self.env.schedule(delay, self._deliver, message)

    def _deliver(self, message: Message) -> None:
        # A partition raised after sending also cuts in-flight messages.
        tracer = self.env.tracer
        if self.is_partitioned(message.src, message.dst):
            self.stats.dropped_partition += 1
            if message.span is not None:
                tracer.end(message.span, outcome="dropped_partition")
            return
        node = self.nodes.get(message.dst)
        if node is None or not node.deliver(message.port, message):
            crash_race = (
                node is not None and not node.alive and message.dst_alive_at_send
            )
            if crash_race:
                self.stats.dropped_crashed_inflight += 1
            else:
                self.stats.dropped_dead += 1
            if message.span is not None:
                tracer.end(
                    message.span,
                    outcome="dropped_crashed_inflight" if crash_race else "dropped_dead",
                )
            return
        self.stats.delivered += 1
        if message.span is not None:
            tracer.end(message.span, outcome="delivered")
