"""A replica group: one shard's replicated log plus its client surface.

The group wires ``factor`` replicas onto (existing or fresh) network
nodes, bootstraps a deterministic initial leader (replica 0 at term 1 —
no startup election, so seeded runs are reproducible), and exposes the
operations the sharded database and the benchmarks need:

- :meth:`replicate` — propose a command and await the quorum ack, or
  its two halves :meth:`start` / :meth:`wait`, so a coordinator can put
  one command in flight on every group before it waits on any;
- :meth:`leader_read` / :meth:`follower_read` — linearizable vs
  bounded-stale reads, the latter honouring read-your-writes via
  :class:`Session` tokens;
- :meth:`wait_leader` / :meth:`leader_replica` — leader discovery;
- :meth:`stop` — retire the group after a migration flips ownership.

A group of one (``ReplicationConfig(factor=1)``) runs the same code: its
replica commits each entry when :meth:`start` proposes it, and
:meth:`wait` takes the acknowledgement without an event.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.net import Network, Node
from repro.replication.config import ReplicationConfig
from repro.replication.errors import (
    NoLeader,
    NotLeader,
    QuorumTimeout,
    ReplicationUncertain,
)
from repro.replication.replica import Replica
from repro.sim import Environment, any_of


class Session:
    """Read-your-writes token: the highest log index this client observed.

    Pass it to :meth:`ReplicaGroup.follower_read` and the follower will
    wait until its applied prefix covers every write the session saw.
    """

    __slots__ = ("min_index",)

    def __init__(self) -> None:
        self.min_index = 0

    def observe(self, index: Optional[int]) -> None:
        if index is not None and index > self.min_index:
            self.min_index = index


class Proposal:
    """A command :meth:`ReplicaGroup.start` proposed and nobody has yet
    waited out: the ack future of its latest attempt (``None`` while no
    leader could take it), the replica that attempt went to, and the
    deadline fixed when it started."""

    __slots__ = (
        "command", "replica", "pinned", "deadline", "retry", "proposed", "ack",
    )

    def __init__(
        self,
        command: tuple[Any, ...],
        replica: Optional[Replica],
        deadline: float,
        retry: bool,
    ) -> None:
        self.command = command
        self.replica = replica
        self.pinned = replica is not None
        self.deadline = deadline
        self.retry = retry
        self.proposed = False
        self.ack: Any = None


class ReplicaGroup:
    #: the class every member is built from
    replica_class = Replica

    def __init__(
        self,
        env: Environment,
        net: Network,
        name: str,
        config: ReplicationConfig,
        engine_factory: Callable[[str], Any],
        node_names: list[str],
        service: Optional[str] = None,
        on_leader: Optional[Callable[[str], None]] = None,
        start_index: int = 0,
    ) -> None:
        if len(node_names) != config.factor:
            raise ValueError(
                f"group {name} needs {config.factor} nodes, got {len(node_names)}"
            )
        if len(set(node_names)) != len(node_names):
            raise ValueError(f"group {name} members must be distinct nodes")
        self.env = env
        self.net = net
        self.name = name
        self.config = config
        self.service = service or name
        self.node_names = list(node_names)
        self._on_leader_ext = on_leader
        self.replicas: list[Replica] = []
        for node_name in self.node_names:
            node = net.nodes.get(node_name)
            if node is None:
                node = net.add_node(node_name)
            engine = engine_factory(node_name)
            self.replicas.append(
                self.replica_class(
                    env, net, node, engine, config,
                    peers=[n for n in self.node_names if n != node_name],
                    service=self.service,
                    group_label=name,
                    on_leader=self._leader_changed,
                )
            )
        # Deterministic bootstrap: replica 0 leads term 1, everyone has
        # already "voted" for it — no startup election to randomize runs.
        for replica in self.replicas:
            if replica is not self.replicas[0]:
                replica.bootstrap(self.node_names[0], start_index=start_index)
        self.replicas[0].bootstrap(self.node_names[0], start_index=start_index)

    # -- leadership ----------------------------------------------------------

    def _leader_changed(self, replica: Replica) -> None:
        if self._on_leader_ext is not None:
            self._on_leader_ext(replica.node.name)

    def leader_replica(self) -> Optional[Replica]:
        """The live replica currently claiming leadership.

        With a stale (unfenced) leader still claiming an old term,
        the highest term wins — clients follow the most recent claimant.
        """
        best = None
        for replica in self.replicas:
            if replica.role == "leader" and replica.node.alive:
                if best is None or replica.term > best.term:
                    best = replica
        return best

    def leader_name(self) -> Optional[str]:
        leader = self.leader_replica()
        return leader.node.name if leader is not None else None

    def wait_leader(self, timeout: Optional[float] = None) -> Generator:
        """Poll until a live, :attr:`~Replica.servable` leader claims the
        group; NoLeader on timeout."""
        deadline = self.env.now + (
            timeout if timeout is not None else self.config.leader_wait_ms
        )
        while True:
            leader = self.leader_replica()
            if leader is not None and leader.servable:
                return leader
            if self.env.now >= deadline:
                raise NoLeader(self.name)
            yield self.env.timeout(self.config.heartbeat_ms)

    def replica_on(self, node_name: str) -> Replica:
        for replica in self.replicas:
            if replica.node.name == node_name:
                return replica
        raise KeyError(f"{self.name} has no replica on {node_name}")

    def follower_replicas(self) -> list[Replica]:
        leader = self.leader_replica()
        return [
            replica for replica in self.replicas
            if replica is not leader and replica.node.alive
            and replica.role != "stopped"
        ]

    # -- writes --------------------------------------------------------------

    def replicate(
        self,
        command: tuple[Any, ...],
        replica: Optional[Replica] = None,
        timeout: Optional[float] = None,
        retry: bool = False,
    ) -> Generator:
        """Propose ``command`` and await its quorum acknowledgement.

        ``replica`` pins the proposal to one specific leader (the one a
        transaction executed on) — if it was deposed before proposing,
        the caller gets a definite :class:`NotLeader` instead of a
        re-proposal through a different leader's state.  ``retry=True``
        is only safe for idempotent commands (2PC decides): on truncation
        or uncertainty the command is re-proposed through the current
        leader until the deadline.  Exactly :meth:`start` then
        :meth:`wait`.
        """
        return (yield from self.wait(self.start(command, replica, timeout, retry)))

    def start(
        self,
        command: tuple[Any, ...],
        replica: Optional[Replica] = None,
        timeout: Optional[float] = None,
        retry: bool = False,
    ) -> Proposal:
        """First half of :meth:`replicate`: propose now, without yielding.

        Returns the pending :class:`Proposal`; its deadline runs from
        this instant.  A pinned, non-retrying proposal whose leader was
        deposed raises :class:`NotLeader` here, so a caller that starts
        several proposals learns every definite failure before it waits.
        With no leader to propose through, the proposal stays unsent and
        :meth:`wait` keeps looking for one.
        """
        proposal = Proposal(
            command,
            replica,
            self.env.now + (
                timeout if timeout is not None else self.config.commit_timeout_ms
            ),
            retry,
        )
        self._propose(proposal)
        return proposal

    def _propose(self, proposal: Proposal) -> None:
        """One synchronous attempt: sets ``proposal.ack``, or leaves it
        ``None`` when no leader can take the command right now."""
        while True:
            target = proposal.replica
            if target is not None and (
                target.role != "leader" or not target.node.alive
            ):
                if proposal.pinned and not proposal.retry:
                    raise NotLeader(self.name, target.node.name, target.leader_hint)
                target = None
            if target is None:
                target = self.leader_replica()
            if target is None:
                if self.env.now >= proposal.deadline:
                    if proposal.proposed:
                        raise ReplicationUncertain(
                            f"{self.name}: proposal outcome unknown (no leader)"
                        )
                    raise NoLeader(self.name)
                proposal.ack = None
                return
            try:
                proposal.ack = target.propose(proposal.command)
            except NotLeader:
                if proposal.pinned and not proposal.retry:
                    raise
                proposal.replica = None
                continue
            proposal.proposed = True
            proposal.replica = target
            return

    def wait(self, proposal: Proposal) -> Generator:
        """Second half of :meth:`replicate`: await ``proposal``'s quorum
        acknowledgement, re-proposing a retrying command on truncation or
        uncertainty until its deadline; returns the applied log index.
        An ack that already landed ``ok`` (a group of one commits at
        :meth:`start`) is taken without an event."""
        while True:
            ack = proposal.ack
            if ack is None:
                yield self.env.timeout(self.config.heartbeat_ms)
                self._propose(proposal)
                continue
            if ack._done and ack._value[0] == "ok":
                return ack._value[1]
            target = proposal.replica
            remaining = proposal.deadline - self.env.now
            if remaining <= 0:
                raise QuorumTimeout(self.name, target.log.last_index)
            winner = yield any_of(
                self.env, [ack, self.env.timeout(remaining, "timeout")]
            )
            if winner[0] == 1:
                raise QuorumTimeout(self.name, target.log.last_index)
            status, value = winner[1]
            if status == "ok":
                return value
            if proposal.retry and isinstance(value, ReplicationUncertain):
                proposal.replica = None
                if self.env.now >= proposal.deadline:
                    raise value
                yield self.env.timeout(self.config.heartbeat_ms)
                self._propose(proposal)
                continue
            raise value

    # -- reads ---------------------------------------------------------------

    def leader_read(self, table: str, key: Any) -> Generator:
        """Linearizable read: leader state behind a read-index barrier."""
        leader = yield from self.wait_leader()
        yield from leader.confirm_leadership()
        return leader.engine.read_latest(table, key)

    def follower_read(
        self,
        table: str,
        key: Any,
        session: Optional[Session] = None,
        node: Optional[str] = None,
    ) -> Generator:
        """Bounded-stale read from a follower, with read-your-writes.

        Refuses service (:class:`NoLeader`) when every follower has been
        out of contact longer than ``max_staleness_ms``; with a
        ``session``, waits until the follower's applied prefix covers the
        session's highest observed index.
        """
        candidates = (
            [self.replica_on(node)] if node is not None
            else self.follower_replicas()
        )
        min_index = session.min_index if session is not None else 0
        for replica in candidates:
            if not replica.node.alive or replica.role == "stopped":
                continue
            if replica.staleness_ms() > self.config.max_staleness_ms:
                continue
            if replica.applied_index < min_index:
                winner = yield any_of(
                    self.env,
                    [
                        replica.wait_applied(min_index),
                        self.env.timeout(self.config.max_staleness_ms, None),
                    ],
                )
                if winner[1] is None or replica.applied_index < min_index:
                    continue
            return replica.engine.read_latest(table, key)
        raise NoLeader(self.name)

    # -- lifecycle -----------------------------------------------------------

    def quiescent(self) -> bool:
        """Is the log fully applied with no outstanding acknowledgements?"""
        leader = self.leader_replica()
        if leader is None:
            return False
        return (
            leader.applied_index == leader.log.last_index
            and not leader._acks
            and not leader.engine.in_doubt()
        )

    def stop(self) -> None:
        for replica in self.replicas:
            replica.stop()

    def engines(self) -> list[Any]:
        return [replica.engine for replica in self.replicas]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        leader = self.leader_name()
        return f"<ReplicaGroup {self.name} leader={leader} x{self.config.factor}>"


__all__ = ["Proposal", "ReplicaGroup", "Session"]
