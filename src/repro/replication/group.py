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

A group's size is the number of nodes it is built on.  A group of one
runs the same code, but its replica commits each entry inside
:meth:`Replica.propose` and acknowledges it with the applied index, so
:meth:`start` returns that index and builds no :class:`Proposal`, no ack
future and no :meth:`wait` frame; nor does it scan for the leader, since
its one replica is the only candidate.  A caller takes an ``int`` from
:meth:`start` as the settled result and waits out anything else.  Only
when that replica is down does a proposal stay pending, and :meth:`wait`
retries it like any other.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.net import Network
from repro.replication.errors import (
    NoLeader,
    NotLeader,
    QuorumTimeout,
    ReplicationUncertain,
)
from repro.replication.replica import HEARTBEAT_MS, MAX_STALENESS_MS, Replica
from repro.sim import Environment, any_of

#: client-visible deadline for a quorum-acknowledged commit (virtual ms)
COMMIT_TIMEOUT_MS = 250.0
#: how long a client waits for a leader to emerge before NoLeader
LEADER_WAIT_MS = 200.0


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
    """A command :meth:`ReplicaGroup.start` proposed that did not commit
    as it was proposed, and that nobody has yet waited out: the
    acknowledgement of its latest attempt (``None`` while no leader could
    take it), the replica that attempt went to, and the deadline fixed
    when it started."""

    __slots__ = ("command", "replica", "deadline", "retry", "proposed", "ack")

    def __init__(
        self,
        command: tuple[Any, ...],
        replica: Optional[Replica],
        deadline: float,
        retry: bool,
        ack: Any,
    ) -> None:
        self.command = command
        self.replica = replica
        self.deadline = deadline
        self.retry = retry
        self.proposed = ack is not None
        self.ack = ack


class ReplicaGroup:
    #: the class every member is built from
    replica_class = Replica

    def __init__(
        self,
        env: Environment,
        net: Network,
        name: str,
        engine_factory: Callable[[str], Any],
        node_names: list[str],
        service: Optional[str] = None,
        start_index: int = 0,
    ) -> None:
        if len(set(node_names)) != len(node_names):
            raise ValueError(f"group {name} members must be distinct nodes")
        self.env = env
        self.net = net
        self.name = name
        self.service = service or name
        self.node_names = list(node_names)
        #: called with the node name of every replica that takes the lead
        self.on_leader: Optional[Callable[[str], None]] = None
        self.replicas: list[Replica] = []
        for node_name in self.node_names:
            node = net.nodes.get(node_name)
            if node is None:
                node = net.add_node(node_name)
            engine = engine_factory(node_name)
            self.replicas.append(
                self.replica_class(
                    env, net, node, engine,
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
        #: a group of one's replica: the only one that can ever lead it,
        #: so finding its leader needs no scan
        self._only = self.replicas[0] if len(self.replicas) == 1 else None

    # -- leadership ----------------------------------------------------------

    def _leader_changed(self, replica: Replica) -> None:
        if self.on_leader is not None:
            self.on_leader(replica.node.name)

    def leader_replica(self) -> Optional[Replica]:
        """The live replica currently claiming leadership.

        With a stale (unfenced) leader still claiming an old term,
        the highest term wins — clients follow the most recent claimant.
        A group of one has a single candidate, so it needs no scan.
        """
        only = self._only
        if only is not None:
            return only if only.role == "leader" and only.node.alive else None
        best = None
        for replica in self.replicas:
            if replica.role == "leader" and replica.node.alive:
                if best is None or replica.term > best.term:
                    best = replica
        return best

    def leader_name(self) -> Optional[str]:
        leader = self.leader_replica()
        return leader.node.name if leader is not None else None

    def wait_leader(self) -> Generator:
        """Poll until a live, :attr:`~Replica.servable` leader claims the
        group; NoLeader after ``LEADER_WAIT_MS``."""
        deadline = self.env.now + LEADER_WAIT_MS
        while True:
            leader = self.leader_replica()
            if leader is not None and leader.servable:
                return leader
            if self.env.now >= deadline:
                raise NoLeader(self.name)
            yield self.env.timeout(HEARTBEAT_MS)

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
    ) -> Generator:
        """Propose ``command`` and await its quorum acknowledgement.

        ``replica`` pins the proposal to one specific leader (the one a
        transaction executed on) — if it was deposed before proposing,
        the caller gets a definite :class:`NotLeader` instead of a
        re-proposal through a different leader's state.  Exactly
        :meth:`start` (never retrying) then, for an entry that did not
        commit as it was proposed, :meth:`wait`.
        """
        proposal = self.start(command, replica)
        if proposal.__class__ is int:
            return proposal
        return (yield from self.wait(proposal))

    def start(
        self,
        command: tuple[Any, ...],
        replica: Optional[Replica] = None,
        timeout: Optional[float] = None,
        retry: bool = False,
    ) -> Any:
        """First half of :meth:`replicate`: propose now, without yielding.

        Returns the applied log index when the entry committed as it was
        proposed — a group of one commits inside :meth:`Replica.propose`
        — and otherwise the pending :class:`Proposal`, whose deadline
        runs from this instant.  A pinned, non-retrying proposal whose
        leader was deposed raises :class:`NotLeader` here, so a caller
        that starts several proposals learns every definite failure
        before it waits.  With no leader to propose through, the proposal
        stays unsent and :meth:`wait` keeps looking for one.  ``retry=True``
        is only safe for idempotent commands (2PC decides): on truncation
        or uncertainty the command is re-proposed through the current
        leader until the deadline.
        """
        # the common case, inline: the pinned replica, or a group of
        # one's, still leads
        target = self._only if replica is None else replica
        if target is None or target.role != "leader" or not target.node.alive:
            target = self._target(replica, retry)
        ack = None if target is None else target.propose(command)
        if ack.__class__ is int:
            return ack
        deadline = self.env.now + (
            timeout if timeout is not None else COMMIT_TIMEOUT_MS
        )
        if ack is None:
            if self.env.now >= deadline:
                raise NoLeader(self.name)
            return Proposal(command, replica, deadline, retry, None)
        return Proposal(command, target, deadline, retry, ack)

    def _target(self, replica: Optional[Replica], retry: bool) -> Optional[Replica]:
        """The leader to propose through: ``replica`` while it leads,
        else — for a proposal free to move — the group's current leader,
        or ``None``.  A pinned, non-retrying proposal whose leader was
        deposed gets :class:`NotLeader`."""
        if replica is not None:
            if replica.role == "leader" and replica.node.alive:
                return replica
            if not retry:
                raise NotLeader(self.name, replica.node.name, replica.leader_hint)
        return self.leader_replica()

    def _propose(self, proposal: Proposal) -> None:
        """Another attempt at a pending proposal: sets ``proposal.ack``,
        or leaves it ``None`` when no leader can take the command now."""
        target = self._target(proposal.replica, proposal.retry)
        if target is None:
            if self.env.now >= proposal.deadline:
                if proposal.proposed:
                    raise ReplicationUncertain(
                        f"{self.name}: proposal outcome unknown (no leader)"
                    )
                raise NoLeader(self.name)
            proposal.ack = None
            return
        proposal.ack = target.propose(proposal.command)
        proposal.proposed = True
        proposal.replica = target

    def wait(self, proposal: Proposal) -> Generator:
        """Second half of :meth:`replicate`: await ``proposal``'s quorum
        acknowledgement, re-proposing a retrying command on truncation or
        uncertainty until its deadline; returns the applied log index.
        An acknowledgement that already landed ``ok`` — a re-attempt a
        group of one committed, or an ack settled inside ``propose`` — is
        taken without an event."""
        while True:
            ack = proposal.ack
            if ack is None:
                yield self.env.timeout(HEARTBEAT_MS)
                self._propose(proposal)
                continue
            if ack.__class__ is int:
                return ack
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
                yield self.env.timeout(HEARTBEAT_MS)
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
    ) -> Generator:
        """Bounded-stale read from a follower, with read-your-writes.

        Refuses service (:class:`NoLeader`) when every follower has been
        out of contact longer than ``MAX_STALENESS_MS``; with a
        ``session``, waits until the follower's applied prefix covers the
        session's highest observed index.
        """
        candidates = self.follower_replicas()
        min_index = session.min_index if session is not None else 0
        for replica in candidates:
            if not replica.node.alive or replica.role == "stopped":
                continue
            if replica.staleness_ms() > MAX_STALENESS_MS:
                continue
            if replica.applied_index < min_index:
                winner = yield any_of(
                    self.env,
                    [
                        replica.wait_applied(min_index),
                        self.env.timeout(MAX_STALENESS_MS, None),
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
        return f"<ReplicaGroup {self.name} leader={leader} x{len(self.replicas)}>"


__all__ = ["Proposal", "ReplicaGroup", "Session"]
