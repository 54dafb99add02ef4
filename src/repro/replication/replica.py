"""One member of a per-shard replicated log (Raft-style).

Each :class:`Replica` lives on a :class:`repro.net.Node`, owns a local
:class:`repro.db.Database` engine, and speaks three RPCs over
:mod:`repro.messaging.rpc`: ``vote`` (RequestVote), ``append``
(AppendEntries / heartbeats) and ``snapshot`` (InstallSnapshot), plus a
``read`` RPC for networked consistency-level reads.

The durability model matches the rest of the simulator: ``term``,
``voted_for``, the log and ``applied_index`` are *persistent* attributes
(they survive :meth:`Node.crash`), while the engine's volatile state is
wiped and rebuilt from its WAL — which, on a replicated shard, contains
exactly the applied log prefix, because every apply writes and fsyncs
WAL records synchronously.

Fencing (the tentpole safety rule): a replica's ``term`` is its
fencing token.  When a committed entry applies, the replica settles the
entry's acknowledgement in one place (:meth:`Replica._settle`), right
after the engine installed it: an entry *proposed* under a term below
the replica's current one is refused (:class:`FencedOut`), so a deposed
leader never acknowledges writes proposed under its old leadership,
even though the entry itself (being committed) still installs.  The
engine knows nothing of terms.  The mutant ``replication.unfenced``
(:mod:`repro.chaos.mutants`) overrides the check (:meth:`Replica._fenced`),
the term rule and the commit rule: its leader acks after a purely local
apply and ignores higher terms — the intentionally broken variant the
chaos oracles must catch losing acknowledged writes.

The protocol's timing and sizing are the module constants below; a
group's size, and so its quorum, is its membership.

A replica with no peers (a group of one, the sharded database's default
shard) is its own quorum.  It arms no election timer and starts no
replicate loop, both of which exist to talk to peers, so it schedules
nothing while idle.  :meth:`Replica.propose` commits and applies its
entry with one engine call before returning and keeps no log suffix,
since no peer will ask for one.  It builds no acknowledgement future
either: under its own term nothing can refuse the entry, so it returns
the applied index itself.  A restart recovers the engine from its WAL
and leads the next term without an election.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.db.engine import Database
from repro.db.errors import FencedOut
from repro.messaging.rpc import RpcClient, RpcError, RpcServer
from repro.net import Network, Node
from repro.replication.errors import (
    NotLeader,
    ReplicationUncertain,
)
from repro.replication.log import LogEntry, ReplicatedLog
from repro.sim import Environment, Future, Interrupted, any_of

# All durations are virtual milliseconds.  The values follow the usual
# Raft guidance (heartbeats well below the election timeout span,
# randomized timeouts to break split votes), scaled to the simulator's
# intra-zone RTTs.

#: leader -> follower AppendEntries cadence when idle
HEARTBEAT_MS = 15.0
#: randomized follower election timeout span (uniform per arming)
ELECTION_TIMEOUT = (60.0, 120.0)
#: per-RPC timeout for vote/append/snapshot rounds
RPC_TIMEOUT_MS = 30.0
#: max log entries per AppendEntries batch
MAX_APPEND_BATCH = 32
#: compact the log once it holds more than this many entries ...
COMPACT_THRESHOLD = 256
#: ... keeping at least this many trailing entries for cheap catch-up
COMPACT_KEEP = 32
#: follower reads refuse service if the leader has been silent longer
MAX_STALENESS_MS = 200.0
#: simulated fsync charge for appending entries to the replicated log
LOG_FSYNC_MS = 0.5
#: simulated charge for installing a full snapshot on a follower
SNAPSHOT_INSTALL_MS = 2.0

#: reply hint meaning "my log diverged below my applied prefix — only a
#: full snapshot can repair me" (an unfenced leader's damage or deep
#: compaction)
NEED_SNAPSHOT = -1


class Replica:
    """A single replica: engine + log + role state machine."""

    def __init__(
        self,
        env: Environment,
        net: Network,
        node: Node,
        engine: Database,
        peers: list[str],
        service: str,
        group_label: str = "group",
        on_leader: Optional[Any] = None,
    ) -> None:
        self.env = env
        self.net = net
        self.node = node
        self.engine = engine
        self.peers = list(peers)  # stable order: election + sync determinism
        #: a majority of the group: this replica and its peers
        self.quorum = (len(self.peers) + 1) // 2 + 1
        self.service = service
        self.group_label = group_label
        self._ack_label = f"{service}:ack"
        self._on_leader_cb = on_leader

        # -- persistent state (survives node crashes) --
        self.term = 0
        self.voted_for: Optional[str] = None
        self.log = ReplicatedLog()
        self.applied_index = 0

        # -- volatile state (rebuilt on restart) --
        self.role = "follower"  # follower | candidate | leader | stopped
        self.commit_index = 0
        self.leader_hint: Optional[str] = None
        self._next: dict[str, int] = {}
        self._match: dict[str, int] = {}
        self._acks: dict[int, Any] = {}
        self._inflight: set[str] = set()
        self._peer_needs_snapshot: set[str] = set()
        self._last_contact = env.now
        self._wake: Optional[Any] = None
        self._needs_repair = False
        self._applied_waiters: list[tuple[int, Any]] = []
        #: last log index before this leader's term-start no-op
        self._serve_from = 0

        self._rng = env.stream(f"repl:{service}:{node.name}")
        self.server = RpcServer(net, node, service=service)
        self.server.register("vote", self._on_vote)
        self.server.register("append", self._on_append)
        self.server.register("snapshot", self._on_snapshot)
        self.server.register("read", self._on_read)
        self.client = RpcClient(net, node, service=service)
        self.node.on_crash(lambda _node: self._on_crash())
        self.node.on_restart(lambda _node: self._on_restart())
        self._start()

    # -- lifecycle -----------------------------------------------------------

    def _start(self) -> None:
        """Arm the election timer.  A replica with no peers has none:
        nobody else can lead, and nobody can depose it."""
        if self.node.alive and self.peers:
            self.node.spawn(
                self._timer_loop(), label=f"{self.service}:{self.node.name}.timer"
            )

    def _on_crash(self) -> None:
        """Mirror the node's fate into the engine and pending acks."""
        self.engine.crash()
        self.role = "follower"
        self.leader_hint = None
        self._inflight.clear()
        self._wake = None
        acks, self._acks = self._acks, {}
        for index, ack in acks.items():
            ack.try_succeed(
                ("err", ReplicationUncertain(
                    f"{self.group_label} leader {self.node.name} crashed "
                    f"before log index {index} was acknowledged"
                ))
            )
        waiters, self._applied_waiters = self._applied_waiters, []
        for _min_index, waiter in waiters:
            waiter.try_succeed(None)

    def _on_restart(self) -> None:
        """Durable state is back; volatile state rebuilds from it."""
        self.engine.recover()
        self.role = "follower"
        self.commit_index = self.applied_index
        self.leader_hint = None
        self._inflight.clear()
        self._peer_needs_snapshot.clear()
        self._needs_repair = False
        self._last_contact = self.env.now
        if self.peers:
            self._start()
        else:
            # Nobody else can lead or vote: a replica of one leads the
            # next term as soon as its WAL is recovered.
            self._stand()
            self._become_leader()

    def stop(self) -> None:
        """Retire this replica (group migrated away); refuses all traffic."""
        self.role = "stopped"
        acks, self._acks = self._acks, {}
        for index, ack in acks.items():
            ack.try_succeed(
                ("err", ReplicationUncertain(
                    f"{self.group_label} retired before index {index} acked"
                ))
            )

    # -- bootstrap (deterministic initial leadership) ------------------------

    def bootstrap(self, leader: str, start_index: int = 0) -> None:
        """Install the agreed initial leader of term 1 without an election."""
        self.term = 1
        self.voted_for = leader
        if start_index:
            self.log.reset(start_index, 0)
            self.applied_index = start_index
            self.commit_index = start_index
        if leader == self.node.name:
            self._become_leader()

    # -- role transitions ----------------------------------------------------

    def _observe_term(self, term: int) -> None:
        if term <= self.term:
            return
        self.term = term
        self.voted_for = None
        if self.role != "stopped":
            self.role = "follower"

    def _become_leader(self) -> None:
        self.role = "leader"
        self.leader_hint = self.node.name
        for peer in self.peers:
            self._next[peer] = self.log.last_index + 1
            self._match[peer] = 0
        self._inflight.clear()
        self._peer_needs_snapshot.clear()
        # A no-op entry at term start: once it commits, every earlier-term
        # entry in this log is committed too (Raft's current-term rule).
        self._serve_from = self.log.last_index
        self.log.append(self.term, ("noop",))
        self._advance_commit()
        if not self.peers:
            # nobody will ask for the no-op either: the log of a replica of
            # one is only ever its snapshot floor (see propose)
            self.log.compact(self.applied_index)
        if self._on_leader_cb is not None:
            self._on_leader_cb(self)
        if self.peers and self.node.alive:
            self.node.spawn(
                self._replicate_loop(self.term),
                label=f"{self.service}:{self.node.name}.lead-t{self.term}",
            )

    @property
    def servable(self) -> bool:
        """A leader whose engine has applied every earlier-term entry.

        Until then its engine may miss writes a previous leader committed,
        so a transaction run on it could read them stale and overwrite
        them.  At bootstrap (and after a migration) the log is fully
        applied, so a new group's leader is servable at once.
        """
        return self.role == "leader" and self.applied_index >= self._serve_from

    # -- elections -----------------------------------------------------------

    def _timer_loop(self) -> Generator:
        lo, hi = ELECTION_TIMEOUT
        while self.role != "stopped":
            span = self._rng.uniform(lo, hi)
            deadline = self.env.now + span
            while deadline > self.env.now:
                yield self.env.timeout(deadline - self.env.now)
                # Leader contact moves the deadline to ``span`` after it.
                deadline = max(deadline, self._last_contact + span)
            if self.role == "stopped":
                return
            if self.role == "leader" or not self.node.alive:
                continue
            yield from self._election()

    def force_election(self) -> None:
        """White-box hook: start an election round right now (tests)."""
        if self.node.alive and self.role != "stopped":
            self.node.spawn(
                self._election(),
                label=f"{self.service}:{self.node.name}.forced-election",
            )

    def _stand(self) -> int:
        """Open the next term as a candidate voting for itself."""
        self.term += 1
        self.role = "candidate"
        self.voted_for = self.node.name
        return self.term

    def _election(self) -> Generator:
        term = self._stand()
        quorum = self.quorum
        tally = {"granted": 1}
        done = self.env.future(label=f"{self.service}:election-t{term}")
        if tally["granted"] >= quorum:
            done.try_succeed(True)  # factor-1 group: self-vote is a majority
        for peer in self.peers:
            self.node.spawn(
                self._solicit(peer, term, tally, done, quorum),
                label=f"{self.service}:{self.node.name}.vote-req",
            )
        lo, _hi = ELECTION_TIMEOUT
        yield any_of(self.env, [done, self.env.timeout(lo)])
        if self.term != term or self.role != "candidate":
            return  # a newer term or a leader's append intervened
        if tally["granted"] >= quorum:
            self._become_leader()

    def _solicit(self, peer: str, term: int, tally: dict, done: Any, quorum: int) -> Generator:
        payload = (term, self.node.name, self.log.last_index, self.log.last_term)
        try:
            reply = yield from self.client.call(
                peer, "vote", payload,
                timeout=RPC_TIMEOUT_MS, retries=0,
            )
        except (RpcError, Interrupted):
            return
        if self.term != term:
            return
        reply_term, granted = reply
        if reply_term > self.term:
            self._observe_term(reply_term)
            done.try_succeed(False)
            return
        if granted:
            tally["granted"] += 1
            if tally["granted"] >= quorum:
                done.try_succeed(True)

    def _on_vote(self, payload: Any) -> Generator:
        term, candidate, last_index, last_term = payload
        if self.role == "stopped":
            return (self.term, False)
        self._observe_term(term)
        granted = False
        if (
            term == self.term
            and self.role != "leader"
            and self.voted_for in (None, candidate)
            and (last_term, last_index) >= (self.log.last_term, self.log.last_index)
        ):
            granted = True
            self.voted_for = candidate
            self._last_contact = self.env.now
        return (self.term, granted)
        yield  # pragma: no cover - generator protocol only

    # -- log replication (leader side) ---------------------------------------

    def _nudge(self) -> None:
        wake = self._wake
        if wake is not None:
            self._wake = None
            wake.try_succeed(None)

    def _replicate_loop(self, term: int) -> Generator:
        wake = None
        try:
            while (
                self.role == "leader" and self.term == term and self.node.alive
            ):
                for peer in self.peers:
                    if peer not in self._inflight:
                        self._inflight.add(peer)
                        self.node.spawn(
                            self._sync_peer(peer, term),
                            label=f"{self.service}:{self.node.name}.sync:{peer}",
                        )
                wake = self.env.future(label=f"{self.service}:lead-wake")
                self._wake = wake
                yield any_of(
                    self.env, [wake, self.env.timeout(HEARTBEAT_MS)]
                )
        except Interrupted:
            return
        finally:
            if self._wake is wake:  # don't clobber a successor loop's wake
                self._wake = None

    def _sync_peer(self, peer: str, term: int) -> Generator:
        try:
            while self.role == "leader" and self.term == term:
                if (
                    peer in self._peer_needs_snapshot
                    or self._next[peer] <= self.log.snapshot_index
                ):
                    yield from self._send_snapshot(peer, term)
                    return
                next_index = self._next[peer]
                prev = next_index - 1
                prev_term = self.log.term_at(prev)
                if prev_term is None:
                    self._peer_needs_snapshot.add(peer)
                    continue
                entries = self.log.slice_from(next_index, MAX_APPEND_BATCH)
                payload = (
                    term, self.node.name, prev, prev_term,
                    [(e.term, e.index, e.command) for e in entries],
                    self.commit_index,
                )
                try:
                    reply = yield from self.client.call(
                        peer, "append", payload,
                        timeout=RPC_TIMEOUT_MS, retries=0,
                    )
                except RpcError:
                    return  # retried by the next heartbeat round
                reply_term, ok, hint = reply
                if reply_term > self.term:
                    self._observe_term(reply_term)
                    return
                if self.role != "leader" or self.term != term:
                    return
                if ok:
                    matched = entries[-1].index if entries else prev
                    if matched > self._match[peer]:
                        self._match[peer] = matched
                    self._next[peer] = matched + 1
                    self._advance_commit()
                    if self._next[peer] > self.log.last_index:
                        return  # caught up; next heartbeat takes over
                elif hint == NEED_SNAPSHOT:
                    self._peer_needs_snapshot.add(peer)
                elif reply_term < term:
                    return  # a stale (unfenced) replica refusing the new term
                else:
                    self._next[peer] = max(1, min(hint + 1, next_index - 1))
        except Interrupted:
            return
        finally:
            self._inflight.discard(peer)

    def _advance_commit(self) -> None:
        if self.role != "leader":
            return
        matches = sorted(
            [self.log.last_index] + [self._match[p] for p in self.peers]
        )
        index = matches[len(matches) - self.quorum]
        if index <= self.commit_index:
            return
        # Only entries from the current term commit by counting replicas;
        # earlier terms ride along once a current-term entry commits.
        if self.log.term_at(index) != self.term:
            return
        self.commit_index = index
        self._apply_committed()
        self._nudge()  # propagate the new commit index promptly

    def _send_snapshot(self, peer: str, term: int) -> Generator:
        payload = (
            term,
            self.node.name,
            self.applied_index,
            self.log.term_at(self.applied_index),
            self.engine.image(),
            self.commit_index,
        )
        try:
            reply = yield from self.client.call(
                peer, "snapshot", payload,
                timeout=RPC_TIMEOUT_MS + SNAPSHOT_INSTALL_MS,
                retries=0,
            )
        except RpcError:
            return
        reply_term, ok, installed = reply
        if reply_term > self.term:
            self._observe_term(reply_term)
            return
        if self.role != "leader" or self.term != term:
            return
        if ok:
            self._peer_needs_snapshot.discard(peer)
            if installed > self._match[peer]:
                self._match[peer] = installed
            self._next[peer] = installed + 1
            self._advance_commit()

    # -- log replication (follower side) -------------------------------------

    def _on_append(self, payload: Any) -> Generator:
        term, leader, prev, prev_term, entries, leader_commit = payload
        if self.role == "stopped":
            return (self.term, False, 0)
        self._observe_term(term)
        if term != self.term:
            # Stale leader's append (term < ours), or — in the unfenced
            # mutant — we are a deposed leader refusing the new term.
            return (self.term, False, self.log.last_index)
        if self.role == "candidate":
            self.role = "follower"
        self.leader_hint = leader
        self._last_contact = self.env.now
        if prev < self.log.snapshot_index:
            # Entries at or below the compaction floor are committed and
            # identical everywhere; fast-forward past them.
            drop = self.log.snapshot_index - prev
            entries = entries[drop:]
            prev = self.log.snapshot_index
            prev_term = self.log.snapshot_term
        local_prev_term = self.log.term_at(prev)
        if local_prev_term is None or local_prev_term != prev_term:
            return (self.term, False, min(self.log.last_index, prev - 1))
        appended = 0
        for entry_term, entry_index, command in entries:
            existing = self.log.term_at(entry_index)
            if existing == entry_term:
                continue
            if existing is not None:
                if entry_index <= self.applied_index:
                    # The conflicting suffix was already applied locally —
                    # only possible when an unfenced leader acked unreplicated
                    # writes.  The log alone cannot repair the engine;
                    # request a full snapshot resync.
                    self._needs_repair = True
                    return (self.term, False, NEED_SNAPSHOT)
                removed = self.log.truncate_from(entry_index)
                self._discard_entries(removed)
            self.log.append_entry(LogEntry(entry_term, entry_index, command))
            appended += 1
        if appended:
            yield self.env.timeout(LOG_FSYNC_MS)
        new_commit = min(leader_commit, self.log.last_index)
        if new_commit > self.commit_index:
            self.commit_index = new_commit
            self._apply_committed()
        return (self.term, True, self.log.last_index)

    def _discard_entries(self, removed: list[LogEntry]) -> None:
        """Entries truncated by a new leader definitely never committed."""
        for entry in removed:
            ack = self._acks.pop(entry.index, None)
            if ack is not None:
                ack.try_succeed(
                    ("err", ReplicationUncertain(
                        f"{self.group_label} log index {entry.index} was "
                        "truncated by a newer leader"
                    ))
                )
            kind = entry.command[0]
            if kind in ("commit", "prepare"):
                self.engine.discard_replicated(entry.command[1])

    def _on_snapshot(self, payload: Any) -> Generator:
        term, leader, last_index, last_term, snapshot, _leader_commit = payload
        if self.role == "stopped":
            return (self.term, False, 0)
        self._observe_term(term)
        if term != self.term:
            return (self.term, False, 0)
        if self.role == "candidate":
            self.role = "follower"
        self.leader_hint = leader
        self._last_contact = self.env.now
        if last_index <= self.applied_index and not self._needs_repair:
            return (self.term, True, self.applied_index)
        yield self.env.timeout(SNAPSHOT_INSTALL_MS)
        self.engine.install_snapshot(snapshot)
        self.log.reset(last_index, last_term)
        self.applied_index = last_index
        self.commit_index = last_index
        self._needs_repair = False
        acks, self._acks = self._acks, {}
        for index, ack in acks.items():
            ack.try_succeed(
                ("err", ReplicationUncertain(
                    f"{self.group_label} resynced from snapshot over "
                    f"unacknowledged index {index}"
                ))
            )
        self._notify_applied()
        return (self.term, True, last_index)

    # -- proposing and applying ----------------------------------------------

    def propose(self, command: tuple[Any, ...]) -> Any:
        """Append a command to the log; returns its acknowledgement.

        With peers, that is a future resolving with ``("ok", index)`` once
        the entry is committed and applied here (:meth:`_settle`), or
        with ``("err", exc)`` — :class:`FencedOut` (this replica left the
        proposing term first), truncation, crash.  A replica with no peers
        is its own quorum: the entry commits and applies before this
        returns, under its own term, so nothing can refuse it, and the
        acknowledgement is the applied log index itself.
        Synchronous, so the caller observes the assigned index atomically.
        """
        if self.role != "leader" or not self.node.alive:
            raise NotLeader(self.group_label, self.node.name, self.leader_hint)
        log = self.log
        if not self.peers:
            # No peer will ever ask for the entry, so it folds straight
            # into the snapshot floor, which is all this log ever holds
            # (the engine's WAL has the entry).
            self.engine.apply_replicated(command)
            index = log.snapshot_index + 1
            log.snapshot_index = self.commit_index = self.applied_index = index
            log.snapshot_term = self.term
            if self._applied_waiters:
                self._notify_applied()
            return index
        ack = Future(self.env, self._ack_label)
        self._acks[log.append(self.term, command)] = ack
        self._advance_commit()
        self._nudge()
        return ack

    def _apply_committed(self) -> None:
        log, engine = self.log, self.engine
        while self.applied_index < self.commit_index:
            index = self.applied_index + 1
            token, _index, command = log.entries[index - log.snapshot_index - 1]
            if command[0] != "noop":
                engine.apply_replicated(command)
            ack = self._acks.pop(index, None)
            if ack is not None:
                self._settle(ack, token, index, command)
            self.applied_index = index
        self._notify_applied()
        self._maybe_compact()

    def _fenced(self, token: int) -> bool:
        """Was an entry proposed under ``token`` proposed by a leader this
        replica has since seen deposed?"""
        return token < self.term

    def _settle(self, ack: Any, token: int, index: int, command: tuple) -> None:
        """Acknowledge the applied entry at ``index``, proposed under term
        ``token``: refused when the proposing leadership is over — the
        entry installed, but its proposer never learned that it would."""
        if not self._fenced(token):
            ack.try_succeed(("ok", index))
        else:
            ack.try_succeed(("err", FencedOut(command[1], token, self.term)))

    def _notify_applied(self) -> None:
        if not self._applied_waiters:
            return
        still_waiting = []
        for min_index, waiter in self._applied_waiters:
            if self.applied_index >= min_index:
                waiter.try_succeed(self.applied_index)
            else:
                still_waiting.append((min_index, waiter))
        self._applied_waiters = still_waiting

    def wait_applied(self, min_index: int) -> Any:
        """Future resolving once ``applied_index >= min_index``."""
        waiter = self.env.future(label=f"{self.service}:applied>={min_index}")
        if self.applied_index >= min_index:
            waiter.try_succeed(self.applied_index)
        else:
            self._applied_waiters.append((min_index, waiter))
        return waiter

    def _maybe_compact(self) -> None:
        if len(self.log.entries) <= COMPACT_THRESHOLD:
            return
        upto = min(self.applied_index, self.log.last_index - COMPACT_KEEP)
        if upto > self.log.snapshot_index:
            self.log.compact(upto)

    # -- reads ---------------------------------------------------------------

    def confirm_leadership(self) -> Generator:
        """Read-index barrier: prove leadership with one quorum round.

        This round trip is the irreducible cost of a linearizable read —
        the latency floor the C16 bench measures ("Distributed
        Transactional Systems Cannot Be Fast").
        """
        if self.role != "leader" or not self.node.alive:
            raise NotLeader(self.group_label, self.node.name, self.leader_hint)
        if not self.peers:
            return
        term = self.term
        quorum = self.quorum
        tally = {"acked": 1}
        done = self.env.future(label=f"{self.service}:read-index")
        for peer in self.peers:
            self.node.spawn(
                self._confirm_one(peer, term, tally, done, quorum),
                label=f"{self.service}:{self.node.name}.read-confirm",
            )
        winner = yield any_of(
            self.env,
            [done, self.env.timeout(RPC_TIMEOUT_MS * 2, "timeout")],
        )
        if winner[0] == 1 or self.role != "leader" or self.term != term:
            raise NotLeader(self.group_label, self.node.name, self.leader_hint)

    def _confirm_one(self, peer: str, term: int, tally: dict, done: Any, quorum: int) -> Generator:
        prev = self.log.last_index
        prev_term = self.log.term_at(prev)
        if prev_term is None:
            prev = self.log.snapshot_index
            prev_term = self.log.snapshot_term
        payload = (term, self.node.name, prev, prev_term, [], self.commit_index)
        try:
            reply = yield from self.client.call(
                peer, "append", payload,
                timeout=RPC_TIMEOUT_MS, retries=0,
            )
        except (RpcError, Interrupted):
            return
        reply_term, ok, _hint = reply
        if reply_term > self.term:
            self._observe_term(reply_term)
            return
        if self.term == term and (ok or reply_term == term):
            # Any same-term reply proves the peer still recognizes this
            # leadership (a nack only means its log needs backfill).
            tally["acked"] += 1
            if tally["acked"] >= quorum:
                done.try_succeed(True)

    def staleness_ms(self) -> float:
        """Virtual ms since this replica last heard from a leader."""
        if self.role == "leader":
            return 0.0
        return self.env.now - self._last_contact

    def _on_read(self, payload: Any) -> Generator:
        """Networked read at an explicit consistency level (C16 bench)."""
        table, key, level, min_index = payload
        if level == "leader":
            yield from self.confirm_leadership()
        else:
            if self.staleness_ms() > MAX_STALENESS_MS:
                raise NotLeader(self.group_label, self.node.name, self.leader_hint)
            if min_index and self.applied_index < min_index:
                yield self.wait_applied(min_index)
        return (self.applied_index, self.engine.read_latest(table, key))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Replica {self.service}@{self.node.name} {self.role} "
            f"t={self.term} ci={self.commit_index} ai={self.applied_index}>"
        )


__all__ = ["NEED_SNAPSHOT", "Replica"]
