"""Hierarchical lock manager with deadlock detection.

Implements the classic multi-granularity scheme: intention locks (IS/IX) at
table level, shared/exclusive (S/X) at row level, FIFO queuing, lock
upgrades, and waits-for-graph cycle detection.  When a lock request would
close a cycle, the *requester* is chosen as the deadlock victim and its
acquire future fails with :class:`DeadlockAbort` — this is what makes "the
blocking nature of traditional protocol implementations" (paper §4.2)
observable in the benchmarks.

Because a transaction is a sequential simulation process, it waits on at
most one resource at a time; its waits-for edges are therefore recomputed
wholesale whenever the queue it sits in changes, keeping detection exact.

The uncontended path costs O(1) host work per request, whatever the number
of holders:

- Each resource keeps a count of holders per mode and a bitmask of the
  modes held, and each :class:`LockMode` carries the bitmask of the modes it
  conflicts with (derived once from ``_COMPATIBLE``).  "Does any holder
  conflict?" is one ``&``; no enum is hashed on the hot path.
- A request that needs no wait — the resource has no queue and no
  conflicting holder, the requester already holds a covering mode, or an
  upgrade no other holder blocks — is granted in place: :meth:`acquire`
  returns the manager's one pre-resolved :attr:`LockManager.granted`
  future, allocates nothing else, and leaves the waits-for graph alone.
  Only a request that must wait gets its own future.
- :meth:`release_all` drops a released resource with an empty queue on
  the spot (when it has no holders left) and runs the wake-up and
  deadlock work only for resources that have waiters.

Two indexes keep release cheap and deterministic:

- ``_held_by_txn`` and ``_waiting_by_txn`` map each transaction to the
  resources it holds / queues on, so :meth:`release_all` (called on every
  commit and abort) is O(locks touched by the txn) instead of a scan over
  every lock in the system.  Both use insertion-ordered dicts as ordered
  sets: release wakes waiters in acquisition order, which — unlike the
  hash-ordered sets they replace — does not depend on ``PYTHONHASHSEED``.
- The waits-for graph is maintained incrementally on the common enqueue
  path (a tail enqueue only adds edges *from* the new waiter, so only the
  new waiter can close a new cycle and only its edges need computing); the
  full per-resource rebuild runs only on queue-reordering events (upgrades
  jumping the queue, grants, victim aborts).

Detection (the DFS over the waits-for graph) runs only where a cycle can
close, and finds exactly the victims an unconditional search would:

- a tail enqueue searches only when an edge can lead *into* the new
  waiter: some resource it holds has a queue, or it already waits in a
  queue (a tid queued twice, which a sequential transaction never is);
- a wake-up after a release searches only when some holder of the
  resource itself waits, or a tid queues twice there — every waiter's
  edges lead to that resource's holders and to the waiters ahead of it,
  so a cycle through its queue has to leave through one of those;
- an upgrade, which jumps the queue, always searches.

Transactions that acquire in one global order (the cluster binder's
``lock_and_fetch``) cannot deadlock, and seldom meet either condition:
only a transaction that waits again while holding a row a queue formed
on during its previous wait.  On the ``ledger_sharded_hot`` suite run
(seed 11) that is 31 searches in 6,000 transactions, where every wait
used to search (1.9 per transaction).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Hashable, Optional

from repro.db.errors import DeadlockAbort
from repro.sim import Environment, Future


class LockMode(enum.Enum):
    """Lock modes; compatibility follows the textbook matrix.

    Each member also carries ``index`` (its position), ``bit``
    (``1 << index``), ``conflicts`` (the ``bit``s of the modes it may not
    be granted beside) and ``joins`` (:func:`combine` with each mode, by
    ``index``), set once below so the lock paths never hash an enum.
    """

    IS = "IS"
    IX = "IX"
    S = "S"
    X = "X"


_COMPATIBLE: dict[tuple[LockMode, LockMode], bool] = {
    (LockMode.IS, LockMode.IS): True,
    (LockMode.IS, LockMode.IX): True,
    (LockMode.IS, LockMode.S): True,
    (LockMode.IS, LockMode.X): False,
    (LockMode.IX, LockMode.IS): True,
    (LockMode.IX, LockMode.IX): True,
    (LockMode.IX, LockMode.S): False,
    (LockMode.IX, LockMode.X): False,
    (LockMode.S, LockMode.IS): True,
    (LockMode.S, LockMode.IX): False,
    (LockMode.S, LockMode.S): True,
    (LockMode.S, LockMode.X): False,
    (LockMode.X, LockMode.IS): False,
    (LockMode.X, LockMode.IX): False,
    (LockMode.X, LockMode.S): False,
    (LockMode.X, LockMode.X): False,
}

# Upgrade lattice: the mode that covers both (SIX simplified to X).
_COMBINE: dict[tuple[LockMode, LockMode], LockMode] = {
    (LockMode.IS, LockMode.IX): LockMode.IX,
    (LockMode.IS, LockMode.S): LockMode.S,
    (LockMode.IS, LockMode.X): LockMode.X,
    (LockMode.IX, LockMode.S): LockMode.X,
    (LockMode.IX, LockMode.X): LockMode.X,
    (LockMode.S, LockMode.X): LockMode.X,
}

_MODES = tuple(LockMode)
for _index, _mode in enumerate(_MODES):
    _mode.index = _index
    _mode.bit = 1 << _index
for _mode in _MODES:
    # A request for _mode conflicts with a holder of ``held`` exactly when
    # the matrix says ``compatible(held, _mode)`` is False.
    _mode.conflicts = sum(
        held.bit for held in _MODES if not _COMPATIBLE[(held, _mode)]
    )
    _mode.joins = tuple(
        _mode if other is _mode
        else _COMBINE.get((_mode, other)) or _COMBINE.get((other, _mode)) or LockMode.X
        for other in _MODES
    )
del _index, _mode


def combine(held: LockMode, wanted: LockMode) -> LockMode:
    """The weakest mode covering both ``held`` and ``wanted``."""
    return held.joins[wanted.index]


def compatible(a: LockMode, b: LockMode) -> bool:
    """Whether two modes may be held simultaneously by different txns."""
    return not a.bit & b.conflicts


@dataclass
class _Waiter:
    tid: int
    mode: LockMode
    future: Future


class _LockState:
    """One resource: its holders, its wait queue and a per-mode summary.

    ``counts[mode.index]`` is the number of holders of ``mode`` and
    ``mask`` the ``bit``s of the modes with a nonzero count, so a conflict
    test does not walk ``holders``.
    """

    __slots__ = ("holders", "queue", "counts", "mask")

    def __init__(self, tid: int, mode: LockMode) -> None:
        self.holders: dict[int, LockMode] = {tid: mode}
        self.queue: Deque[_Waiter] = deque()
        self.counts = [0] * len(_MODES)
        self.counts[mode.index] = 1
        self.mask = mode.bit

    def hold(self, tid: int, mode: LockMode) -> None:
        """Make ``tid`` hold ``mode``, combined with what it held."""
        counts = self.counts
        old = self.holders.get(tid)
        if old is not None:
            mode = old.joins[mode.index]
            counts[old.index] -= 1
            if not counts[old.index]:
                self.mask &= ~old.bit
        self.holders[tid] = mode
        counts[mode.index] += 1
        self.mask |= mode.bit

    def drop(self, tid: int) -> None:
        """Remove ``tid`` from the holders."""
        mode = self.holders.pop(tid)
        counts = self.counts
        counts[mode.index] -= 1
        if not counts[mode.index]:
            self.mask &= ~mode.bit

    def blocks(self, tid: int, mode: LockMode) -> bool:
        """Whether a holder other than ``tid`` holds a mode ``mode``
        conflicts with."""
        mask = self.mask
        own = self.holders.get(tid)
        if own is not None and self.counts[own.index] == 1:
            mask &= ~own.bit
        return bool(mask & mode.conflicts)


@dataclass
class LockStats:
    waited: int = 0
    deadlocks: int = 0


class LockManager:
    """Per-database lock table plus the waits-for graph."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._locks: dict[Hashable, _LockState] = {}
        self._waits_for: dict[int, set[int]] = {}
        # dict-as-ordered-set: values are always None.  Iteration order is
        # insertion (= acquisition / first-wait) order, never hash order.
        self._held_by_txn: dict[int, dict[Hashable, None]] = {}
        self._waiting_by_txn: dict[int, dict[Hashable, None]] = {}
        self.stats = LockStats()
        #: What :meth:`acquire` returns for every request granted in place.
        self.granted: Future = env.future(label="lock:granted").succeed(None)

    # -- acquisition --------------------------------------------------------

    def acquire(self, tid: int, resource: Hashable, mode: LockMode) -> Future:
        """Request a lock; the returned future resolves when granted.

        A request granted in place returns :attr:`granted`; one that must
        wait returns a fresh future.  Fails with :class:`DeadlockAbort` if
        waiting would close a cycle.  Callers must release with
        :meth:`release_all` on commit and abort.
        """
        state = self._locks.get(resource)
        if state is None:
            # Idle resource: the request creates the lock and holds it.
            self._locks[resource] = _LockState(tid, mode)
        elif tid in state.holders or state.queue or state.mask & mode.conflicts:
            return self._acquire_general(state, tid, resource, mode)
        else:
            # A newcomer no holder conflicts with and no waiter precedes.
            state.holders[tid] = mode
            state.counts[mode.index] += 1
            state.mask |= mode.bit
        held = self._held_by_txn.get(tid)
        if held is None:
            self._held_by_txn[tid] = {resource: None}
        else:
            held[resource] = None
        return self.granted

    def _acquire_general(
        self, state: _LockState, tid: int, resource: Hashable, mode: LockMode
    ) -> Future:
        """Re-acquires, upgrades and requests that may have to queue."""
        held = state.holders.get(tid)
        if held is None:
            return self._enqueue(state, tid, resource, mode, upgrade=False)
        wanted = held.joins[mode.index]
        if wanted is held:
            return self.granted
        if state.blocks(tid, wanted):
            return self._enqueue(state, tid, resource, wanted, upgrade=True)
        # Upgrades jump the queue, so only other holders can block one.
        self._grant(state, tid, resource, wanted)
        return self.granted

    def _enqueue(
        self,
        state: _LockState,
        tid: int,
        resource: Hashable,
        mode: LockMode,
        upgrade: bool,
    ) -> Future:
        """Queue a request that cannot be granted now; detect deadlock."""
        fut = self.env.future(label=f"lock:{resource}:{mode.value}")
        waiter = _Waiter(tid, mode, fut)
        self.stats.waited += 1
        already_waiting = tid in self._waiting_by_txn
        self._waiting_by_txn.setdefault(tid, {})[resource] = None
        if upgrade:
            # Upgrades jump the queue: every waiter behind gains a blocker,
            # so the whole resource's edges must be rebuilt.
            state.queue.appendleft(waiter)
            self._refresh_edges(resource, state)
            self._abort_new_deadlock_victims(resource, state, prefer=tid)
            return fut
        state.queue.append(waiter)
        # Tail enqueue: only the new waiter gained edges (conflicting
        # holders plus every pending waiter ahead of it), so only it can
        # close a *new* cycle — one edge-set computation and at most one
        # DFS, instead of a rebuild plus a DFS per waiter.
        conflicts = mode.conflicts
        edges = {
            holder
            for holder, held_mode in state.holders.items()
            if holder != tid and held_mode.bit & conflicts
        }
        edges.update(w.tid for w in state.queue if w.tid != tid and not w.future.done)
        self._waits_for[tid] = edges
        # The cycle needs an edge *into* the new waiter: from a waiter on a
        # resource it holds, or from one behind it in a queue it already
        # waited in.  With neither, the search could only come back empty.
        if already_waiting or self._holds_a_queue(tid):
            cycle = self._find_cycle(tid)
            if cycle:
                self._abort_victim(resource, state, waiter, cycle)
        return fut

    def _holds_a_queue(self, tid: int) -> bool:
        """Whether some request waits on a resource ``tid`` holds."""
        held = self._held_by_txn.get(tid)
        if held:
            locks = self._locks
            for resource in held:
                if locks[resource].queue:
                    return True
        return False

    def _grant(self, state: _LockState, tid: int, resource: Hashable, mode: LockMode) -> None:
        state.hold(tid, mode)
        self._held_by_txn.setdefault(tid, {})[resource] = None
        self._waits_for.pop(tid, None)

    # -- release ------------------------------------------------------------

    def release_all(self, tid: int) -> None:
        """Release every lock held or awaited by ``tid`` (commit/abort).

        O(resources the txn touched); wakes waiters in the txn's
        acquisition order, which is deterministic for a given seed.  A
        resource nobody queues on needs no wake-up: it is dropped once it
        has no holders left.
        """
        locks = self._locks
        held = self._held_by_txn.pop(tid, None)
        waited = self._waiting_by_txn.pop(tid, None)
        touched: list[Hashable] = []
        if held:
            for resource in held:
                state = locks[resource]
                state.drop(tid)
                if state.queue:
                    touched.append(resource)
                elif not state.holders:
                    del locks[resource]
        if waited:
            for resource in waited:
                state = locks.get(resource)
                if state is None:
                    continue
                state.queue = deque(w for w in state.queue if w.tid != tid)
                if held is None or resource not in held:
                    touched.append(resource)
        self._waits_for.pop(tid, None)
        for resource in touched:
            state = locks.get(resource)
            if state is not None:
                self._wake_waiters(resource, state)

    def _unnote_waiting(self, tid: int, resource: Hashable, state: Optional[_LockState]) -> None:
        """Drop ``resource`` from ``tid``'s waiting index.

        When ``state`` is given, the entry survives if the queue still has
        another pending waiter for the same tid (double direct acquires).
        """
        if state is not None and any(
            w.tid == tid and not w.future.done for w in state.queue
        ):
            return
        waiting = self._waiting_by_txn.get(tid)
        if waiting is not None:
            waiting.pop(resource, None)
            if not waiting:
                self._waiting_by_txn.pop(tid, None)

    def _wake_waiters(self, resource: Hashable, state: _LockState) -> None:
        while state.queue:
            waiter = state.queue[0]
            if waiter.future.done:
                state.queue.popleft()
                self._unnote_waiting(waiter.tid, resource, state)
                continue
            if state.blocks(waiter.tid, waiter.mode):
                break
            state.queue.popleft()
            self._unnote_waiting(waiter.tid, resource, state)
            self._grant(state, waiter.tid, resource, waiter.mode)
            waiter.future.succeed(None)
        if not state.holders and not state.queue:
            self._locks.pop(resource, None)
            return
        if self._refresh_edges(resource, state):
            self._abort_new_deadlock_victims(resource, state)

    # -- deadlock detection ---------------------------------------------------

    def _refresh_edges(self, resource: Hashable, state: _LockState) -> bool:
        """Recompute waits-for edges for every waiter on ``resource``;
        return whether a cycle can run through them.

        A waiter depends on all conflicting holders and on every waiter
        ahead of it in the queue (FIFO fairness makes those real blockers).
        So a cycle through the queue leaves it through a holder that is
        itself waiting, or — when one tid queues twice — runs between its
        two entries.  Without either, no waiter here is a victim.
        """
        waits_for = self._waits_for
        ahead: list[_Waiter] = []
        for waiter in state.queue:
            if waiter.future.done:
                continue
            conflicts = waiter.mode.conflicts
            edges = {
                holder
                for holder, held_mode in state.holders.items()
                if holder != waiter.tid and held_mode.bit & conflicts
            }
            edges.update(w.tid for w in ahead if w.tid != waiter.tid)
            waits_for[waiter.tid] = edges
            ahead.append(waiter)
        for holder in state.holders:
            if waits_for.get(holder):
                return True
        return len({w.tid for w in ahead}) < len(ahead)

    def _abort_victim(
        self,
        resource: Hashable,
        state: _LockState,
        waiter: _Waiter,
        cycle: list[int],
    ) -> None:
        """Fail ``waiter`` as a deadlock victim and re-drive the queue."""
        self.stats.deadlocks += 1
        self._waits_for.pop(waiter.tid, None)
        state.queue = deque(w for w in state.queue if w.tid != waiter.tid)
        self._unnote_waiting(waiter.tid, resource, None)
        waiter.future.fail(DeadlockAbort(waiter.tid, cycle))
        self._refresh_edges(resource, state)
        self._wake_waiters(resource, state)

    def _abort_new_deadlock_victims(
        self,
        resource: Hashable,
        state: _LockState,
        prefer: Optional[int] = None,
    ) -> None:
        """Abort waiters on ``resource`` whose wait now closes a cycle.

        ``prefer`` (the newest requester) is checked first so the txn that
        *created* the deadlock is the victim, matching common DBMS policy.
        """
        ordered = sorted(
            (w for w in state.queue if not w.future.done),
            key=lambda w: (w.tid != prefer,),
        )
        for waiter in ordered:
            cycle = self._find_cycle(waiter.tid)
            if cycle:
                self._abort_victim(resource, state, waiter, cycle)
                return

    def _find_cycle(self, start: int) -> Optional[list[int]]:
        """DFS over the waits-for graph; return a cycle through ``start``."""
        path: list[int] = []
        visited: set[int] = set()

        def dfs(tid: int) -> Optional[list[int]]:
            if tid == start and path:
                return list(path)
            if tid in visited:
                return None
            visited.add(tid)
            path.append(tid)
            for nxt in self._waits_for.get(tid, ()):
                found = dfs(nxt)
                if found:
                    return found
            path.pop()
            return None

        return dfs(start)

    # -- introspection ---------------------------------------------------------

    def holders(self, resource: Hashable) -> dict[int, LockMode]:
        state = self._locks.get(resource)
        return dict(state.holders) if state else {}

    def mode_of(self, tid: int, resource: Hashable) -> Optional[LockMode]:
        """The mode ``tid`` holds on ``resource``, or ``None``."""
        state = self._locks.get(resource)
        return state.holders.get(tid) if state is not None else None

    def held_by(self, tid: int) -> set[Hashable]:
        return set(self._held_by_txn.get(tid, ()))

    def queue_length(self, resource: Hashable) -> int:
        state = self._locks.get(resource)
        return sum(1 for w in state.queue if not w.future.done) if state else 0
