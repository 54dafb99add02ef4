"""Orleans-Transactions-style ACID operations across actors.

The §4.2 facility: a transaction spanning several actors acquires each
actor's transaction lock, executes the requested methods against *tentative*
copies of their state, durably prepares each tentative version in the
storage provider, then commits in a second phase — 2PC with the actors as
participants.

Every phase reaches all of its participants at once, so the cost is counted
in sequential rounds per transaction, not in trips per actor (the bound of
Didona et al. is in sequential message delays).  The prepare and commit
rounds are :func:`~repro.transactions.commit.two_phase`, with the
transaction's :class:`TxnSession` as the transport.  The performance penalty
the paper cites is still there: an exclusive lock on every declared actor,
held from before the first round to the end of the last (blocking other
transactions on it); writes that stay tentative, so they cost a round of
their own after the reads; one durable prepare round to the provider; and
the commit round, in which each participant saves its final version and
deletes its prepare record — versus a plain actor call's single message
and zero mandatory provider trips.  Benchmark C3 measures the resulting
factor.

Locks are acquired in sorted actor order, so transactions cannot deadlock
(they may still block).  A lock wait beyond ``LOCK_TIMEOUT_MS`` aborts the
transaction, as Orleans' lock-timeout policy does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.actors.actor import ActorError
from repro.actors.runtime import ActorRuntime
from repro.messaging.rpc import RpcTimeout
from repro.sim import Environment, Lock, any_of
from repro.transactions.commit import PREPARED, two_phase


#: how long a transaction waits for one actor's lock before it aborts
LOCK_TIMEOUT_MS = 100.0
#: commit rounds before a participant that cannot be reached is given up
COMMIT_ATTEMPTS = 8


class TransactionFailed(Exception):
    """The actor transaction aborted (lock timeout or execution error)."""


class CommitUncertain(TransactionFailed):
    """The commit decision was made but could not reach every participant.

    Some participants may have installed the prepared state, others not —
    the classic 2PC uncertainty window.  Chaos histories record such ops
    as ``info`` (outcome unknown) rather than ``fail``.
    """


@dataclass
class ActorTxnStats:
    committed: int = 0
    aborted: int = 0


class TxnSession:
    """A dynamic transaction's participant surface (see ``execute_dynamic``).

    :meth:`call_many` runs one round of methods, each against its target
    actor's tentative state (the ``txn_execute`` participant protocol), and
    records every touched actor for the prepare/commit phases; :meth:`call`
    is a round of one.  Only actors declared in the transaction's ident set
    may be called — their locks are held; touching anything else would be
    unserialized.
    """

    def __init__(self, coordinator: "ActorTransactionCoordinator", txn_id: int,
                 idents: list[tuple[str, str]]) -> None:
        self._coordinator = coordinator
        self.txn_id = txn_id
        self._declared = frozenset(idents)
        #: ops sent so far: the next op's index, the participants' dedup key
        self._op_count = 0
        #: touched actor -> its latest tentative state
        self._tentative: dict[tuple[str, str], dict] = {}

    def call(self, actor_type: str, key: str, method: str, args: tuple = ()) -> Generator:
        results = yield from self.call_many([(actor_type, key, method, args)])
        return results[0]

    def call_many(self, calls: list[tuple[str, str, str, tuple]]) -> Generator:
        """One round of ``(actor_type, key, method, args)`` participant ops.

        Every op is sent before any reply is awaited; returns the results
        in call order.  Ops of one round carry no order among themselves,
        so a round touches each actor at most once.  If an op failed, the
        first failure raises, but only after every op that succeeded is
        recorded: its actor then holds tentative state under this
        transaction, so it is prepared and committed like any other
        touched actor, even when a driver catches the error and goes on.
        """
        idents = [(actor_type, key) for actor_type, key, _method, _args in calls]
        for ident in idents:
            if ident not in self._declared:
                raise TransactionFailed(
                    f"txn {self.txn_id}: {ident} not in the declared actor set"
                )
        if len(set(idents)) < len(idents):
            raise TransactionFailed(
                f"txn {self.txn_id}: one round calls an actor twice"
            )
        base = self._op_count
        self._op_count += len(calls)
        outcomes = yield from self._coordinator.runtime.gather(
            [(actor_type, key, "txn_execute",
              ({"method": method, "args": list(args),
                "txn_id": self.txn_id, "op_index": base + index},))
             for index, (actor_type, key, method, args) in enumerate(calls)],
            timeout=50.0, retries=1,
        )
        for ident, outcome in zip(idents, outcomes):
            if outcome.error is None:
                self._tentative[ident] = outcome.value["tentative_state"]
        return [outcome.result()["result"] for outcome in outcomes]

    @property
    def participants(self) -> list[tuple[str, str]]:
        """Every actor an op touched, in sorted order."""
        return sorted(self._tentative)

    # -- the two_phase transport (repro.transactions.commit) ---------------

    def prepare(self, participants: list[tuple[str, str]]) -> Generator:
        """Durably prepare every participant's tentative version, in one
        provider round; a raise is every participant's vote.  The record
        doubles as the commit-phase recovery path: a re-activated
        participant that lost its volatile tentative copy reloads it from
        here (see ``txn_commit``)."""
        try:
            yield from self._coordinator.runtime.provider.save_many([
                (ident[0], f"{ident[1]}#prepare-{self.txn_id}", self._tentative[ident])
                for ident in participants
            ])
        except Exception as exc:  # noqa: BLE001 - every participant's vote
            return [exc] * len(participants)
        return [PREPARED] * len(participants)

    def decide(self, participants: list[tuple[str, str]], commit: bool) -> Generator:
        """The decision round.

        An abort sends nothing: the tentative state is dropped by the
        participant's next ``txn_execute``, and the locks by
        :meth:`ActorTransactionCoordinator.execute_dynamic`.  A commit
        installs and persists every participant's tentative state in one
        round, and must reach each one even across silo crashes: a
        participant whose delivery failed is retried (the durable prepare
        record makes redelivery safe), up to ``COMMIT_ATTEMPTS`` rounds
        apart by ``LOCK_TIMEOUT_MS / 4``.
        """
        errors: dict[tuple, Optional[Exception]] = dict.fromkeys(participants)
        if not commit:
            return list(errors.values())
        coordinator = self._coordinator
        request = ({"txn_id": self.txn_id},)
        pending = participants
        for attempt in range(1, COMMIT_ATTEMPTS + 1):
            try:
                outcomes = yield from coordinator.runtime.gather(
                    [(actor_type, key, "txn_commit", request) for actor_type, key in pending],
                    timeout=50.0, retries=2,
                )
                errors.update(zip(pending, [outcome.error for outcome in outcomes]))
            except ActorError as exc:  # no silo alive: nothing was sent
                errors.update(dict.fromkeys(pending, exc))
            pending = [
                ident for ident in pending
                if isinstance(errors[ident], (RpcTimeout, ActorError))
            ]
            if not pending or attempt == COMMIT_ATTEMPTS:
                break
            yield coordinator.env.timeout(LOCK_TIMEOUT_MS / 4)
        return list(errors.values())


class ActorTransactionCoordinator:
    """Coordinates ACID multi-actor operations on an :class:`ActorRuntime`."""

    def __init__(self, runtime: ActorRuntime) -> None:
        self.runtime = runtime
        self.env: Environment = runtime.env
        self._locks: dict[tuple[str, str], Lock] = {}
        self.stats = ActorTxnStats()

    def _lock_for(self, actor_type: str, key: str) -> Lock:
        ident = (actor_type, key)
        if ident not in self._locks:
            self._locks[ident] = Lock(self.env, label=f"txn-lock:{ident}")
        return self._locks[ident]

    def execute(self, ops: list[tuple[str, str, str, tuple]]) -> Generator:
        """Run ``[(actor_type, key, method, args), ...]`` atomically.

        The ops are opaque methods, so they run one after another in list
        order; prepare and commit are the same rounds as
        :meth:`execute_dynamic`'s.  Returns the list of per-op results in
        input order.  Raises :class:`TransactionFailed` on lock timeout or
        any method error; in that case no actor's durable state changed.
        """

        def in_order(session: TxnSession) -> Generator:
            results = []
            for actor_type, key, method, args in ops:
                result = yield from session.call(actor_type, key, method, tuple(args))
                results.append(result)
            return results

        results = yield from self.execute_dynamic(
            [(actor_type, key) for actor_type, key, _method, _args in ops], in_order
        )
        return results

    def execute_dynamic(self, idents: list[tuple[str, str]], driver) -> Generator:
        """Run a *driver* generator atomically over a declared actor set.

        Where :meth:`execute` takes a static op list, this takes the set of
        ``(actor_type, key)`` participants up front (the declared-key
        discipline) plus ``driver(session)`` — a generator that interleaves
        arbitrary logic with :class:`TxnSession` participant rounds, so a
        stored procedure can *read* several actors before deciding what to
        write.  Locks on every declared ident are held throughout, so the
        interleaving is serializable; then
        :func:`~repro.transactions.commit.two_phase` over the touched actors
        (:meth:`TxnSession.prepare`, :meth:`TxnSession.decide`).
        """
        txn_id = self.env.next_id("actor-txn")
        # Ordered acquisition prevents deadlock among transactions.
        idents = sorted(set(idents))
        held: list[Lock] = []
        try:
            yield from self._acquire(txn_id, idents, held)
            session = TxnSession(self, txn_id, idents)
            result = yield from driver(session)
            committed, error = yield from two_phase(session, session.participants)
            if committed and error is not None:
                raise CommitUncertain(
                    f"txn {txn_id}: commit decision undeliverable: {error!r}"
                ) from error
            if error is not None:
                raise error
            self.stats.committed += 1
            return result
        except CommitUncertain:
            raise  # decided commit: not an abort
        except TransactionFailed:
            self.stats.aborted += 1
            raise
        except Exception as exc:  # noqa: BLE001 - any failure aborts
            self.stats.aborted += 1
            raise TransactionFailed(f"txn {txn_id}: {exc!r}") from exc
        finally:
            for lock in held:
                lock.release()

    # -- phases --------------------------------------------------------------

    def _acquire(self, txn_id: int, idents: list[tuple[str, str]],
                 held: list[Lock]) -> Generator:
        """Acquire every ident's transaction lock (sorted, so no deadlock).

        A free lock is granted on the spot; only a contended one races its
        grant against ``LOCK_TIMEOUT_MS``.
        """
        for ident in idents:
            lock = self._lock_for(*ident)
            acquired = lock.acquire()
            if not acquired.done:
                winner = yield any_of(
                    self.env, [acquired, self.env.timeout(LOCK_TIMEOUT_MS, "timeout")]
                )
                if winner[0] == 1:
                    # Timed out; if the grant races in later, give it back.
                    acquired.add_done_callback(lambda _f, l=lock: l.release())
                    raise TransactionFailed(f"txn {txn_id}: lock timeout on {ident}")
            held.append(lock)


def transactional(cls):
    """Class decorator adding the transaction participant protocol.

    Adds ``txn_execute`` (run a method against a tentative copy of state)
    and ``txn_commit`` (install the tentative copy and persist it) to an
    :class:`~repro.actors.actor.Actor` subclass.  Mirrors Orleans' need to
    port actors onto transactional state facets (§4.2: "necessitating
    porting the actor attributes to opaque objects").
    """

    def txn_execute(self, request: dict) -> Generator:
        txn_id = request.get("txn_id")
        op_index = request.get("op_index", 0)
        # A different txn starts from committed state: stale tentative
        # state from an aborted predecessor must not leak forward.
        if getattr(self, "_pending_txn_id", None) != txn_id:
            self._pending_txn_id = txn_id
            self._pending_txn_state = None
            self._txn_op_results = {}
        # Duplicate delivery (network duplication, client retry whose
        # original did land): return the recorded result, don't re-apply.
        if op_index in self._txn_op_results:
            return self._txn_op_results[op_index]
        original = self.state
        working = dict(self._pending_txn_state) if self._pending_txn_state else dict(original)
        self.state = working
        try:
            method = getattr(self, request["method"])
            result = yield from method(*request["args"])
        finally:
            self.state = original
        self._pending_txn_state = working
        response = {"result": result, "tentative_state": dict(working)}
        self._txn_op_results[op_index] = response
        return response

    def txn_commit(self, request: Optional[dict] = None) -> Generator:
        txn_id = (request or {}).get("txn_id")
        pending = getattr(self, "_pending_txn_state", None)
        if pending is not None and getattr(self, "_pending_txn_id", None) == txn_id:
            self.state = pending
            self._pending_txn_state = None
            yield from self.save_state()
            if txn_id is not None:
                yield from self._runtime.provider.delete(
                    type(self).__name__, f"{self.key}#prepare-{txn_id}"
                )
            return
        # Volatile tentative copy is gone (silo crash re-activated us) or
        # this is a redelivered commit: recover the durably prepared
        # version.  The coordinator only sends commit after every
        # participant prepared, so installing it is safe while the
        # coordinator still holds the transaction locks; the record is
        # deleted afterwards, so a late duplicate commit is a no-op.
        if txn_id is not None:
            prepared = yield from self._runtime.provider.load(
                type(self).__name__, f"{self.key}#prepare-{txn_id}"
            )
            if prepared is not None:
                self.state = dict(prepared)
                self._pending_txn_state = None
                yield from self.save_state()
                yield from self._runtime.provider.delete(
                    type(self).__name__, f"{self.key}#prepare-{txn_id}"
                )

    cls.txn_execute = txn_execute
    cls.txn_commit = txn_commit
    return cls
