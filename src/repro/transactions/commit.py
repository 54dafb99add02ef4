"""Two-phase commit: one coordinator for every runtime that runs it.

Sharded-database replica groups (:mod:`repro.db.sharding`; a group
of one replica by default), entity-per-service microservices (:mod:`repro.apps.core.binders.micro`)
and transactional actors (:mod:`repro.actors.transactions`) commit a
multi-participant transaction the same way: a prepare round, then a
decision round.  How a round reaches its participants, and what it
costs, is the runtime's *transport*.  The policy is not, and
:func:`two_phase` is the one place that enforces it:

- the decision is commit only if every participant voted
  :data:`PREPARED`;
- an abort goes to every participant but one that definitely holds
  nothing (it voted :data:`REFUSED`): a participant whose prepare
  failed, or that the prepare round never reached, may hold a prepared
  branch;
- the decision round tries every participant it targets before any
  error surfaces, so an unreachable participant never keeps a reachable
  one from installing or releasing;
- the error that surfaces is the first prepare failure, else the first
  decision that could not be delivered.
"""

from __future__ import annotations

from typing import Any, Generator

#: the vote of a participant that holds a prepared branch
PREPARED = "prepared"
#: the vote of a participant that definitely holds nothing
REFUSED = "refused"


def two_phase(transport: Any, participants: list) -> Generator:
    """Run a prepare round, then a decision round, over ``transport``.

    ``transport.prepare(participants)`` is one round; it returns one vote
    per participant, in order: :data:`PREPARED`, :data:`REFUSED`, the
    exception its request raised, or anything else (such as ``None``) for
    a participant the round never reached.
    ``transport.decide(targets, commit)`` is one round that tries every
    target; it returns one error-or-``None`` per target.

    Runs inside the caller's process (``yield from``) and adds no process,
    future or timeout of its own.  Raises nothing: returns ``(committed,
    error)`` and each caller maps that to its own exceptions.
    """
    votes = yield from transport.prepare(participants)
    commit = all(vote == PREPARED for vote in votes)
    targets = participants if commit else [
        participant for participant, vote in zip(participants, votes)
        if vote != REFUSED
    ]
    delivery = yield from transport.decide(targets, commit)
    failures = [vote for vote in votes if isinstance(vote, BaseException)]
    failures += [error for error in delivery if error is not None]
    return commit, (failures[0] if failures else None)
