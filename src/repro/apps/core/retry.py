"""Shared local-transaction retry discipline for every database-backed app.

Promoted out of ``repro.apps.shop`` (where microservice handlers grew it)
so every app and binder shares one copy: run a body inside a serializable
local transaction, retry deadlock/conflict aborts with linear backoff —
the way production database clients behave — and let business errors
abort and propagate.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.db import IsolationLevel
from repro.db.errors import TransactionAborted

SER = IsolationLevel.SERIALIZABLE
#: local transaction attempts before the retries are exhausted
ATTEMPTS = 8


def with_txn(ctx, body: Callable, retries: int = ATTEMPTS) -> Generator:
    """Run ``body(txn)`` in a local transaction, retrying aborts.

    ``ctx`` needs ``.db`` (a :class:`~repro.db.server.DatabaseServer`)
    and ``.env``; microservice handler contexts and kernel binders both
    qualify.  Business errors (anything that is not a serialization
    failure) abort the transaction and propagate; deadlock/conflict
    aborts are retried with backoff.  Every statement is its own round
    trip to the database, as from an interactive client.
    """
    return _retrying(ctx.env, retries, lambda: _interactive(ctx.db, body, False))


def with_prepared_txn(ctx, body: Callable) -> Generator:
    """Like :func:`with_txn` but ends in *prepare*; returns the txn.

    The 2PC participant's phase-1 discipline: validate and write under the
    local serializable protocol, durably prepare (locks now held), and
    hand the prepared transaction back for the coordinator's decision.
    """
    return _retrying(ctx.env, ATTEMPTS, lambda: _interactive(ctx.db, body, True))


def with_shipped_txn(ctx, body: Callable, prepare: bool = False) -> Generator:
    """Like :func:`with_txn` (or, with ``prepare``, :func:`with_prepared_txn`),
    but each attempt ships ``body(request)`` to the database as one request
    (:meth:`~repro.db.server.DatabaseServer.ship`): one round trip per
    attempt instead of one per statement."""
    return _retrying(ctx.env, ATTEMPTS, lambda: ctx.db.ship(body, prepare))


def _retrying(env, retries: int, attempt: Callable) -> Generator:
    """Run ``attempt()`` until it ends without a serialization failure,
    backing off linearly between attempts."""
    for n in range(retries):
        try:
            return (yield from attempt())
        except TransactionAborted:
            yield env.timeout(1.0 * (n + 1))
    raise RuntimeError("local transaction retries exhausted")


def _interactive(db, body: Callable, prepare: bool) -> Generator:
    """One attempt from an interactive client: returns the body's result,
    or with ``prepare`` the prepared transaction; aborts on any error."""
    txn = yield from db.begin(SER)
    try:
        result = yield from body(txn)
        if prepare:
            yield from db.prepare(txn)
            return txn
        yield from db.commit(txn)
        return result
    except Exception:
        yield from db.abort(txn)
        raise
