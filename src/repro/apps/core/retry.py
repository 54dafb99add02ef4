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
    aborts are retried with backoff.
    """
    for attempt in range(retries):
        txn = yield from ctx.db.begin(SER)
        try:
            result = yield from body(txn)
            yield from ctx.db.commit(txn)
            return result
        except TransactionAborted:
            yield from ctx.db.abort(txn)
            yield ctx.env.timeout(1.0 * (attempt + 1))
        except Exception:
            yield from ctx.db.abort(txn)
            raise
    raise RuntimeError("local transaction retries exhausted")


def with_prepared_txn(ctx, body: Callable) -> Generator:
    """Like :func:`with_txn` but ends in *prepare*; returns the txn.

    The 2PC participant's phase-1 discipline: validate and write under the
    local serializable protocol, durably prepare (locks now held), and
    hand the prepared transaction back for the coordinator's decision.
    """
    for attempt in range(ATTEMPTS):
        txn = yield from ctx.db.begin(SER)
        try:
            yield from body(txn)
            yield from ctx.db.prepare(txn)
            return txn
        except TransactionAborted:
            yield from ctx.db.abort(txn)
            yield ctx.env.timeout(1.0 * (attempt + 1))
        except Exception:
            yield from ctx.db.abort(txn)
            raise
    raise RuntimeError("local transaction retries exhausted")
