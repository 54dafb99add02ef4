"""The reference interpreter: one handler body run on a plain dict.

:func:`repro.apps.core.reference.run_op` is the semantics a binder is
checked against: the same declared-access checks as every
:class:`~repro.apps.core.base.KernelContext`, writes applied to the store
in order, and no simulator to resume a body that waits on one.
"""

import pytest

from repro.apps.core import HandlerSpec, UndeclaredAccess
from repro.apps.core.reference import ReferenceContext, run_op
from repro.sim import Environment


def _rmw_body(ctx, key):
    row = (yield from ctx.get("kv", key)) or {"id": key, "counter": 0}
    value = row["counter"] + 1
    yield from ctx.put("kv", key, {**row, "counter": value})
    return value


def _declares_key(key):
    return [("kv", key)]


#: an op here is just the key it reads and writes
RMW = HandlerSpec("rmw", _rmw_body, _declares_key, _declares_key)


def test_undeclared_access_raises():
    ctx = ReferenceContext("a", RMW, RMW.access("a"), {})
    with pytest.raises(UndeclaredAccess):
        next(ctx.get("kv", "b"))
    with pytest.raises(UndeclaredAccess):
        next(ctx.put("kv", "b", {"id": "b"}))


def test_later_txns_see_earlier_writes():
    store = {}
    results = [run_op(RMW, "a", RMW.access("a"), store) for _ in range(3)]
    assert [result for result, _writes in results] == [1, 2, 3]
    assert [writes for _result, writes in results][-1] == [
        (("kv", "a"), {"id": "a", "counter": 3})
    ]
    assert store == {("kv", "a"): {"id": "a", "counter": 3}}


def test_yielding_handler_fails_loudly():
    """A body that waits on a simulator event cannot run without one: it
    fails instead of dropping the rest of the body."""
    env = Environment(seed=4)

    def stall(ctx, key):
        yield env.timeout(1.0)
        yield from ctx.put("kv", key, {"id": key, "counter": 9})

    handler = HandlerSpec("stall", stall, _declares_key, _declares_key)
    store = {}
    with pytest.raises(RuntimeError, match="yielded"):
        run_op(handler, "a", handler.access("a"), store)
    assert store == {}
