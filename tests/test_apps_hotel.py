"""The hotel reservation app (DeathStar-style) as one spec on every runtime.

Search, reserve, declined-when-full and idempotent retry run on each
registered binder.  The port is proved against the reference
interpreter: a fixed single-client op stream run one op at a time through
each binder gives the same per-op results and the same final snapshot as
:func:`repro.apps.core.reference.run_op` over a plain dict.
"""

import random

import pytest

from repro.apps.core import bind, registered_runtimes
from repro.apps.core.reference import run_op
from repro.apps.hotel import hotel_spec
from repro.sim import Environment
from repro.workloads.hotel import HotelWorkload, ReserveOp, SearchOp

#: hotel-000 and hotel-002 are in city-0, hotel-001 in city-1
WORKLOAD = HotelWorkload(num_hotels=3, num_cities=2, capacity_per_hotel=2)


def reserve(op_id, hotel):
    return ReserveOp(op_id=op_id, hotel=hotel, customer=f"c-{op_id}", nights=1)


#: one client, one op at a time: fills hotel-000, is declined there,
#: retries a confirmed and a declined reserve, and searches in between
SCRIPT = [
    SearchOp("s1", "city-0"),
    reserve("r1", "hotel-000"),
    reserve("r2", "hotel-000"),
    reserve("r3", "hotel-000"),
    SearchOp("s2", "city-0"),
    reserve("r2", "hotel-000"),
    reserve("r4", "hotel-001"),
    reserve("r3", "hotel-000"),
    SearchOp("s3", "city-1"),
] + list(WORKLOAD.operations(random.Random(5), 24))


def deploy(runtime, workload=WORKLOAD):
    env = Environment(seed=171)
    binder = bind(runtime, env, hotel_spec(workload))
    env.run_until(env.process(binder.setup()))
    return env, binder


def run_serially(env, binder, ops):
    return [env.run_until(env.process(binder.execute(op))) for op in ops]


def hotel(state, hotel_id):
    return next(row for row in state["hotels"] if row["id"] == hotel_id)


def check(binder, state):
    return [v for inv in binder.invariants() for v in inv.check(state)]


def reference(spec, ops):
    """Per-op results and the final ``{entity: rows}`` of ``ops`` run by
    the reference interpreter over a dict."""
    store = {
        (entity, row[spec.entity(entity).key]): row
        for entity, rows in spec.initial_rows.items()
        for row in rows
    }
    results = []
    for op in ops:
        handler = spec.handler_for(op)
        result, _writes = run_op(handler, op, handler.access(op), store)
        results.append(result)
    snapshot = {
        entity: sorted(
            (row for (name, key), row in store.items() if name == entity),
            key=lambda row: repr(row[spec.entity(entity).key]),
        )
        for entity in spec.entities
    }
    return results, snapshot


class TestSearch:
    def test_search_returns_city_hotels(self):
        for runtime in registered_runtimes():
            env, binder = deploy(runtime)
            assert run_serially(env, binder, [SearchOp("s", "city-0")]) == [
                ["hotel-000", "hotel-002"]
            ], runtime


class TestReservations:
    def test_reserve_decrements_capacity(self):
        """One room fewer is left: ``reserved`` counts the booking."""
        for runtime in registered_runtimes():
            env, binder = deploy(runtime)
            assert run_serially(env, binder, [reserve("r1", "hotel-000")]) == [
                "confirmed"
            ], runtime
            state = binder.snapshot()
            assert hotel(state, "hotel-000")["reserved"] == 1
            assert [row["status"] for row in state["reservations"]] == ["confirmed"]
            assert check(binder, state) == [], runtime

    def test_overbooking_rejected(self):
        """A full hotel declines: a committed outcome with its own row,
        not a failed op, and the full hotel drops out of search."""
        ops = [reserve(f"r{i}", "hotel-000") for i in range(3)]
        for runtime in registered_runtimes():
            env, binder = deploy(runtime)
            assert run_serially(env, binder, ops + [SearchOp("s", "city-0")]) == [
                "confirmed", "confirmed", "declined", ["hotel-002"]
            ], runtime
            state = binder.snapshot()
            assert hotel(state, "hotel-000")["reserved"] == 2
            assert [row["status"] for row in state["reservations"]] == [
                "confirmed", "confirmed", "declined"
            ]
            assert check(binder, state) == [], runtime

    def test_duplicate_booking_request_is_idempotent(self):
        op = reserve("r1", "hotel-002")
        for runtime in registered_runtimes():
            env, binder = deploy(runtime)
            assert run_serially(env, binder, [op, op]) == [
                "confirmed", "confirmed"
            ], runtime  # the client retry reads back the original status
            state = binder.snapshot()
            assert len(state["reservations"]) == 1
            assert hotel(state, "hotel-002")["reserved"] == 1
            assert check(binder, state) == [], runtime

    def test_reservation_service_crash_recovers(self):
        """The reservations service node dies and restarts; its database
        and the booking already made survive."""
        env, binder = deploy("microservice")
        run_serially(env, binder, [reserve("r1", "hotel-001")])
        binder.app.crash_service("reservations")
        binder.app.restart_service("reservations")
        assert run_serially(env, binder, [reserve("r2", "hotel-001")]) == [
            "confirmed"
        ]
        state = binder.snapshot()
        assert hotel(state, "hotel-001")["reserved"] == 2
        assert len(state["reservations"]) == 2
        assert check(binder, state) == []

    def test_mixed_workload_keeps_invariants(self):
        """Concurrent reserves contend for the last rooms; every sound
        runtime commits them all and oversells none."""
        workload = HotelWorkload(num_hotels=3, num_cities=2,
                                 capacity_per_hotel=3, reserve_fraction=0.7)
        for runtime in registered_runtimes():
            env, binder = deploy(runtime, workload)
            ops = list(workload.operations(env.stream("ops"), 30))

            def clients():
                pending = [env.process(binder.execute(op)) for op in ops]
                for proc in pending:
                    yield proc

            env.run_until(env.process(clients()))
            state = binder.snapshot()
            assert {row["status"] for row in state["reservations"]} == {
                "confirmed", "declined"
            }, runtime
            assert check(binder, state) == [], runtime


def test_script_has_reserves_searches_and_declines():
    """The generated tail, too, confirms, declines and searches."""
    results, _ = reference(hotel_spec(WORKLOAD), SCRIPT)
    tail = results[9:]
    assert {"confirmed", "declined"} <= {r for r in tail if isinstance(r, str)}
    assert any(isinstance(r, list) for r in tail)


@pytest.mark.parametrize("runtime", registered_runtimes())
def test_binder_matches_reference_interpreter(runtime):
    spec = hotel_spec(WORKLOAD)
    results, snapshot = reference(spec, SCRIPT)
    env, binder = deploy(runtime)
    assert run_serially(env, binder, SCRIPT) == results
    assert binder.snapshot() == snapshot
