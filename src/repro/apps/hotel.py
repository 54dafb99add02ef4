"""The DeathStarBench-style hotel reservation app as an :class:`AppSpec`.

DeathStarBench's hotel graph (paper ref [27]) is the stock microservice
example; here it is one spec that every runtime binds.  Two handlers:

- ``reserve`` books one room in one hotel.  A full hotel is a business
  outcome, not a failed operation: the handler records a *declined*
  reservation row and returns ``"declined"``, so every acknowledged
  reserve leaves its effect row and the applied-exactly oracle judges
  reserves like any other effect.  A retry of an applied reserve finds
  its row and returns the original status.
- ``search`` is read-only: it reads every hotel of the op's city (the
  workload places hotels in cities statically, so the read set is
  declarable without an index) and returns the ids with a room left.

Two invariants break under lost isolation — two concurrent reserves both
observing the last room, or both incrementing the same count:

- ``capacity(hotels.reserved)`` — ``0 <= reserved <= capacity``;
- ``booked(hotels<-reservations)`` — each hotel's ``reserved`` equals
  its confirmed reservation rows.
"""

from __future__ import annotations

from typing import Generator

from repro.apps.core import (
    AppSpec,
    CapacityBoundSpec,
    EntitySpec,
    HandlerSpec,
    InvariantSpec,
)
from repro.transactions.anomalies import Violation
from repro.workloads.hotel import HotelWorkload, ReserveOp, SearchOp


def _reserve(ctx, op: ReserveOp) -> Generator:
    booked = yield from ctx.get("reservations", op.op_id)
    if booked is not None:
        return booked["status"]
    hotel = yield from ctx.get("hotels", op.hotel)
    if hotel["reserved"] < hotel["capacity"]:
        status = "confirmed"
        yield from ctx.put(
            "hotels", op.hotel, dict(hotel, reserved=hotel["reserved"] + 1)
        )
    else:
        status = "declined"
    yield from ctx.put("reservations", op.op_id, {
        "id": op.op_id, "hotel": op.hotel, "customer": op.customer,
        "nights": op.nights, "status": status,
    })
    return status


def _reserve_refs(op: ReserveOp):
    return [("hotels", op.hotel), ("reservations", op.op_id)]


class _Booked(InvariantSpec):
    """Each hotel's ``reserved`` count equals its confirmed reservations."""

    name = "booked(hotels<-reservations)"

    def check(self, state: dict[str, list[dict]]) -> list[Violation]:
        confirmed: dict[str, int] = {}
        for row in state.get("reservations", []):
            if row["status"] == "confirmed":
                confirmed[row["hotel"]] = confirmed.get(row["hotel"], 0) + 1
        return [
            Violation(
                self.name,
                f"{hotel['id']!r}: reserved = {hotel['reserved']}, "
                f"confirmed reservations = {confirmed.get(hotel['id'], 0)}",
            )
            for hotel in state.get("hotels", [])
            if hotel["reserved"] != confirmed.get(hotel["id"], 0)
        ]


def hotel_spec(workload: HotelWorkload) -> AppSpec:
    """Build the hotel app over a workload's hotels and cities."""
    in_city: dict[str, list] = {}
    for index in range(workload.num_hotels):
        in_city.setdefault(workload.city_of(index), []).append(
            ("hotels", workload.hotel(index))
        )

    def city_refs(op: SearchOp) -> list:
        return in_city.get(op.city, [])

    def search(ctx, op: SearchOp) -> Generator:
        vacant = []
        for ref in city_refs(op):
            hotel = yield from ctx.get(*ref)
            if hotel["reserved"] < hotel["capacity"]:
                vacant.append(hotel["id"])
        return sorted(vacant)

    return AppSpec(
        name="hotel",
        entities=[EntitySpec("hotels"), EntitySpec("reservations")],
        handlers=[
            HandlerSpec("reserve", _reserve, _reserve_refs, _reserve_refs),
            HandlerSpec("search", search, city_refs, lambda op: ()),
        ],
        invariants=[
            CapacityBoundSpec("hotels", "reserved", minimum=0,
                              bound_field="capacity"),
            _Booked(),
        ],
        initial_rows={"hotels": workload.initial_hotels()},
        route=lambda op: "search" if isinstance(op, SearchOp) else "reserve",
        kind="reserve",
        effect_entity="reservations",
    )
