"""A DeathStarBench-style hotel-reservation workload.

DeathStarBench (paper ref [27]) is the de-facto microservice benchmark;
its hotel-reservation application is the scenario used by Boki and
friends.  We keep its essential data-management shape: a search over
nearby hotels followed by a reservation against finite room capacity.
The app itself, with the capacity invariants that break under lost
isolation (two concurrent reservations both observing the last room),
is :func:`repro.apps.hotel.hotel_spec`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class SearchOp:
    op_id: str
    city: str


@dataclass(frozen=True)
class ReserveOp:
    op_id: str
    hotel: str
    customer: str
    nights: int


@dataclass
class HotelWorkload:
    """Search/reserve mix over a set of hotels with finite capacity."""

    num_hotels: int = 20
    num_cities: int = 4
    capacity_per_hotel: int = 10
    reserve_fraction: float = 0.4
    num_customers: int = 200

    def __post_init__(self) -> None:
        if self.num_hotels <= 0 or self.num_cities <= 0:
            raise ValueError("need hotels and cities")

    @staticmethod
    def hotel(index: int) -> str:
        return f"hotel-{index:03d}"

    def city_of(self, hotel_index: int) -> str:
        return f"city-{hotel_index % self.num_cities}"

    def initial_hotels(self) -> list[dict]:
        return [
            {
                "id": self.hotel(i),
                "city": self.city_of(i),
                "capacity": self.capacity_per_hotel,
                "reserved": 0,
            }
            for i in range(self.num_hotels)
        ]

    def operations(self, rng: random.Random, count: int) -> Iterator[object]:
        for index in range(count):
            op_id = f"hotel-{index:06d}"
            if rng.random() < self.reserve_fraction:
                yield ReserveOp(
                    op_id=op_id,
                    hotel=self.hotel(rng.randrange(self.num_hotels)),
                    customer=f"cust-{rng.randrange(self.num_customers):04d}",
                    nights=rng.randint(1, 5),
                )
            else:
                yield SearchOp(op_id=op_id, city=f"city-{rng.randrange(self.num_cities)}")
