"""YCSB-style key-value workloads with zipfian skew.

The operation mixes follow the YCSB core workloads (A: 50/50 read/update,
B: 95/5, C: read-only, ...); keys are drawn from the classic Gray et al.
zipfian generator so that contention is tunable via ``theta``.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, Optional


class ZipfianGenerator:
    """Zipf-distributed integers in ``[0, n)`` (Gray et al. / YCSB method).

    ``theta`` near 0 is uniform; the YCSB default 0.99 is heavily skewed.
    """

    def __init__(self, n: int, theta: float = 0.99) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        if not 0 <= theta < 1:
            raise ValueError("theta must be in [0, 1)")
        self.n = n
        self.theta = theta
        self._zetan = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        if n <= 2:
            # Gray's method divides by zero for tiny n; sample exactly.
            weights = [1.0 / (i ** theta) for i in range(1, n + 1)]
            total = sum(weights)
            self._small_cdf = []
            acc = 0.0
            for weight in weights:
                acc += weight / total
                self._small_cdf.append(acc)
            return
        self._small_cdf = None
        self._second = 1.0 + 0.5 ** theta  # u * zetan below this draws item 1
        self._alpha = 1.0 / (1.0 - theta)
        zeta2 = sum(1.0 / (i ** theta) for i in range(1, min(3, n + 1)))
        self._eta = (1 - (2.0 / n) ** (1 - theta)) / (1 - zeta2 / self._zetan)

    def next(self, rng: random.Random) -> int:
        u = rng.random()
        if self._small_cdf is not None:
            for index, bound in enumerate(self._small_cdf):
                if u <= bound:
                    return index
            return self.n - 1
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < self._second:
            return 1
        return int(self.n * ((self._eta * u) - self._eta + 1) ** self._alpha)

    def sample_distinct(self, rng: random.Random, count: int) -> list[int]:
        """``count`` distinct zipf-distributed values (for multi-key txns)."""
        if count > self.n:
            raise ValueError("cannot sample more distinct keys than exist")
        seen: set[int] = set()
        while len(seen) < count:
            seen.add(self.next(rng))
        return sorted(seen)


@dataclass(frozen=True)
class YcsbOp:
    """One abstract operation: the adapter decides how to run it."""

    kind: str  # "read" | "update" | "insert" | "scan" | "rmw"
    key: str
    value: Optional[dict] = None


_MIXES = {
    "A": {"read": 0.5, "update": 0.5},
    "B": {"read": 0.95, "update": 0.05},
    "C": {"read": 1.0},
    "D": {"read": 0.95, "insert": 0.05},
    "E": {"scan": 0.95, "insert": 0.05},
    "F": {"read": 0.5, "rmw": 0.5},
}


@dataclass
class YcsbWorkload:
    """A YCSB core workload instance.

    ``mix`` is a letter A–F or a custom ``{kind: fraction}`` dict.
    """

    record_count: int = 1000
    mix: object = "A"
    theta: float = 0.99
    value_size: int = 8

    def __post_init__(self) -> None:
        if isinstance(self.mix, str):
            if self.mix not in _MIXES:
                raise ValueError(f"unknown YCSB mix {self.mix!r}")
            self._fractions = _MIXES[self.mix]
        else:
            self._fractions = dict(self.mix)
        total = sum(self._fractions.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mix fractions sum to {total}, expected 1.0")
        self._zipf = ZipfianGenerator(self.record_count, self.theta)
        self._insert_counter = self.record_count

    @staticmethod
    def key_of(index: int) -> str:
        return f"user{index:08d}"

    def initial_rows(self) -> list[dict]:
        """Rows to load before the run."""
        return [
            {"id": self.key_of(i), "field0": "x" * self.value_size}
            for i in range(self.record_count)
        ]

    def operations(self, rng: random.Random, count: int) -> Iterator[YcsbOp]:
        """Generate ``count`` operations according to the mix."""
        kinds = list(self._fractions)
        # rng.choices(kinds, weights=...) re-accumulates the weights on every
        # call; this is its body with that hoisted: one random() per op.
        cumulative = list(accumulate(self._fractions.values()))
        total = cumulative[-1] + 0.0
        last = len(kinds) - 1
        for _ in range(count):
            kind = kinds[bisect(cumulative, rng.random() * total, 0, last)]
            if kind == "insert":
                self._insert_counter += 1
                yield YcsbOp(
                    "insert",
                    self.key_of(self._insert_counter),
                    {"field0": "y" * self.value_size},
                )
            elif kind == "scan":
                yield YcsbOp("scan", self.key_of(self._zipf.next(rng)))
            else:
                key = self.key_of(self._zipf.next(rng))
                value = {"field0": "z" * self.value_size} if kind in ("update", "rmw") else None
                yield YcsbOp(kind, key, value)
