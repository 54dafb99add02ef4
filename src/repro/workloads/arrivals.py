"""Arrival processes: open and closed system models.

Schroeder, Wierman & Harchol-Balter (NSDI'06, paper ref [56]) showed that
whether a benchmark models arrivals as *open* (requests arrive by a clock,
regardless of completions) or *closed* (a fixed client population with
think time) changes its conclusions.  Benchmark C9 reproduces that; every
other benchmark states which model it uses.

Each process drives an ``issue(op_index) -> Generator`` callback supplied
by the harness; the callback performs one operation end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

from repro.sim import Environment, Interrupted

IssueFn = Callable[[int], Generator]


@dataclass
class OpenLoop:
    """Poisson arrivals at ``rate_per_s``, independent of completions.

    The defining property: queueing delay does not throttle new arrivals,
    so an overloaded system's latency grows without bound.
    """

    rate_per_s: float
    total_ops: int

    def drive(self, env: Environment, issue: IssueFn) -> Generator:
        """Spawn one process per arrival; returns when all ops complete."""
        if self.rate_per_s <= 0 or self.total_ops <= 0:
            raise ValueError("rate_per_s and total_ops must be positive")
        rng = env.stream("open-arrivals")
        mean_gap_ms = 1000.0 / self.rate_per_s
        running = []
        for index in range(self.total_ops):
            yield env.timeout(rng.expovariate(1.0 / mean_gap_ms))
            running.append(env.process(issue(index), label=f"op-{index}"))
        for process in running:
            if process.done:
                continue
            try:
                yield process
            except Interrupted:
                raise
            except Exception:  # noqa: BLE001 - op failures already recorded
                pass

    @property
    def name(self) -> str:
        return f"open({self.rate_per_s}/s)"


@dataclass
class ClosedLoop:
    """A fixed population of clients: issue, wait, think, repeat.

    The defining property: completions gate arrivals, so the offered load
    self-throttles under slowdown — flattering to slow systems.
    """

    clients: int
    ops_per_client: int
    think_time_ms: float = 10.0

    def drive(self, env: Environment, issue: IssueFn) -> Generator:
        if self.clients <= 0 or self.ops_per_client <= 0:
            raise ValueError("clients and ops_per_client must be positive")
        rng = env.stream("closed-arrivals")

        def client(client_index: int) -> Generator:
            for i in range(self.ops_per_client):
                op_index = client_index * self.ops_per_client + i
                try:
                    yield from issue(op_index)
                except Interrupted:
                    raise
                except Exception:  # noqa: BLE001 - client moves on after failure
                    pass
                if self.think_time_ms > 0:
                    yield env.timeout(rng.expovariate(1.0 / self.think_time_ms))

        processes = [
            env.process(client(c), label=f"client-{c}") for c in range(self.clients)
        ]
        for process in processes:
            if not process.done:
                yield process

    @property
    def total_ops(self) -> int:
        return self.clients * self.ops_per_client

    @property
    def name(self) -> str:
        return f"closed({self.clients} clients)"
