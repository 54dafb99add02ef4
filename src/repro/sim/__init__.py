"""Deterministic discrete-event simulation kernel.

Every runtime in :mod:`repro` (microservices, actors, FaaS, dataflows) runs
on this kernel.  It provides a virtual clock, generator-based cooperative
processes, futures, timeouts, interrupts, and seeded random streams, so that
every experiment in the benchmark suite is exactly reproducible from a seed.

The programming model is the classic SimPy style: a *process* is a Python
generator that yields awaitables (futures, timeouts, or other processes) and
is resumed by the environment when the awaited event fires::

    env = Environment(seed=42)

    def worker(env):
        yield env.timeout(5)
        return "done"

    proc = env.process(worker(env))
    env.run()
    assert proc.result() == "done"
"""

from repro.sim.events import Future, all_of, any_of
from repro.sim.environment import (
    CrashScope,
    Environment,
    Interrupted,
    Process,
    SimulationError,
)
from repro.sim.resources import Channel, Lock, Semaphore

__all__ = [
    "Channel",
    "CrashScope",
    "Environment",
    "Future",
    "Interrupted",
    "Lock",
    "Process",
    "Semaphore",
    "SimulationError",
    "all_of",
    "any_of",
]
