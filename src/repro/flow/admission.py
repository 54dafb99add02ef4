"""Load-shedding admission control with priority classes.

Shedding at the door is the only overload defense whose cost does not grow
with load: a rejected request consumes O(1) work, while a queued one holds
memory, a timeout slot, and eventually a retry.  The controller bounds
concurrent in-flight work and rejects by priority — low-priority work is
turned away while the system still has headroom for high-priority work,
so goodput degrades by *class* instead of collapsing across the board.

A rejection is a distinct, typed reply (the RPC server answers a shed
request with ``code="rejected"``, raised to the caller as
:class:`~repro.messaging.rpc.RpcRejected`), never a timeout: callers must
be able to tell "the system refused cheaply" from "the system may have
done the work" — rejected work definitely did not execute, which the
chaos oracle for the overload scenario relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Priority classes, higher admits later (sheds last).
PRIORITY_LOW = 0
PRIORITY_NORMAL = 1
PRIORITY_HIGH = 2


@dataclass
class AdmissionStats:
    completed: int = 0
    #: rejected requests by priority class (the shed counter)
    shed: dict[int, int] = field(default_factory=dict)

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())


#: priority class -> the fraction of ``max_inflight`` it may fill
WATERMARKS = {PRIORITY_LOW: 0.5, PRIORITY_NORMAL: 0.9, PRIORITY_HIGH: 1.0}


class AdmissionController:
    """Bounds concurrent in-flight requests, shedding low priority first.

    ``max_inflight`` is the hard concurrency limit; each priority class is
    admitted only while in-flight work is below its ``WATERMARKS``
    fraction of that limit (low 50%, normal 90%, high 100%).  Callers wrap
    work in ``try_admit``/``release``::

        if not controller.try_admit(priority):
            ... reject ...
        try:
            ... do the work ...
        finally:
            controller.release()
    """

    def __init__(
        self,
        max_inflight: int,
        name: str = "admission",
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.name = name
        self.max_inflight = max_inflight
        self.inflight = 0
        self.stats = AdmissionStats()

    def limit_for(self, priority: int) -> int:
        """Admission ceiling for a priority class (at least 1 slot)."""
        fraction = WATERMARKS.get(priority, 1.0)
        return max(1, int(self.max_inflight * fraction))

    def try_admit(self, priority: int = PRIORITY_NORMAL) -> bool:
        """Admit if the class has headroom; ``False`` means shed."""
        limit = self.limit_for(priority)
        if self.inflight >= limit:
            self.stats.shed[priority] = self.stats.shed.get(priority, 0) + 1
            return False
        self.inflight += 1
        return True

    def release(self) -> None:
        """Mark one admitted request complete (success or failure)."""
        if self.inflight <= 0:
            raise RuntimeError(f"{self.name}: release() without admit()")
        self.inflight -= 1
        self.stats.completed += 1
