"""End-to-end flow control: credits, retry budgets, admission.

Paper §3 argues that the microservice era's reliability features are
double-edged: timeouts + retries *amplify* load exactly when the system can
least afford it, and buffering brokers hide overload until latency has
already collapsed.  This package is the defense layer the stack threads
through broker → service → database:

- :class:`CreditGate` — a bounded credit counter with FIFO waiters: a
  producer blocks instead of growing a queue without bound.  No runtime
  holds one yet; it is the primitive for bounding binder ingress.
- :class:`RetryBudget` — a token bucket shared by a client's retry loops: a
  retry spends a token, a success refunds a fraction.  When the bucket is
  dry the client stops retrying — the circuit that prevents retry storms.
- :class:`AdmissionController` — load-shedding admission control with
  priority classes: low-priority work is rejected first (the RPC server
  answers it with a distinct rejection, never a timeout), and rejection is
  cheap by construction — shed work never reaches the expensive resource.

See ``docs/OVERLOAD.md`` for the full design and ``benchmarks/
bench_c15_overload.py`` for the overload ramp that motivates it.
"""

from repro.flow.admission import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    AdmissionController,
    AdmissionStats,
)
from repro.flow.budget import RetryBudget
from repro.flow.credits import CreditGate

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "CreditGate",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "RetryBudget",
]
