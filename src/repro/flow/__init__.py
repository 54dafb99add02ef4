"""End-to-end flow control: credits, retry budgets, admission, load signals.

Paper §3 argues that the microservice era's reliability features are
double-edged: timeouts + retries *amplify* load exactly when the system can
least afford it, and buffering brokers hide overload until latency has
already collapsed.  This package is the defense layer the stack threads
through broker → service → database:

- :class:`CreditGate` — a bounded credit counter with FIFO waiters; the
  producer-side primitive behind bounded broker partitions (a producer
  blocks instead of growing the log without bound).
- :class:`RetryBudget` — a token bucket shared by a client's retry loops: a
  retry spends a token, a success refunds a fraction.  When the bucket is
  dry the client stops retrying — the circuit that prevents retry storms.
- :class:`AdmissionController` — load-shedding admission control with
  priority classes: low-priority work is rejected first (with the distinct
  :class:`AdmissionRejected`), and rejection is cheap by construction —
  shed work never reaches the expensive resource.
- :class:`LoadSignal` — a virtual-time-windowed EWMA of operation rate,
  the same fold (``alpha * window + (1 - alpha) * ewma``) the cluster
  rebalancer's :class:`~repro.cluster.stats.ShardStats` uses, so any
  component that measures its own rate and the shard rebalancer react to
  one consistent notion of load.

See ``docs/OVERLOAD.md`` for the full design and ``benchmarks/
bench_c15_overload.py`` for the overload ramp that motivates it.
"""

from repro.flow.admission import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    AdmissionController,
    AdmissionRejected,
    AdmissionStats,
)
from repro.flow.budget import RetryBudget
from repro.flow.credits import CreditGate
from repro.flow.signal import LoadSignal

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "AdmissionStats",
    "CreditGate",
    "LoadSignal",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "RetryBudget",
]
