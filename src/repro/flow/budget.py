"""Retry budgets: a token bucket that starves retry storms.

The failure mode (paper §3.1): every caller retries independently, so at
the moment the system is slowest each logical request turns into N
physical ones — offered load *multiplies* exactly at saturation.  A retry
budget couples the retry rate to the success rate instead: retries spend
from a bounded bucket that only successes refill, so a healthy system
retries freely while a saturated one quickly stops adding fuel.

The bucket is intentionally client-wide (share one instance across all of
a client's calls): the point is to bound the *aggregate* retry traffic a
client injects, not to ration per call.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RetryBudget:
    """Token bucket: a retry spends 1 token, a success refunds ``refund``.

    Parameters
    ----------
    capacity:
        Maximum (and initial) token count.  A fresh budget allows a burst
        of ``capacity`` retries before any success is required.
    refund:
        Tokens credited per successful call (fractional; the classic
        "retry ratio" — ``refund=0.1`` sustains roughly one retry per ten
        successes once the initial burst is spent).
    """

    capacity: float = 10.0
    refund: float = 0.1

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if self.refund < 0:
            raise ValueError("refund must be >= 0")
        self.tokens = float(self.capacity)
        self.refunded = 0

    def try_spend(self) -> bool:
        """Take one token for a retry; ``False`` (and no retry) when dry."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def on_success(self) -> None:
        """Refund a fraction of a token, capped at ``capacity``."""
        self.tokens = min(float(self.capacity), self.tokens + self.refund)
        self.refunded += 1

