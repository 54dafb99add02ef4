"""Latency distributions for network links and storage devices.

All times are virtual milliseconds.  Distributions are sampled from a
caller-supplied :class:`random.Random` stream so that network jitter does
not perturb other random decisions in the simulation.
"""

from __future__ import annotations

import math
import random
from typing import Callable

Sampler = Callable[[random.Random], float]


class Latency:
    """Factory for latency samplers.

    A sampler is a callable taking an RNG and returning a non-negative
    delay in virtual milliseconds.
    """

    @staticmethod
    def constant(value: float) -> Sampler:
        """A fixed delay."""
        if value < 0:
            raise ValueError("latency must be non-negative")
        return lambda rng: value

    @staticmethod
    def uniform(low: float, high: float) -> Sampler:
        """Uniformly distributed delay in ``[low, high]``."""
        if not 0 <= low <= high:
            raise ValueError("need 0 <= low <= high")
        return lambda rng: rng.uniform(low, high)

    @staticmethod
    def lognormal(median: float, sigma: float = 0.25) -> Sampler:
        """Log-normal delay — the classic long-tailed datacenter RTT shape.

        ``median`` is the 50th percentile of the resulting distribution.
        """
        if median <= 0:
            raise ValueError("median must be positive")
        mu = math.log(median)
        return lambda rng: rng.lognormvariate(mu, sigma)

    @staticmethod
    def shifted_exponential(base: float, mean_extra: float) -> Sampler:
        """A floor of ``base`` plus an exponential tail — disk/SSD-like."""
        if base < 0 or mean_extra <= 0:
            raise ValueError("base must be >= 0 and mean_extra > 0")
        return lambda rng: base + rng.expovariate(1.0 / mean_extra)

    # Named profiles used as defaults throughout the repo.  Values follow
    # the ratios in DESIGN.md §4 (intra-zone RPC ~1ms median, object store
    # ~10ms, cold start ~150ms) — it is the *ratios* that drive conclusions.

    @staticmethod
    def intra_zone() -> Sampler:
        """Same-availability-zone network hop (~0.5–1.5 ms)."""
        return Latency.lognormal(0.8, 0.3)

    @staticmethod
    def local_disk() -> Sampler:
        """Local SSD write (~0.1–0.4 ms)."""
        return Latency.shifted_exponential(0.1, 0.1)

    @staticmethod
    def object_store() -> Sampler:
        """Cloud object storage round trip (~5–30 ms)."""
        return Latency.shifted_exponential(5.0, 6.0)
