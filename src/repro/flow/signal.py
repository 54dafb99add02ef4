"""A virtual-time-windowed EWMA load signal.

One smoothing formula for the whole stack: the fold is *identical* to the
cluster rebalancer's :class:`repro.cluster.stats.ShardStats`
(``load = alpha * window + (1 - alpha) * load`` at every window roll, and
the live read includes ``alpha * window`` so cold starts see data), so the
admission controller's introspection and shard rebalancing react to the
same notion of "load".  Windows roll lazily off the virtual clock — no background
process, no events, therefore zero effect on simulated behaviour: a
consumer that never reads the signal leaves the event schedule
byte-identical.
"""

from __future__ import annotations

from repro.sim import Environment


class LoadSignal:
    """Operations per ``window_ms`` window, EWMA-smoothed across rolls."""

    def __init__(
        self,
        env: Environment,
        window_ms: float = 10.0,
        alpha: float = 0.5,
    ) -> None:
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must be in (0, 1]")
        self.env = env
        self.window_ms = window_ms
        self.alpha = alpha
        self._window = 0.0
        self._ewma = 0.0
        self._window_start = env.now
        self.windows_rolled = 0

    def _roll_to_now(self) -> None:
        """Fold every fully elapsed window into the EWMA (lazy roll)."""
        elapsed = self.env.now - self._window_start
        if elapsed < self.window_ms:
            return
        alpha = self.alpha
        whole = int(elapsed / self.window_ms)
        # The first elapsed window folds the recorded count; any further
        # fully idle windows fold zeros (same as ShardStats rolling with an
        # empty window each tick).
        self._ewma = alpha * self._window + (1.0 - alpha) * self._ewma
        self._window = 0.0
        for _ in range(min(whole - 1, 64)):  # 64 idle rolls ≈ signal is dead
            if self._ewma < 1e-9:
                self._ewma = 0.0
                break
            self._ewma *= 1.0 - alpha
        self._window_start += whole * self.window_ms
        self.windows_rolled += whole

    def record(self, cost: float = 1.0) -> None:
        """Charge ``cost`` against the current window."""
        self._roll_to_now()
        self._window += cost

    def load(self) -> float:
        """Smoothed ops-per-window; includes the live window like ShardStats."""
        self._roll_to_now()
        return self._ewma + self.alpha * self._window
