"""EWMA arrival-rate estimation for flow control.

A :class:`RateEstimator` watches one traffic stream (in practice: one
(source, destination) outbox) and maintains exponentially weighted moving
averages of the inter-arrival gap and the per-message payload size.  The
derived ``message_rate`` / ``bytes_rate`` are what the
:class:`~repro.flow.controller.FlowController` sizes batch windows from.

The estimator is deliberately tiny and allocation-free per observation —
it sits on the delivery fabric's per-post hot path.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["RateEstimator", "EWMA_ALPHA"]

#: floor on an observed inter-arrival gap: two posts in the same simulated
#: instant are "infinitely hot", not a division by zero
MIN_GAP = 1e-9

#: EWMA smoothing factor: the weight of the newest observation
EWMA_ALPHA = 0.2


class RateEstimator:
    """EWMA message and byte arrival rates for one traffic stream."""

    __slots__ = ("events", "_last_at", "_mean_gap", "_mean_bytes")

    def __init__(self):
        #: total observations ever fed in
        self.events = 0
        self._last_at: Optional[float] = None
        self._mean_gap: Optional[float] = None
        self._mean_bytes: float = 0.0

    def observe(self, now: float, size_bytes: int = 0) -> None:
        """Feed one arrival at simulated time *now* carrying *size_bytes*."""
        self.events += 1
        if self.events == 1:
            self._mean_bytes = float(size_bytes)
        else:
            self._mean_bytes += EWMA_ALPHA * (size_bytes - self._mean_bytes)
        if self._last_at is not None:
            gap = max(now - self._last_at, MIN_GAP)
            if self._mean_gap is None:
                self._mean_gap = gap
            else:
                self._mean_gap += EWMA_ALPHA * (gap - self._mean_gap)
        self._last_at = now

    @property
    def message_rate(self) -> float:
        """Estimated arrivals per simulated second (0.0 until two arrivals)."""
        if self._mean_gap is None:
            return 0.0
        return 1.0 / max(self._mean_gap, MIN_GAP)

    @property
    def bytes_rate(self) -> float:
        """Estimated payload bytes per simulated second."""
        return self.message_rate * self._mean_bytes

    @property
    def mean_bytes(self) -> float:
        """EWMA payload bytes per message."""
        return self._mean_bytes

    def __repr__(self) -> str:
        return (f"RateEstimator({self.events} events, "
                f"{self.message_rate:.3g} msg/s, {self.bytes_rate:.3g} B/s)")
