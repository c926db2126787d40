"""Per-destination adaptive batch windows.

The delivery fabric used to run one global flush window for every
(source, destination) pair — tuned for the hot pair it over-delays the
trickle pairs' coalescing; tuned for the trickle pairs it sits on the hot
pair's full batches.  The :class:`FlowController` replaces the single knob
with a per-pair window derived from observed traffic:

    ideal window = target_batch / estimated message rate

clamped into ``[window_min, window_max]``.  A hot pair (high rate) gets a
tight window — its batches fill fast, so a short window still coalesces
well while bounding latency; a trickle pair (low rate) gets a wide window,
because only a wide window gives its messages any chance to share a wire
message at all.

Adaptive mode is on when ``window_max > 0``; otherwise every pair gets the
fixed ``base_window`` and the controller is a transparent pass-through,
which is exactly the pre-flow fabric behaviour.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.flow.rates import RateEstimator

__all__ = ["FlowController", "FlowState"]

#: an outbox identity: (source site, destination site)
FlowKey = Tuple[str, str]


class FlowState:
    """Live flow-control state for one (source, destination) pair."""

    __slots__ = ("estimator", "window")

    def __init__(self, estimator: RateEstimator, window: float):
        self.estimator = estimator
        #: the pair's current batch window in simulated seconds
        self.window = window

    def __repr__(self) -> str:
        return f"FlowState(window={self.window:.4g}, {self.estimator!r})"


class FlowController:
    """Sizes each (source, destination) pair's batch window from its traffic."""

    def __init__(self, base_window: float = 0.0, window_min: float = 0.0,
                 window_max: float = 0.0, target_batch: int = 8):
        #: the fixed/global window: used verbatim when adaptive mode is off,
        #: and as the seed window for pairs with no rate estimate yet
        self.base_window = base_window
        #: adaptive window bounds; adaptive mode is on iff ``window_max > 0``
        self.window_min = window_min
        self.window_max = window_max
        #: how many messages a window should ideally coalesce
        self.target_batch = target_batch
        self._flows: Dict[FlowKey, FlowState] = {}
        #: how often a derived window hit the floor / ceiling (the signal
        #: that the configured bounds, not the traffic, are setting windows)
        self.clamped_min = 0
        self.clamped_max = 0

    # -- configuration -----------------------------------------------------

    @property
    def adaptive(self) -> bool:
        """True when per-pair windows are derived from traffic rates."""
        return self.window_max > 0

    def configure(self, base_window: Optional[float] = None,
                  window_min: Optional[float] = None,
                  window_max: Optional[float] = None,
                  target_batch: Optional[int] = None) -> None:
        """Update the controller's parameters (None = keep the current value).

        Validation (non-negative bounds, min <= max) is the caller's job —
        the transport raises ``TransportError`` and the kernel
        ``KernelError`` with their layer's diagnostics — but the controller
        still refuses an inverted window range outright, since running with
        one would make every clamp nonsensical.
        """
        new_min = self.window_min if window_min is None else float(window_min)
        new_max = self.window_max if window_max is None else float(window_max)
        if new_max > 0 and new_min > new_max:
            # Validate before assigning anything: a refused range must not
            # leave the controller holding the bounds it just rejected.
            raise ValueError(f"window_min {new_min} > window_max {new_max}")
        if base_window is not None:
            self.base_window = float(base_window)
        self.window_min = new_min
        self.window_max = new_max
        if target_batch is not None:
            self.target_batch = int(target_batch)
        # Re-derive every live window under the new rules so a resize takes
        # effect immediately (the transport reconciles armed outboxes right
        # after), not only at each pair's next post.
        for state in self._flows.values():
            rate = state.estimator.message_rate
            ideal = self.target_batch / rate if (self.adaptive and rate > 0) \
                else self.base_window
            state.window = self._clamp(ideal)

    # -- the hot path ------------------------------------------------------

    def observe(self, key: FlowKey, now: float, size_bytes: int = 0) -> FlowState:
        """Feed one posted message for *key*; returns its updated state."""
        state = self._flows.get(key)
        if state is None:
            state = self._flows[key] = FlowState(
                RateEstimator(), self._clamp(self.base_window))
        state.estimator.observe(now, size_bytes)
        if self.adaptive:
            rate = state.estimator.message_rate
            if rate > 0:
                state.window = self._clamp(self.target_batch / rate)
        return state

    def window_for(self, key: FlowKey) -> float:
        """The batch window the pair should currently run."""
        if not self.adaptive:
            return self.base_window
        state = self._flows.get(key)
        if state is None:
            return self._clamp(self.base_window)
        # Clamp at read time too: bounds may have been reconfigured since
        # the window was last derived from the pair's rate.
        return self._clamp(state.window)

    def _clamp(self, window: float) -> float:
        if not self.adaptive:
            return window
        if window < self.window_min:
            self.clamped_min += 1
            return self.window_min
        if window > self.window_max:
            self.clamped_max += 1
            return self.window_max
        return window

    def metrics(self) -> Dict[str, float]:
        """Registry source (``kernel.metrics``): clamp counters + pair count."""
        return {
            "flow_window_clamped_min": self.clamped_min,
            "flow_window_clamped_max": self.clamped_max,
            "flow_pairs_tracked": len(self._flows),
        }

    # -- lifecycle ---------------------------------------------------------

    def reset_site(self, site_name: str) -> int:
        """Drop flow state for every pair touching *site_name* (crash/recovery).

        A recovered destination starts from the seed window: its pre-crash
        arrival rate described traffic that died with the crash, and a
        stale tight window would mis-batch the first post-recovery trickle.
        Returns how many pairs were reset.
        """
        stale = [key for key in self._flows if site_name in key]
        for key in stale:
            del self._flows[key]
        return len(stale)

    def reset(self) -> None:
        """Drop all flow state (tests, full reconfiguration)."""
        self._flows.clear()

    # -- introspection -----------------------------------------------------

    def state(self, key: FlowKey) -> Optional[FlowState]:
        """The live state for *key*, or None if the pair has no history."""
        return self._flows.get(key)

    def telemetry(self) -> Dict[FlowKey, Dict[str, float]]:
        """Per-pair window/rate snapshot (what the stats layer publishes)."""
        return {
            key: {
                "window": state.window if self.adaptive else self.base_window,
                "message_rate": state.estimator.message_rate,
                "bytes_rate": state.estimator.bytes_rate,
                "messages": state.estimator.events,
                "bytes": state.estimator.bytes_total,
            }
            for key, state in self._flows.items()
        }

    def __len__(self) -> int:
        return len(self._flows)

    def __repr__(self) -> str:
        mode = (f"adaptive [{self.window_min:g}, {self.window_max:g}]"
                if self.adaptive else f"fixed {self.base_window:g}")
        return f"FlowController({mode}, {len(self._flows)} pairs)"
