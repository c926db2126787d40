"""Wall-clock execution: the realtime implementation of the timing seam.

The paper's system ran on real Unix hosts; ``KernelConfig(backend="sim")``
replays it on a simulated clock.  This module is the other half of the
:mod:`repro.core.timing` seam: :class:`AsyncioScheduler` runs the *same*
heap of events — it subclasses :class:`~repro.net.simclock.EventLoop`, so
``schedule``/``schedule_at``/``cancel`` and all the lazy-deletion
bookkeeping are shared — but the gap to each due event is a real
``asyncio`` sleep instead of a clock jump.  Transport delivery latencies,
Horus heartbeat/detection delays, and WAL commit windows thereby become
real waits on real timers, and the flow layer's cost models become
measurements instead of prices.

What realtime does and does not guarantee:

* Events still fire one at a time in ``(time, sequence)`` order — the
  callbacks themselves never overlap, so kernel state needs no locking.
* Event *timestamps* are wall-derived and therefore not reproducible:
  two runs of the same seed produce the same logical outcomes (the rng
  streams and callback logic are identical) but different times, and
  events whose scheduled times are closer together than scheduling
  jitter may swap order between runs.  Determinism lives in the sim
  backend; realtime buys honesty, not replayability.
* Late deadlines are forgiven: :meth:`AsyncioScheduler.schedule_at`
  clamps a timestamp that wall time has already passed to "now" (the
  sim loop raises instead — lateness there is a scheduling bug, here it
  is physics).
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional

from repro.core.errors import KernelError
from repro.core.timing import TIME_EPSILON, Label, default_timer
from repro.net.simclock import Event, EventLoop

__all__ = ["AsyncioScheduler", "WallClock"]

#: events due within this many seconds fire immediately instead of
#: sleeping again — below timer resolution, another sleep cannot help
_DUE_SLACK = 1e-6


class WallClock:
    """Monotonic wall-clock time, zeroed at construction.

    ``now`` is real elapsed seconds since the clock was built, with a
    logical floor: ``_advance_to`` (called by the scheduler as it pops
    each event) can raise the floor so that an event observes a ``now``
    at least equal to its own timestamp even when the sleep that led to
    it woke marginally early.  The floor never rewinds, so the clock is
    monotonic like :class:`~repro.net.simclock.SimClock`.
    """

    __slots__ = ("_timer", "_epoch", "_floor")

    def __init__(self, timer: Callable[[], float] = default_timer):
        self._timer = timer
        self._epoch = timer()
        self._floor = 0.0

    @property
    def now(self) -> float:
        """Seconds since construction (never below the logical floor)."""
        return max(self._floor, self._timer() - self._epoch)

    def _advance_to(self, timestamp: float) -> None:
        if timestamp > self._floor:
            self._floor = timestamp

    def __repr__(self) -> str:
        return f"WallClock(now={self.now:.6f})"


class AsyncioScheduler(EventLoop):
    """An :class:`EventLoop` whose inter-event gaps are real asyncio sleeps.

    The heap, sequence numbers, cancellation and ``step()`` execution are
    inherited unchanged — only :meth:`run` and :meth:`run_until` differ:
    they drive the heap from a private ``asyncio`` event loop, awaiting
    ``asyncio.sleep(dt)`` until :meth:`next_event_time` is due and then
    firing that event synchronously with ``step()``.  One event at a
    time, in ``(time, seq)`` order, exactly like the sim loop.

    The owned asyncio loop is created lazily on first run and released by
    :meth:`close` (idempotent; the kernel calls it from ``Kernel.close``).
    """

    def __init__(self, timer: Callable[[], float] = default_timer):
        super().__init__(clock=WallClock(timer))
        self._aio: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False
        #: optional metrics hook (the kernel wires a sketch's ``record``
        #: here): called with each fired event's wake lag in seconds — how
        #: far past its scheduled time the wall clock was when it ran
        self.lag_observe: Optional[Callable[[float], None]] = None

    # -- scheduling ------------------------------------------------------------

    def schedule_at(self, timestamp: float, callback: Callable[..., Any],
                    label: Label = "", args: tuple = ()) -> Event:
        """Run ``callback(*args)`` at wall time *timestamp*, or immediately if past.

        Wall time moves between a caller computing a deadline and this
        call, so a slightly-past timestamp is reality, not a bug: the
        event is clamped to "now" and fires as soon as possible.  (The
        sim loop's strict past-check stays — determinism makes lateness
        diagnosable there.)  A NaN timestamp is still rejected: ``max``
        keeps its first argument when the comparison is unordered, so the
        NaN reaches ``schedule``'s guard.
        """
        return self.schedule(max(timestamp - self.clock.now, 0.0),
                             callback, label, args)

    # -- execution -------------------------------------------------------------

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue on wall clock; returns events executed.

        Blocks the calling thread for real time: the wall duration is
        roughly the horizon of the scheduled events themselves.
        """
        return self._drive(None, max_events)

    def run_until(self, timestamp: float,
                  max_events: Optional[int] = None) -> int:
        """Run events due up to wall time *timestamp* (sleeping out the rest).

        Mirrors the sim loop's contract: events beyond the horizon stay
        queued, the clock's floor ends at *timestamp* on a clean finish,
        and a *max_events* stop with due events still queued leaves the
        clock where the last event left it.
        """
        return self._drive(timestamp, max_events)

    def _drive(self, horizon: Optional[float],
               max_events: Optional[int]) -> int:
        if self._closed:
            raise KernelError("AsyncioScheduler is closed; realtime kernels "
                              "cannot run after close()")
        if self._aio is None:
            self._aio = asyncio.new_event_loop()
        return self._aio.run_until_complete(
            self._drain_realtime(horizon, max_events))

    async def _drain_realtime(self, horizon: Optional[float],
                              max_events: Optional[int]) -> int:
        executed = 0
        while True:
            upcoming = self.next_event_time()
            due = (upcoming is not None
                   and (horizon is None or upcoming <= horizon + TIME_EPSILON))
            if max_events is not None and executed >= max_events:
                if due:
                    return executed  # due events remain: clock stays put
                break  # nothing due: the horizon may still be slept out
            if not due:
                break
            gap = upcoming - self.clock.now
            if gap > _DUE_SLACK:
                await asyncio.sleep(gap)
                continue  # re-peek: the sleep may have been undershot
            if self.lag_observe is not None:
                self.lag_observe(max(0.0, -gap))
            self.step()
            executed += 1
        if horizon is not None:
            remaining = horizon - self.clock.now
            if remaining > _DUE_SLACK:
                await asyncio.sleep(remaining)
            self.clock._advance_to(max(self.clock.now, horizon))
        return executed

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release the owned asyncio loop; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._aio is not None:
            self._aio.close()
            self._aio = None

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"AsyncioScheduler(now={self.clock.now:.6f}, "
                f"pending={self.pending}, processed={self._processed}, "
                f"{state})")
