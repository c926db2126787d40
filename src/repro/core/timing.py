"""The clock/scheduler seam every layer times itself against.

TACOMA's subsystems — transports, stores, failure detectors, shard
coordinators — all reduce their notion of time to three operations:
"what time is it", "run this at T", and "run this after dt".  This
module names that contract explicitly:

* :class:`Clock` — a monotonic source of "now" in seconds.
* :class:`Scheduler` — an event queue that orders callbacks by
  ``(time, sequence)`` and drives a :class:`Clock` forward as it runs.
* :class:`ScheduledEvent` — the cancellable handle a scheduler returns.

Two implementations exist:

* :class:`~repro.net.simclock.SimClock` / :class:`~repro.net.simclock.EventLoop`
  — the deterministic discrete-event pair every test and benchmark runs
  on (``KernelConfig(backend="sim")``, the default).  Time advances only
  when events fire; identical seeds give bit-identical runs.
* :class:`~repro.rt.WallClock` / :class:`~repro.rt.AsyncioScheduler` —
  the wall-clock pair (``backend="realtime"``): the same heap of events,
  but each gap to the next due event is a real ``asyncio`` sleep, so
  scheduled latencies become measured latencies.

The protocols are structural (:func:`typing.runtime_checkable`
:class:`typing.Protocol`): any object with the right surface satisfies
them, no inheritance required.  Components should annotate against these
types rather than importing ``EventLoop`` directly.

:data:`default_timer` is the one process-wide wall-clock timer used for
measuring real elapsed time (benchmark walls, shard busy-time
attribution).  Components take it as an injectable
``timer: Callable[[], float] = default_timer`` parameter so tests can
substitute fake timers.
"""

from __future__ import annotations

import time
from typing import (Any, Callable, Iterable, List, Optional, Protocol,
                    Sequence, Tuple, Union, runtime_checkable)

__all__ = ["Clock", "Label", "ScheduledEvent", "Scheduler", "default_timer",
           "PAST_EPSILON", "TIME_EPSILON"]

#: timestamps this far in the past are forgiven (float jitter from callers
#: computing ``now + dt - dt``); anything older is a scheduling bug under
#: the sim backend.  The realtime scheduler is more forgiving — wall time
#: moves between computing a deadline and scheduling it — and clamps late
#: timestamps to "now" instead.
PAST_EPSILON = 1e-9

#: float slack when an event time is compared with a run horizon ("due by
#: T" includes T plus this) or with the clock ("backwards" means by more
#: than this) — three orders tighter than :data:`PAST_EPSILON` because these
#: compare values the scheduler computed itself, not caller arithmetic.
TIME_EPSILON = 1e-12

#: an event label: a string, or a tuple of parts that is joined with "-"
#: only if the event is printed (hot callers skip the per-event formatting)
Label = Union[str, Tuple[Any, ...]]

#: the process-wide wall-clock timer: monotonic, high-resolution seconds.
#: The single default behind every ``timer=`` parameter in the codebase.
default_timer: Callable[[], float] = time.perf_counter


@runtime_checkable
class Clock(Protocol):
    """A monotonic source of "now" in seconds.

    ``_advance_to`` is the scheduler-facing half of the contract: the
    simulated clock literally jumps to the event's timestamp, while the
    wall clock only raises a logical floor (real time has already
    passed).  It never moves backwards.
    """

    @property
    def now(self) -> float:
        """Current time in seconds."""
        ...

    def _advance_to(self, timestamp: float) -> None:
        """Advance (never rewind) the clock to *timestamp*."""
        ...


@runtime_checkable
class ScheduledEvent(Protocol):
    """The cancellable handle a :class:`Scheduler` returns."""

    time: float
    cancelled: bool

    def cancel(self) -> None:
        """Prevent the callback from firing; idempotent."""
        ...


@runtime_checkable
class Scheduler(Protocol):
    """An event queue ordering callbacks by ``(time, sequence)``.

    Everything that looks like concurrency in the agent system — meets,
    migrations, delivery latencies, heartbeats, group commits — is a
    callback scheduled here.  Same-timestamp events fire in scheduling
    order, which is what keeps the sim backend deterministic and the
    realtime backend faithful to it.  An event fires as ``callback(*args)``:
    a bound method plus a tuple, not a closure or ``partial`` per event.
    """

    clock: Clock

    @property
    def now(self) -> float:
        """Current time (convenience mirror of ``clock.now``)."""
        ...

    @property
    def pending(self) -> int:
        """Not-yet-cancelled events still queued."""
        ...

    @property
    def processed(self) -> int:
        """Events executed so far."""
        ...

    def schedule(self, delay: float, callback: Callable[..., Any],
                 label: Label = "", args: tuple = ()) -> ScheduledEvent:
        """Run ``callback(*args)`` after *delay* seconds."""
        ...

    def schedule_many(self, entries: Iterable[Sequence]) -> List[ScheduledEvent]:
        """Schedule a batch of ``(delay, callback[, label[, args]])`` entries."""
        ...

    def schedule_at(self, timestamp: float, callback: Callable[..., Any],
                    label: Label = "", args: tuple = ()) -> ScheduledEvent:
        """Run ``callback(*args)`` at absolute time *timestamp*."""
        ...

    def step(self) -> bool:
        """Execute the next event; False when the queue is empty."""
        ...

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or *max_events* fire)."""
        ...

    def run_until(self, timestamp: float,
                  max_events: Optional[int] = None) -> int:
        """Run events with time <= *timestamp*."""
        ...

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest live event, or None."""
        ...
