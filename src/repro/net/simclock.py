"""Discrete-event simulation clock and event queue.

Every component of the reproduction — sites, transports, agents, failure
schedules — runs on one :class:`EventLoop`.  Time is simulated seconds
(floats).  Events at the same timestamp fire in the order they were
scheduled, which keeps runs deterministic for a fixed random seed.

The loop is the kernel's hottest path (one or more events per agent
step), so its fixed costs are kept out of the interpreter:

* **Heap entries are ``(time, seq, event)`` tuples.**  ``heapq`` orders
  them by comparing a float and, on ties, an int — both in C.  ``seq`` is
  unique, so a comparison never reaches the :class:`Event` itself, which
  therefore defines no ordering of its own.
* **One drain loop.**  :meth:`EventLoop.run`, :meth:`~EventLoop.run_until`
  and :meth:`~EventLoop.step` are the same loop (:meth:`EventLoop._drain`)
  with a different horizon and budget: peek the head, drop it if
  cancelled, stop if it lies beyond the horizon, otherwise pop, advance
  the clock and fire — no per-event method calls besides the clock's.
* **Lazy cancellation.**  :class:`Event` is a ``__slots__`` class;
  cancelling marks it and leaves the entry in place, ``pending`` is an
  O(1) counter, and cancelled entries are purged in bulk (in place) once
  they outnumber half the heap instead of being paid for on every pop.
* **Lazy labels.**  A label is a string or a tuple of parts; parts are
  joined with ``-`` only if the event is ever printed, so hot callers
  pass ``("wake", agent_id)`` instead of formatting a string per event.
* **No ``partial`` per event.**  An event is ``(callback, args)`` and fires
  as ``callback(*args)``: hot callers pass a bound method and a tuple where
  a ``functools.partial`` would be one more collector-tracked object each.

Every engine runs on one :class:`EventLoop`; there is no other
execution backend.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import KernelError
from repro.core.timing import PAST_EPSILON, TIME_EPSILON, Label

__all__ = ["Event", "EventLoop", "SimClock"]


class SimClock:
    """Monotonic simulated clock, advanced only by the event loop.

    ``now`` — current simulated time in seconds — is a plain attribute, not
    a property: it is read several times per event.  Only
    :meth:`_advance_to` writes it.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def _advance_to(self, timestamp: float) -> None:
        if timestamp > self.now:
            self.now = timestamp
        elif timestamp < self.now - TIME_EPSILON:
            raise KernelError(
                f"clock cannot move backwards ({timestamp} < {self.now})")

    def __repr__(self) -> str:
        return f"SimClock(now={self.now:.6f})"


class Event:
    """A scheduled callback: the cancellable handle ``schedule`` returns.

    Firing order is (time, sequence number), carried by the heap entry
    ``(time, seq, event)`` rather than by comparing events.  Plain
    ``__slots__`` class rather than a dataclass: millions of these are
    created per benchmark run and the slot layout roughly halves the
    per-event memory and construction cost.
    """

    __slots__ = ("time", "seq", "callback", "args", "label", "cancelled", "_loop")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any],
                 label: Label = "", cancelled: bool = False,
                 _loop: Optional["EventLoop"] = None, args: tuple = ()):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.label = label
        self.cancelled = cancelled
        self._loop = _loop

    def cancel(self) -> None:
        """Prevent the callback from firing (the heap entry stays, inert).

        Cancelling an event that already fired (or left the heap) is a
        no-op: the loop clears ``_loop`` when it pops an entry, so a late
        cancel cannot corrupt the live/dead counters.
        """
        if self.cancelled:
            return
        self.cancelled = True
        loop, self._loop = self._loop, None
        if loop is not None:
            loop._note_cancelled()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "armed"
        label = self.label
        if not isinstance(label, str):
            label = "-".join(map(str, label))
        # Without a label, what the event will be called with is all that names it.
        args = f", args={self.args!r}" if self.args and not label else ""
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state}, {label!r}{args})"


_INFINITY = float("inf")


class EventLoop:
    """A heap-based discrete-event scheduler.

    The loop deliberately stays tiny: ``schedule``, ``schedule_many``,
    ``run``, ``run_until`` and ``step``.  Everything that looks like
    concurrency in the agent system (meets, migrations, timers, failure
    injection) is expressed as callbacks scheduled here.
    """

    #: compaction is skipped below this heap size (not worth the churn)
    _COMPACT_MIN = 64

    def __init__(self):
        self.clock = SimClock()
        #: ``(time, seq, event)`` entries; ``seq`` is unique, so ordering
        #: is decided in C before a comparison could reach the event
        self._heap: List[Tuple[float, int, Event]] = []
        self._next_seq = 0
        self._processed = 0
        #: not-yet-cancelled events still queued (kept O(1) for ``pending``)
        self._live = 0
        #: cancelled events still occupying heap slots (lazy deletion debt)
        self._dead = 0

    # -- scheduling -------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., Any],
                 label: Label = "", args: tuple = ()) -> Event:
        """Run ``callback(*args)`` after *delay* simulated seconds; return a
        cancellable handle."""
        if not delay >= 0:  # also rejects NaN, which would corrupt the heap order
            raise KernelError(f"cannot schedule an event {delay} seconds in the past")
        seq = self._next_seq
        self._next_seq = seq + 1
        time = self.clock.now + delay
        event = Event(time, seq, callback, label, False, self, args)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def schedule_many(self, entries: Iterable[Sequence]) -> List[Event]:
        """Schedule a batch of ``(delay, callback[, label[, args]])`` entries at once.

        The kernel uses this on the meet/spawn hot paths where one syscall
        produces several events: the per-call validation and bookkeeping is
        paid once, and large batches are heapified in bulk instead of paying
        ``len(entries)`` sift-downs.
        """
        now = self.clock.now
        seq = self._next_seq
        batch: List[Tuple[float, int, Event]] = []
        for entry in entries:
            delay = entry[0]
            if not delay >= 0:
                raise KernelError(f"cannot schedule an event {delay} seconds in the past")
            time = now + delay
            extras = len(entry)
            batch.append((time, seq, Event(
                time, seq, entry[1], entry[2] if extras > 2 else "", False, self,
                entry[3] if extras > 3 else ())))
            seq += 1
        self._next_seq = seq
        heap = self._heap
        # Bulk heapify beats repeated pushes once the batch is a sizeable
        # fraction of the heap; for the common 2-3 event batch, push.
        if len(batch) > 8 and len(batch) * 4 >= len(heap):
            heap.extend(batch)
            heapq.heapify(heap)
        else:
            for item in batch:
                heapq.heappush(heap, item)
        self._live += len(batch)
        return [item[2] for item in batch]

    def schedule_at(self, timestamp: float, callback: Callable[..., Any],
                    label: Label = "", args: tuple = ()) -> Event:
        """Run ``callback(*args)`` at absolute simulated time *timestamp*.

        Timestamps within :data:`PAST_EPSILON` of the current time are
        clamped to "now" (tolerating float jitter); anything genuinely in
        the past raises — silently rewriting history hid real scheduling
        bugs (see ``schedule``, which has always rejected negative delays).
        """
        now = self.clock.now
        delta = timestamp - now
        if not delta >= -PAST_EPSILON:
            raise KernelError(
                f"cannot schedule an event at {timestamp}: "
                f"it is {-delta} seconds in the past (now={now})")
        # At the timestamp itself: ``now + delta`` can round an ulp off, and
        # differently on two engines' clocks handed the same arrival.
        time = timestamp if delta > 0 else now
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, seq, callback, label, False, self, args)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    # -- lazy-deletion bookkeeping ----------------------------------------------

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; compacts once debt exceeds half the heap."""
        self._live -= 1
        self._dead += 1
        if self._dead * 2 > len(self._heap) and len(self._heap) >= self._COMPACT_MIN:
            self._compact()

    def _compact(self) -> None:
        """Purge cancelled entries and rebuild the heap in one O(n) pass.

        In place: a cancel can run inside a callback, while :meth:`_drain`
        holds a reference to the list.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._dead = 0

    # -- execution ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time (convenience mirror of ``clock.now``)."""
        return self.clock.now

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._live

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def _drain(self, horizon: float, max_events: Optional[int]) -> int:
        """Fire queued events with time <= *horizon*, at most *max_events*.

        The one loop behind :meth:`run`, :meth:`run_until` and :meth:`step`.
        Returns the number of events fired; the clock is left at the last
        one (callers decide whether to carry it on to the horizon).
        """
        heap = self._heap
        pop = heapq.heappop
        advance = self.clock._advance_to
        limit = horizon + TIME_EPSILON
        budget = -1 if max_events is None else max(0, max_events)
        executed = 0
        while heap and executed != budget:
            time, _, event = heap[0]
            if event.cancelled:
                pop(heap)
                self._dead -= 1
                continue
            if time > limit:
                break
            pop(heap)
            event._loop = None  # off the heap: late cancels must not count
            self._live -= 1
            advance(time)
            self._processed += 1
            executed += 1
            event.callback(*event.args)
        return executed

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        return self._drain(_INFINITY, 1) == 1

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or *max_events* fire).  Returns events run."""
        return self._drain(_INFINITY, max_events)

    def run_until(self, timestamp: float, max_events: Optional[int] = None) -> int:
        """Run events with time <= *timestamp*; the clock ends at *timestamp*.

        Events scheduled beyond the horizon stay queued.  When *max_events*
        stops the run with due events still queued, the clock stays where the
        last event left it — advancing it to *timestamp* anyway would strand
        those events in the past and poison the next ``step``.
        """
        executed = self._drain(timestamp, max_events)
        upcoming = self.next_event_time()
        if upcoming is None or upcoming > timestamp + TIME_EPSILON:
            self.clock._advance_to(max(self.clock.now, timestamp))
        return executed

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest live event, or None when the queue is empty.

        The shard coordinator polls this each synchronisation round to
        compute every shard's lower bound before granting horizons.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None

    def __repr__(self) -> str:
        return (f"EventLoop(now={self.clock.now:.6f}, pending={self.pending}, "
                f"processed={self._processed})")
