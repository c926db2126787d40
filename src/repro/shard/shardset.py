"""The shard coordinator: N engines advanced in conservative rounds.

The :class:`ShardSet` is what the :class:`~repro.core.kernel.Kernel` facade
delegates ``run()`` to when it has more than one engine.  Each round it:

1. reads every shard's next-event time — the engine's own queue head or
   the earliest handoff pending for it, whichever is sooner — and asks the
   :class:`~repro.shard.clocksync.ClockSync` for safe horizons,
2. builds the round's **burst plan** — shards with an event due before
   their horizon — and has the execution backend
   (:mod:`repro.shard.backend`) call each planned engine's
   ``run_to(horizon, budget, handoffs)``, handing over the mail pending for
   it.  A burst fires events up to its horizon and leaves the clock on its
   last one; a shard with nothing due sits out, clock and busy time unmoved,
3. routes the ``(arrival, message)`` pairs each burst spooled to their
   owners' pending lists, in shard order.  Routing happens here, on the
   coordinator, strictly between rounds — a pending list is read only by
   its owner's next burst — so no backend needs a lock, and every backend
   delivers the same mail in the same order.

Rounds repeat until every queue drains, every next event lies beyond
``until``, or the global ``max_events`` budget is exhausted.  Only then do
the clocks move outside a burst, once each, in a final ``advance_clock``
that also hands every engine the mail still pending for it: all land on
``until`` when given, else on the latest engine clock (the drain's last
event), which is where one loop's ``run_until``/``run`` leaves its clock.
The budget is global — shards share it in shard order, one burst at a
time on every backend — and exhausting it leaves every clock exactly
where its last event fired.

Timing uses an injectable ``timer`` (default
:data:`repro.core.timing.default_timer`) so
tests can pin exactly what lands in ``busy_seconds`` vs ``sync_seconds``
vs ``overhead_seconds`` with a fake clock.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.timing import default_timer
from repro.shard.backend import InprocBackend, ShardBackend
from repro.shard.clocksync import ClockSync

__all__ = ["Shard", "ShardSet"]


class Shard:
    """One shard: an engine plus its coordination bookkeeping."""

    __slots__ = ("shard_id", "engine", "busy_seconds", "pending")

    def __init__(self, shard_id: int, engine):
        self.shard_id = shard_id
        self.engine = engine
        #: wall-clock seconds this shard's loop spent executing events
        #: (accumulated around every run burst; the slowest shard's is the
        #: denominator of the parallel-host throughput model)
        self.busy_seconds = 0.0
        #: ``(arrival, message)`` handoffs routed here, awaiting the
        #: engine's next ``run_to``/``advance_clock``
        self.pending: List[Tuple[float, object]] = []

    def next_event_time(self) -> Optional[float]:
        """The engine's queue head or its earliest pending handoff."""
        loop = self.engine.loop
        at = loop.next_event_time()
        if self.pending:
            arrival = max(min(entry[0] for entry in self.pending), loop.now)
            if at is None or arrival < at:
                at = arrival
        return at

    @property
    def sites(self) -> int:
        return len(self.engine.sites)

    def __repr__(self) -> str:
        return (f"Shard({self.shard_id}, sites={self.sites}, "
                f"t={self.engine.loop.now:.4f})")


class ShardSet:
    """The coordinator advancing every shard under conservative clock sync."""

    def __init__(self, shards: List[Shard], clock_sync: ClockSync,
                 backend: Optional[ShardBackend] = None,
                 timer: Callable[[], float] = default_timer):
        self.shards = list(shards)
        self.clock_sync = clock_sync
        self.backend = backend if backend is not None else InprocBackend(timer)
        self.timer = timer
        #: synchronisation rounds executed (``shard.rounds`` in the ledger)
        self.rounds = 0
        #: wall-clock seconds spent reading next-event times, computing
        #: horizons, and building burst plans between bursts
        self.sync_seconds = 0.0
        #: wall-clock seconds of per-round dispatch overhead: round wall
        #: time minus the slowest burst (worker round-trips).
        #: Serial rounds pay total-minus-max serialisation here too, so
        #: coordination cost can be read apart from burst time
        #: (``shard.coord_overhead_s`` in the ledger).
        self.overhead_seconds = 0.0
        #: handoffs this coordinator handed to their owning engines: the
        #: delivery-side count of what the sending engines count as
        #: ``shard_handoffs``; the two agree whenever ``run`` returns
        self.handoffs_drained = 0
        #: the facade's own tracer (repro.obs), set by the Kernel when
        #: observability is on; records one span per run() drive
        self.obs = None

    # -- clocks -----------------------------------------------------------------

    @property
    def now(self) -> float:
        """The slowest shard's clock: every shard's, once ``run`` returns
        (unless a budget stopped it)."""
        return min(shard.engine.loop.now for shard in self.shards)

    def next_event_times(self) -> Dict[int, Optional[float]]:
        return {shard.shard_id: shard.next_event_time() for shard in self.shards}

    # -- handoffs ---------------------------------------------------------------

    def _take(self, shard: Shard) -> List[Tuple[float, object]]:
        handoffs, shard.pending = shard.pending, []
        self.handoffs_drained += len(handoffs)
        return handoffs

    def _route(self, outbound) -> None:
        placement = self.clock_sync.placement
        for entry in outbound:
            self.shards[placement[entry[1].destination]].pending.append(entry)

    # -- running ----------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Advance every shard; returns the total events executed.

        ``until`` is honoured globally: no shard's clock passes it, and on
        a clean finish every clock lands exactly on it.  ``max_events`` is
        a single global budget consumed across shards in shard order.
        """
        total = 0
        timer = self.timer
        backend = self.backend
        obs = self.obs if (self.obs is not None and self.obs.active) else None
        if obs is not None:
            from repro.obs import infra_trace_id
            run_span = obs.begin(
                infra_trace_id("shard", "coordinator"), "shard-run",
                obs.next_key("run"), kind="shard",
                attrs={"shards": len(self.shards),
                       "rounds_before": self.rounds})
        while max_events is None or total < max_events:
            sync_start = timer()
            next_times = self.next_event_times()
            live = [at for at in next_times.values() if at is not None]
            if not live:
                break
            if until is not None and min(live) > until + 1e-12:
                break
            horizons = self.clock_sync.horizons(next_times)
            self.rounds += 1
            plans: List[Tuple[Shard, Optional[float]]] = []
            for shard in self.shards:
                at = next_times[shard.shard_id]
                if at is None:
                    continue
                horizon = horizons[shard.shard_id]
                if until is not None:
                    horizon = until if horizon is None else min(horizon, until)
                if horizon is None or at <= horizon + 1e-12:
                    plans.append((shard, horizon))
            self.sync_seconds += timer() - sync_start
            round_start = timer()
            if max_events is None:
                bursts = backend.run_round(
                    [(shard, horizon, self._take(shard))
                     for shard, horizon in plans])
            else:
                # One global budget, consumed in shard order: one burst at
                # a time, so the stop point is the same on every backend.
                bursts = []
                remaining = max_events - total
                for shard, horizon in plans:
                    if remaining <= 0:
                        break
                    bursts.append(backend.run_to(shard, horizon, remaining,
                                                 self._take(shard)))
                    remaining -= bursts[-1][0]
            busy_max = 0.0
            for (shard, _horizon), (executed, busy, outbound) in zip(plans, bursts):
                total += executed
                shard.busy_seconds += busy
                if busy > busy_max:
                    busy_max = busy
                self._route(outbound)
            self.overhead_seconds += max(
                0.0, (timer() - round_start) - busy_max)
        # The one place a clock lands, with the mail still pending for its
        # engine: on until, else on the drain's last event anywhere.  A spent
        # budget lands none (advance_clock never moves a clock back).
        spent = max_events is not None and total >= max_events
        land = (0.0 if spent else until if until is not None
                else max(shard.engine.loop.now for shard in self.shards))
        backend.finish_run([(shard, land, self._take(shard))
                            for shard in self.shards])
        if obs is not None:
            obs.finish(run_span, events=total,
                       rounds=self.rounds - run_span.attrs["rounds_before"],
                       handoffs=self.handoffs_drained)
        return total

    def close(self) -> None:
        """Shut down the execution backend (its worker processes, if any)."""
        self.backend.close()

    def __repr__(self) -> str:
        return (f"ShardSet({len(self.shards)} shards, "
                f"backend={self.backend.name}, rounds={self.rounds}, "
                f"now={self.now:.4f})")
