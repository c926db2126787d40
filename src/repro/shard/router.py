"""Cross-shard mail routing: the shard-boundary transport adapter.

Each shard runs its own :class:`~repro.net.simclock.EventLoop` and its own
transport, with endpoints registered only for the sites it owns.  When a
transport is about to schedule a delivery whose destination lives on
another shard, the :class:`ShardBoundary` intercepts it (see
``Transport.send``) and the :class:`MailRouter` schedules the delivery
directly on the owning shard's loop instead.

The handover happens at **send time**, not at the local delivery event:
the arrival timestamp is fixed the moment the message leaves the source,
which is what makes the conservative clock sync of
:mod:`repro.shard.clocksync` safe — any message sent by an event at time
``t`` arrives at ``t + delay >= t + lookahead``, and no horizon beyond
that has been granted yet.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.timing import PAST_EPSILON

__all__ = ["MailRouter", "ShardBoundary", "ShardContext"]


def _record_handoff_span(origin, origin_shard: int, dest_shard: int,
                         message, arrival: float) -> None:
    """Origin-side shard-handoff span for traced cross-shard messages.

    Recorded at send time on the *origin* engine's tracer (span keys come
    from its deterministic counter, so the identity is backend-invariant);
    the span covers send -> arrival, exactly the window the message is in
    flight between shards.
    """
    obs = getattr(origin, "obs", None)
    if obs is None or not obs.active or message.trace is None:
        return
    trace_id, parent_id = message.trace
    if not obs.sampled(trace_id):
        return
    obs.record(
        trace_id, "shard-handoff", obs.next_key(f"s{origin_shard}"),
        start=origin.loop.now, end=arrival, parent_id=parent_id,
        kind="shard", source=message.source, destination=message.destination,
        attrs={"from_shard": origin_shard, "to_shard": dest_shard,
               "bytes": message.size_bytes()})


class ShardContext:
    """What a shard engine needs to know about its place in the cluster."""

    __slots__ = ("shard_id", "owned", "router")

    def __init__(self, shard_id: int, owned: frozenset, router: "MailRouter"):
        self.shard_id = shard_id
        #: the site names this shard hosts (creates Site objects + endpoints for)
        self.owned = owned
        self.router = router

    def __repr__(self) -> str:
        return f"ShardContext(shard={self.shard_id}, sites={len(self.owned)})"


class ShardBoundary:
    """The per-shard adapter a transport consults on every send."""

    __slots__ = ("_router", "shard_id")

    def __init__(self, router: "MailRouter", shard_id: int):
        self._router = router
        self.shard_id = shard_id

    def is_remote(self, site_name: str) -> bool:
        """True if *site_name* is owned by a different shard."""
        return self._router.placement.get(site_name, self.shard_id) != self.shard_id

    def dispatch(self, message, delay: float):
        """Hand *message* to its owning shard, arriving *delay* from now."""
        return self._router.dispatch(self.shard_id, message, delay)


class MailRouter:
    """Owns the placement map and performs cross-shard handoffs.

    One per sharded kernel; every shard's :class:`ShardBoundary` routes
    through it.  A handoff schedules ``dest.transport._deliver`` on the
    destination shard's loop at the same arrival timestamp the source
    transport computed, so the delivery-side checks (site down at arrival,
    partition formed in flight, batch unbatching) run unchanged on the
    owning shard.

    With ``inbox_handoffs=True`` (the thread backend) a handoff is instead
    appended to a per-owning-shard locked inbox and only scheduled when the
    owner drains its inbox at the next round start.  That keeps every
    ``EventLoop`` single-threaded: the loop heap is touched only by its own
    shard's burst and by the coordinator between rounds.  Deferring the
    schedule is safe because the arrival timestamp is at least the sending
    shard's lookahead past its clock, which is at least every horizon
    granted in the sending round — no shard can need the message before
    the round ends.
    """

    def __init__(self, placement: Dict[str, int], inbox_handoffs: bool = False):
        self.placement = dict(placement)
        self._engines: List = []
        self.inbox_handoffs = bool(inbox_handoffs)
        #: inbox entries are (arrival, origin shard, per-origin seq, message);
        #: the drain sorts on that triple so the delivery order is a pure
        #: function of the simulation, not of thread interleaving
        self._inboxes: List[List[Tuple[float, int, int, object]]] = []
        self._inbox_locks: List[threading.Lock] = []
        #: per-origin dispatch counters; each slot is only ever touched by
        #: its own shard's burst, so no lock is needed
        self._origin_seq: List[int] = []
        #: back-reference set by the facade so engines can invalidate the
        #: lookahead matrix when they grow the topology
        self.clock_sync = None

    def clock_sync_invalidate(self) -> None:
        """Mark the clock sync's lookahead matrix stale (topology grew)."""
        if self.clock_sync is not None:
            self.clock_sync.invalidate()

    def attach_engines(self, engines: Sequence) -> None:
        """Late-bind the shard engines (they need the router to construct)."""
        self._engines = list(engines)
        if self.inbox_handoffs:
            self._inboxes = [[] for _ in self._engines]
            self._inbox_locks = [threading.Lock() for _ in self._engines]
            self._origin_seq = [0] * len(self._engines)

    def owner_of(self, site_name: str) -> Optional[int]:
        """The owning shard id of *site_name*, or None if unplaced."""
        return self.placement.get(site_name)

    def assign(self, site_name: str, shard_id: int) -> None:
        """Place a late-joining site (see the facade's ``add_site``)."""
        self.placement[site_name] = shard_id

    def unassign(self, site_name: str) -> None:
        """Roll back a placement that failed to materialise."""
        self.placement.pop(site_name, None)

    def boundary_for(self, shard_id: int) -> ShardBoundary:
        """The boundary adapter shard *shard_id*'s transport consults."""
        return ShardBoundary(self, shard_id)

    def engine_for(self, site_name: str):
        """The engine kernel owning *site_name* (KeyError if unplaced)."""
        return self._engines[self.placement[site_name]]

    def dispatch(self, origin_shard: int, message, delay: float):
        """Schedule a cross-shard delivery on the destination's loop.

        The arrival is ``origin now + delay``.  If the destination shard's
        clock has already passed that point — only possible when the
        optimistic flow-window bonus widened the granted horizons past the
        pure latency bound — the arrival is clamped to the destination's
        "now" and counted (``shard_late_arrivals``); under the default
        configuration the sync is purely conservative and this never fires.
        """
        origin = self._engines[origin_shard]
        dest_shard = self.placement[message.destination]
        arrival = origin.loop.now + delay
        _record_handoff_span(origin, origin_shard, dest_shard, message, arrival)
        if self.inbox_handoffs:
            # Park it in the owner's inbox; lateness (only possible with an
            # optimistic flow bonus) is judged drain-side against the
            # owner's clock, where that clock is stable.
            origin.stats.record_shard_handoff(message.size_bytes())
            seq = self._origin_seq[origin_shard]
            self._origin_seq[origin_shard] = seq + 1
            entry = (arrival, origin_shard, seq, message)
            with self._inbox_locks[dest_shard]:
                self._inboxes[dest_shard].append(entry)
            return entry
        dest = self._engines[dest_shard]
        dest_now = dest.loop.now
        late = arrival < dest_now - PAST_EPSILON
        origin.stats.record_shard_handoff(message.size_bytes(), late=late)
        return dest.loop.schedule_at(
            max(arrival, dest_now),
            lambda: dest.transport._deliver(message),
            label=("shard-handoff", message.message_id))

    def drain_inboxes(self) -> int:
        """Schedule every parked handoff on its owner's loop.

        Called by the coordinator at round start, before next-event times
        are read — the drained messages are part of the owner's future and
        must count toward its ``next_event_time``.  Returns the number of
        messages drained (coordination telemetry).
        """
        if not self.inbox_handoffs:
            return 0
        drained = 0
        for shard_id, lock in enumerate(self._inbox_locks):
            with lock:
                batch = self._inboxes[shard_id]
                if not batch:
                    continue
                self._inboxes[shard_id] = []
            dest = self._engines[shard_id]
            dest_now = dest.loop.now
            # The append order above depends on thread interleaving; the
            # (arrival, origin, seq) sort restores a deterministic total
            # order so same-timestamp deliveries tie-break identically on
            # every run and every backend.
            batch.sort(key=lambda entry: entry[:3])
            for arrival, _origin, _seq, message in batch:
                if arrival < dest_now - PAST_EPSILON:
                    dest.stats.record_shard_late_arrival()
                dest.loop.schedule_at(
                    max(arrival, dest_now),
                    lambda m=message, d=dest: d.transport._deliver(m),
                    label=("shard-handoff", message.message_id))
            drained += len(batch)
        return drained

    def __repr__(self) -> str:
        shards = len(set(self.placement.values()))
        return f"MailRouter({len(self.placement)} sites over {shards} shards)"
