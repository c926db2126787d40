"""Transport abstraction: how messages move between sites.

The paper's prototype had three implementations of the ``rexec`` mechanism:
UNIX ``rsh``, Tcl/TCP, and Tcl/Horus.  Here the analogous layer is the
:class:`Transport`: the kernel hands it a :class:`~repro.net.message.Message`
and the transport decides how long delivery takes (setup + latency + bytes /
bandwidth), whether the message is lost (link loss, site crash, partition)
and finally invokes the destination site's handler.

On top of the raw point-to-point path sits the **delivery fabric**: a
per-destination :class:`Outbox` that coalesces batchable messages (courier
folder deliveries, monitor status reports, rear-guard release and relaunch
traffic) addressed to the same site within a configurable flush window into
one batched wire message.  The batch pays one framing header and one setup
delay for the whole group — this is where batching pays, exactly as the
paper's couriers save bandwidth by shipping only the payload folder instead
of the whole agent.  A transport's fabric settings are fixed when it is
built: it takes them as a :class:`~repro.flow.controller.FlowController`,
which the engine builds from ``KernelConfig.delivery_batch_window`` and the
``flow_*`` knobs; without one the fabric is off (``batch_window=0``).

One rule ships an outbox: its window fires.  Otherwise it leaves only when
a partition severs its pair, and every flush is recorded in
``NetworkStats.flush_causes`` under that cause (``window`` /
``partition``).

The window is fixed (``batch_window``) or *adaptive*.  Sizing is delegated
to the flow-control layer (:mod:`repro.flow`): a per-(source, destination)
:class:`~repro.flow.controller.FlowController` watches each pair's
arrival rate (EWMA, fed from every ``post``) and — when adaptive mode is
on (``window_max > 0``) — sizes that pair's window between
``window_min``/``window_max`` so hot pairs get tight windows (a full batch
ships soon) and trickle pairs wide ones (``window_max`` bounds how long
they wait).  Per-pair window/rate telemetry is published through
``NetworkStats.flow_windows``.

The three ``rexec`` implementations differ to ``rexec`` only in price, so
they are rows of one table, :data:`PRICES`, and a :class:`Transport` is
built from a row's name.  ``rsh`` forks a remote shell for every transfer;
``tcp`` and ``horus`` cache one channel per pair of sites and pay their
connect cost only on first contact (and again after either end crashed).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.errors import NoRouteError, SiteDownError, TransportError
from repro.flow import CostModel, FlowController
from repro.net.message import Message, MessageKind
from repro.net.simclock import Event, EventLoop
from repro.net.stats import NetworkStats
from repro.net.topology import Topology

__all__ = ["Transport", "Outbox", "DeliveryHandler", "BATCHABLE_KINDS", "PRICES"]

#: a site-side callback invoked with each delivered message
DeliveryHandler = Callable[[Message], None]

#: message kinds the delivery fabric may coalesce: payload traffic whose
#: semantics are per-folder, not per-wire-message.  Ordinary agent
#: transfers are never batched — a migration is latency-sensitive and its
#: loss semantics (rear guards) are per-agent.  Rear-guard *protection*
#: traffic (release notices, snapshot relaunches) is batchable: releases
#: are fire-and-forget bookkeeping and a relaunch already sits behind a
#: conservative timeout, so neither cares about a flush window of latency.
BATCHABLE_KINDS = (MessageKind.FOLDER_DELIVERY, MessageKind.STATUS,
                   MessageKind.FT_RELEASE, MessageKind.FT_RELAUNCH)


class Outbox:
    """Pending batchable messages for one (source, destination) pair.

    An outbox is created by the first message posted to an idle pair and
    popped by its flush.  That message arms a flush event ``batch_window``
    seconds out; everything posted to the same pair before the flush rides
    in the same batch.  The outbox remembers when it was created, so an
    adaptive window that changes re-prices the flush from the first message.
    """

    __slots__ = ("source", "destination", "messages", "flush_event",
                 "first_queued_at")

    def __init__(self, source: str, destination: str, first_queued_at: float):
        self.source = source
        self.destination = destination
        self.messages: List[Message] = []
        #: the armed flush event (None once flushed or dropped)
        self.flush_event: Optional[Event] = None
        #: when the first pending message entered
        self.first_queued_at = first_queued_at

    def __len__(self) -> int:
        return len(self.messages)

    def __repr__(self) -> str:
        return (f"Outbox({self.source}->{self.destination}, "
                f"{len(self.messages)} pending)")


#: paper section 6's three rexec implementations as prices: name ->
#: (message cost, agent cost or None, cached).  The agent cost, when there
#: is one, prices the kinds that ship an agent (``MIGRATION_KINDS``).  A
#: cached transport pays a cost's sync term only on a pair with no open
#: channel; an uncached one pays it on every message.
PRICES: Dict[str, Tuple[CostModel, Optional[CostModel], bool]] = {
    # UNIX rsh: every message forks a remote shell and starts a fresh
    # interpreter (a noisy sync), dearest when it ships an agent
    "rsh": (CostModel(sync=0.120, jitter=0.10), CostModel(sync=0.250, jitter=0.10),
            False),
    # Tcl/TCP: a handshake on first contact, a small per-message overhead
    # on the established connection
    "tcp": (CostModel(base=0.002, sync=0.040 - 0.002), None, True),
    # Tcl/Horus: a cheaper channel establishment, a dearer protocol stack
    # per message
    "horus": (CostModel(base=0.004, sync=0.030 - 0.004), None, True),
}


class Transport:
    """The network path between sites, priced by one :data:`PRICES` row."""

    def __init__(self, name: str, loop: EventLoop, topology: Topology,
                 stats: Optional[NetworkStats] = None,
                 rng: Optional[random.Random] = None,
                 flow: Optional[FlowController] = None):
        #: the transport's name, its row in PRICES
        self.name = name
        self._message_costs, agent_costs, self._cached = PRICES[name]
        self._agent_costs = agent_costs if agent_costs is not None else self._message_costs
        #: the unordered site pairs with an open channel (cached rows only)
        self._connections: Set[Tuple[str, str]] = set()
        #: how many times each pair had to (re)connect, by unordered pair
        self.connects: Dict[Tuple[str, str], int] = {}
        self.loop = loop
        self.topology = topology
        self.stats = stats if stats is not None else NetworkStats()
        self.rng = rng if rng is not None else random.Random(0)
        self._handlers: Dict[str, DeliveryHandler] = {}
        #: per-destination window sizing (repro.flow); also holds the
        #: fabric's base flush window (0 = fabric off)
        self.flow = flow if flow is not None else FlowController()
        #: pending outboxes keyed by (source, destination)
        self._outboxes: Dict[Tuple[str, str], Outbox] = {}
        #: shard-boundary adapter (repro.shard); when set, messages whose
        #: destination lives on another shard are handed to that shard's
        #: event loop instead of being scheduled locally
        self.boundary = None
        #: the owning kernel's tracer (repro.obs); set by the kernel right
        #: after construction.  None (standalone transports, tests) and a
        #: disabled tracer both keep the fabric span-free.
        self.obs = None

    # -- endpoint registration -------------------------------------------------

    def register_endpoint(self, site_name: str, handler: DeliveryHandler) -> None:
        """Attach the per-site delivery handler (the kernel does this per site)."""
        self._handlers[site_name] = handler

    # -- the price of a message --------------------------------------------------

    def setup_delay(self, message: Message) -> float:
        """Per-message setup cost in seconds (a fork, or a connect on a
        pair with no open channel, plus any per-message overhead)."""
        model = self._agent_costs if message.kind in MessageKind.MIGRATION_KINDS \
            else self._message_costs
        syncs = 1
        if self._cached:
            source, destination = message.source, message.destination
            pair = (source, destination) if source <= destination else (destination, source)
            if pair in self._connections:
                syncs = 0
            else:
                self._connections.add(pair)
                self.connects[pair] = self.connects.get(pair, 0) + 1
        return model.cost(items=1, syncs=syncs, rng=self.rng)

    @property
    def batch_window(self) -> float:
        """The fabric's base flush window (0 = fabric off).

        Owned by the flow controller the transport was built with — in
        adaptive mode it is only the seed for pairs with no traffic history.
        """
        return self.flow.base_window

    def on_site_down(self, site_name: str) -> None:
        """Hook invoked by the kernel when a site crashes.

        Drops every pending outbox that touches the crashed site (messages
        still queued at a crashed source die with it; messages bound for a
        crashed destination are counted as drops), closes the site's
        channels, and resets the flow-control state of its pairs — the
        observed rates described traffic that died with the crash, so a
        recovered site starts from the seed window, with no stale flush
        events.
        """
        for key in [key for key in self._outboxes if site_name in key]:
            self._drop_outbox(key)
        self._connections = {pair for pair in self._connections if site_name not in pair}
        self.flow.reset_site(site_name)
        self.stats.reset_flow_for_site(site_name)

    # -- the delivery fabric -----------------------------------------------------

    def _arm_flush(self, outbox: Outbox, key: Tuple[str, str], due: float) -> None:
        """(Re-)arm an outbox's window flush to fire at absolute time *due*."""
        if outbox.flush_event is not None:
            if abs(outbox.flush_event.time - due) <= 1e-12:
                return
            outbox.flush_event.cancel()
        outbox.flush_event = self.loop.schedule_at(
            due, lambda: self._flush_outbox(key, cause="window"),
            label=(self.name, "flush", outbox.source, outbox.destination))

    def post(self, message: Message) -> Optional[Event]:
        """Hand *message* to the delivery fabric.

        Batchable kinds are coalesced into the per-destination outbox when
        the fabric is enabled; everything else (and everything when
        ``batch_window`` is 0) goes straight to :meth:`send`.  Returns the
        event that will move the message (its own delivery, or the outbox
        flush it joined), or ``None`` when it was dropped immediately.  An
        adaptive window tightened below the time already waited ships the
        batch on the spot — the returned event is then its delivery event.
        """
        if self.batch_window <= 0 or message.kind not in BATCHABLE_KINDS:
            return self.send(message)
        source, destination = message.source, message.destination
        if source not in self.topology:
            raise TransportError(f"unknown source site {source!r}")
        if destination not in self.topology:
            raise TransportError(f"unknown destination site {destination!r}")
        if self._unroutable(source, destination):
            # Unroutable right now: take the immediate path so the caller
            # gets the same refusal (None) and the same drop accounting as
            # with batching off, instead of an "accepted" that the flush is
            # already known to drop.
            return self.send(message)
        key = (source, destination)
        outbox = self._outboxes.get(key)
        if outbox is None:
            outbox = self._outboxes[key] = Outbox(source, destination, self.loop.now)
        message.sent_at = self.loop.now
        outbox.messages.append(message)
        if self.flow.adaptive:
            # observe() just re-derived (and clamped) the pair's window, so
            # every post re-prices the flush: due is first-message + the
            # *current* window.  A window tightened below the time already
            # waited ships now.
            window = self.flow.observe(key, self.loop.now,
                                       message.body_bytes()).window
            due = outbox.first_queued_at + window
            if due <= self.loop.now:
                return self._flush_outbox(key, cause="window")
            self._arm_flush(outbox, key, due)
        elif outbox.flush_event is None:
            # Fixed mode: no per-pair estimation — the EWMA would never be
            # read, and this is the fabric's per-post hot path.
            self._arm_flush(outbox, key, self.loop.now + self.flow.base_window)
        return outbox.flush_event

    def _flush_outbox(self, key: Tuple[str, str],
                      cause: str = "window") -> Optional[Event]:
        """Ship an outbox's pending messages as one batched wire message."""
        outbox = self._outboxes.pop(key, None)
        if outbox is None or not outbox.messages:
            return None
        if outbox.flush_event is not None:
            outbox.flush_event.cancel()
            outbox.flush_event = None
        self.stats.flush_causes[cause] += 1
        if self.flow.adaptive:
            # Publish the pair's window/rate telemetry once per flush (not
            # per post — that would allocate on the fabric's hot path).
            state = self.flow.state(key)
            if state is not None:
                self.stats.record_flow(outbox.source, outbox.destination,
                                       self.flow.window_for(key),
                                       state.estimator.message_rate,
                                       state.estimator.bytes_rate)
        messages = outbox.messages
        if len(messages) == 1:
            # No coalescing happened: ship the original message unwrapped so
            # accounting keeps its true kind and no envelope cost is paid.
            return self.send(messages[0])
        body = sum(message.body_bytes() for message in messages)
        batch = Message(
            source=outbox.source,
            destination=outbox.destination,
            kind=MessageKind.BATCH,
            payload={"messages": messages},
            declared_size=body,
        )
        event = self.send(batch)
        obs = self.obs
        if obs is not None and obs.active:
            # One span per shipped envelope on the fabric's pseudo-trace;
            # start is when the oldest coalesced message entered the outbox,
            # so the span's width is the window the batch actually waited.
            from repro.obs import infra_trace_id
            obs.record(
                infra_trace_id("fabric", f"{outbox.source}->{outbox.destination}"),
                "fabric-flush",
                obs.next_key(outbox.source),
                start=min(message.sent_at for message in messages),
                end=self.loop.now, kind="net", site=outbox.source,
                source=outbox.source, destination=outbox.destination,
                attrs={"cause": cause, "messages": len(messages),
                       "bytes": body, "delivered": event is not None})
        if event is None:
            # send() recorded one drop for the envelope; the other coalesced
            # messages are lost with it, and the loss ledger counts logical
            # messages (matching _drop_outbox).
            for message in messages[1:]:
                self.stats.record_drop(message.source, message.destination)
        return event

    def flush_unroutable(self) -> None:
        """Flush every outbox whose pair the topology can no longer route.

        What :meth:`Engine.partition <repro.core.engine.Engine.partition>`
        calls: the stranded messages are dropped by :meth:`send` with normal
        drop accounting, under the cause ``"partition"``, while still-routable
        outboxes keep coalescing undisturbed.
        """
        for key in [key for key in self._outboxes if self._unroutable(*key)]:
            self._flush_outbox(key, cause="partition")

    def _unroutable(self, source: str, destination: str) -> bool:
        """True when the topology cannot currently route the pair.

        The single predicate behind both the post-time refusal and the
        partition flush, so the two can never disagree about which outboxes
        are stranded.
        """
        return (self.topology.is_down(source)
                or self.topology.is_down(destination)
                or self.topology.partitioned(source, destination))

    def _drop_outbox(self, key: Tuple[str, str]) -> None:
        """Discard a pending outbox, counting each queued message as a drop."""
        outbox = self._outboxes.pop(key, None)
        if outbox is None:
            return
        if outbox.flush_event is not None:
            outbox.flush_event.cancel()
            outbox.flush_event = None
        for message in outbox.messages:
            self.stats.record_drop(message.source, message.destination)

    def pending_outbox_messages(self) -> int:
        """Messages currently queued in the fabric (introspection for tests)."""
        return sum(len(outbox) for outbox in self._outboxes.values())

    # -- sending --------------------------------------------------------------------

    def send(self, message: Message) -> Optional[Event]:
        """Queue *message* for delivery.

        Returns the scheduled delivery event, or ``None`` when the message
        was dropped immediately (source down, no route, random loss).  The
        caller never gets an exception for in-flight loss — exactly like a
        real datagram network — but sending *from* an unknown site is a
        programming error and raises.
        """
        source, destination = message.source, message.destination
        if source not in self.topology:
            raise TransportError(f"unknown source site {source!r}")
        if destination not in self.topology:
            raise TransportError(f"unknown destination site {destination!r}")

        size = message.size_bytes()
        message.sent_at = self.loop.now
        self.stats.record_send(source, destination, message.kind, size)

        if self.topology.is_down(source):
            # A crashed site cannot send; count the drop and stop.
            self.stats.record_drop(source, destination)
            return None

        try:
            transfer, hops, loss = self.topology.path_cost(source, destination, size)
        except (NoRouteError, SiteDownError):
            self.stats.record_drop(source, destination)
            return None

        if loss > 0 and self.rng.random() < loss:
            self.stats.record_drop(source, destination)
            return None

        message.hops = hops
        delay = self.setup_delay(message) + transfer
        if self.boundary is not None and self.boundary.is_remote(destination):
            # Cross-shard: hand over at send time so the arrival lands on
            # the owning shard's loop.  Doing this here (rather than at the
            # local delivery event) is what makes the conservative clock
            # sync safe: the arrival timestamp is fixed the moment the
            # message leaves, before any horizon beyond it can be granted.
            return self.boundary.dispatch(message, delay)
        return self.loop.schedule(delay, self._deliver,
                                  (self.name, "deliver", message.message_id),
                                  (message,))

    # -- delivery --------------------------------------------------------------------

    def _deliver(self, message: Message) -> None:
        destination = message.destination
        if self.topology.is_down(destination) or self.topology.partitioned(
                message.source, destination):
            # The destination crashed (or a partition formed) while the
            # message was in flight.
            self._record_in_flight_loss(message)
            return
        handler = self._handlers.get(destination)
        if handler is None:
            self._record_in_flight_loss(message)
            return
        message.delivered_at = self.loop.now
        size = message.size_bytes()
        self.stats.record_delivery(size, self.loop.now - message.sent_at)
        if message.kind in MessageKind.MIGRATION_KINDS:
            self.stats.record_migration(size)
        elif message.kind == MessageKind.BATCH:
            # A batch is counted when it is delivered, as a message is, so
            # delivered - batches + batched_messages counts the logical
            # messages that arrived.  Migration accounting is per agent
            # snapshot, not per envelope: a coalesced relaunch still counts
            # as one migration.
            subs = message.payload.get("messages", ())
            self.stats.record_batch(len(subs), (len(subs) - 1) * Message.HEADER_BYTES)
            for sub in subs:
                if sub.kind in MessageKind.MIGRATION_KINDS:
                    self.stats.record_migration(sub.size_bytes())
        handler(message)

    def _record_in_flight_loss(self, message: Message) -> None:
        """Count an in-flight loss: one drop per logical message.

        A lost batch envelope takes every coalesced message with it, and
        the loss ledger counts logical messages (matching
        :meth:`_drop_outbox`): one drop for the envelope itself plus one
        per additional coalesced message.
        """
        self.stats.record_drop(message.source, message.destination)
        if message.kind == MessageKind.BATCH:
            for sub in message.payload.get("messages", ())[1:]:
                self.stats.record_drop(sub.source, sub.destination)

    def __repr__(self) -> str:
        return f"Transport({self.name!r}, endpoints={len(self._handlers)})"
