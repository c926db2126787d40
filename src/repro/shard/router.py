"""Cross-shard mail: the shard-boundary transport adapter.

Each engine runs its own :class:`~repro.net.simclock.EventLoop` and its own
transport, with endpoints registered only for the sites it hosts.  When a
transport is about to schedule a delivery whose destination another engine
hosts, the :class:`ShardBoundary` intercepts it (see ``Transport.send``)
and appends ``(arrival, message)`` to the sending engine's ``outbound``
spool instead.  That is the whole send side, and it is the same wherever
the engine executes: the spool leaves with the result of
:meth:`Engine.run_to <repro.core.engine.Engine.run_to>`, the coordinator
(:class:`~repro.shard.shardset.ShardSet`) routes each entry to its owner's
pending list between rounds, and the owner schedules it with its next
``run_to``/``advance_clock``, judging lateness against its own clock.

The handover happens at **send time**, not at the local delivery event:
the arrival timestamp is fixed the moment the message leaves the source,
which is what makes the conservative clock sync of
:mod:`repro.shard.clocksync` safe — any message sent by an event at time
``t`` arrives at ``t + delay >= t + lookahead``, no horizon beyond that has
been granted yet, and so no engine can need the message before the round
that spooled it ends.
"""

from __future__ import annotations

__all__ = ["ShardBoundary"]


class ShardBoundary:
    """The adapter a sharded engine's transport consults on every send."""

    __slots__ = ("_engine",)

    def __init__(self, engine):
        self._engine = engine

    def is_remote(self, site_name: str) -> bool:
        """True if another engine hosts *site_name*."""
        engine = self._engine
        return engine.placement.get(site_name, engine.shard_id) != engine.shard_id

    def dispatch(self, message, delay: float):
        """Spool *message* for its owner, arriving *delay* from now."""
        engine = self._engine
        arrival = engine.loop.now + delay
        obs = engine.obs
        if obs.active and message.trace is not None:
            self._record_span(obs, message, arrival)
        engine.stats.record_shard_handoff(message.size_bytes())
        entry = (arrival, message)
        engine.outbound.append(entry)
        return entry

    def _record_span(self, obs, message, arrival: float) -> None:
        """Origin-side shard-handoff span for a traced cross-shard message.

        Recorded at send time on the *origin* engine's tracer (span keys
        come from its deterministic counter, so the identity does not
        depend on where engines execute); the span covers send -> arrival,
        exactly the window the message is in flight between shards.
        """
        trace_id, parent_id = message.trace
        if not obs.sampled(trace_id):
            return
        engine = self._engine
        origin = engine.shard_id
        obs.record(
            trace_id, "shard-handoff", obs.next_key(f"s{origin}"),
            start=engine.loop.now, end=arrival, parent_id=parent_id,
            kind="shard", source=message.source, destination=message.destination,
            attrs={"from_shard": origin,
                   "to_shard": engine.placement[message.destination],
                   "bytes": message.size_bytes()})
