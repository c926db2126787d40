"""Wire messages exchanged between sites.

Transports move :class:`Message` objects.  The payload is a dict naming the
contact to run at the destination and the briefcase it gets; the size model
used for latency/bandwidth accounting lives here so every transport charges
the same way.
"""

from __future__ import annotations

import itertools
import pickle
from typing import Any, Dict, Optional

from repro.core.record import Record

__all__ = ["Message", "MessageKind"]

_message_ids = itertools.count(1)


class MessageKind:
    """Symbolic message kinds used across the system.

    Every message is addressed to an agent at its destination (its payload
    names a contact) except :data:`BATCH`, the fabric's envelope, which the
    destination unbatches.  A kind labels traffic for the statistics and
    decides whether the fabric may coalesce it; it never changes where a
    message goes.
    """

    AGENT_TRANSFER = "agent-transfer"     # rexec shipping an agent
    FOLDER_DELIVERY = "folder-delivery"   # courier delivering a folder
    STATUS = "status"                     # monitor -> broker load reports
    BATCH = "batch"                       # delivery-fabric envelope of coalesced messages
    FT_RELEASE = "ft-release"             # rear-guard release notices (batchable)
    FT_RELAUNCH = "ft-relaunch"           # rear-guard snapshot relaunch (batchable transfer)

    #: kinds that move an agent (or an agent snapshot) between sites; a
    #: delivered message of one of these counts as a migration
    MIGRATION_KINDS = (AGENT_TRANSFER, FT_RELAUNCH)


class Message(Record):
    """One message on the simulated wire."""

    _fields = ("source", "destination", "kind", "payload", "declared_size",
               "message_id", "sent_at", "delivered_at", "hops")
    __slots__ = _fields + ("trace", "_size_cache")

    def __init__(self, source: str, destination: str, kind: str,
                 payload: Optional[Dict[str, Any]] = None,
                 declared_size: Optional[int] = None, message_id: Optional[int] = None,
                 sent_at: float = 0.0, delivered_at: Optional[float] = None,
                 hops: int = 1, trace: Optional[tuple] = None):
        self.source = source
        self.destination = destination
        self.kind = kind
        #: ``{"contact": name, "briefcase": b}``, *b* the sender's
        #: ``Briefcase.snapshot()``; a ``BATCH`` envelope carries ``{"messages": [...]}``
        self.payload = {} if payload is None else payload
        #: explicit payload size in bytes; when None the size is estimated from
        #: the payload via :meth:`size_bytes`.
        self.declared_size = declared_size
        self.message_id = next(_message_ids) if message_id is None else message_id
        self.sent_at = sent_at
        self.delivered_at = delivered_at
        self.hops = hops
        #: causal trace context ``(trace_id, parent_span_id)`` attached when the
        #: sender's kernel traces the carried briefcase (repro.obs).  Rides the
        #: message through batching envelopes and pickled process handoffs; the
        #: destination kernel records the network-leg span from it.
        self.trace = trace
        #: memoised result of :meth:`size_bytes` — the payload is immutable once
        #: the message is handed to a transport, and send/deliver accounting used
        #: to re-pickle the payload on every call
        self._size_cache: Optional[int] = None

    #: fixed per-message framing charged by the size model (headers, routing)
    HEADER_BYTES = 64

    def size_bytes(self) -> int:
        """Bytes charged to the link for this message (computed once, then cached)."""
        if self._size_cache is not None:
            return self._size_cache
        if self.declared_size is not None:
            size = self.HEADER_BYTES + int(self.declared_size)
        else:
            # Estimate by pickling the payload.
            try:
                body = len(pickle.dumps(self.payload, protocol=pickle.HIGHEST_PROTOCOL))
            except Exception:
                body = 256
            size = self.HEADER_BYTES + body
        self._size_cache = size
        return size

    def body_bytes(self) -> int:
        """Bytes of payload excluding the per-message framing header.

        This is what a delivery-fabric batch re-ships: the batch envelope
        pays :data:`HEADER_BYTES` once for all coalesced messages.
        """
        return self.size_bytes() - self.HEADER_BYTES

    def __repr__(self) -> str:
        return (f"Message(#{self.message_id} {self.kind} {self.source}->"
                f"{self.destination}, {self.size_bytes()}B)")
