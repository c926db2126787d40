"""The span model: timed, causally linked records of one unit of work.

A *span* covers one operation — an FT hop, a WAL group commit, a fabric
flush, a shard handoff, an agent migration — with a start/end in
simulated time and parent/child causality inside a *trace*.

Identity is **content-derived and deterministic**: a span id is
``"{trace_id}/{name}#{key}"`` where the key comes from semantic state
that is identical on every execution backend (hop sequence numbers,
site names, per-engine event-order counters).  Process-local object
ids never leak into identity, which is what lets the
property suite assert *identical span trees* across
``shard_backend=inproc|process``.

Trace context travels **in the agent's briefcase** as two plain string
folders (:data:`TRACE_ID_FOLDER`, :data:`TRACE_PARENT_FOLDER`), so it
survives everything a briefcase survives: coalescing into a delivery-
fabric batch envelope, a pickled hop through a process worker's pipe,
and the migration itself.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["Span", "TRACE_ID_FOLDER", "TRACE_PARENT_FOLDER", "span_id",
           "infra_trace_id"]

#: briefcase folder naming the trace an agent belongs to (a plain string)
TRACE_ID_FOLDER = "TRACE_ID"
#: briefcase folder naming the parent span for the agent's next span
TRACE_PARENT_FOLDER = "TRACE_PARENT"


def span_id(trace_id: str, name: str, key: str) -> str:
    """The deterministic span id: ``trace/name#key``."""
    return f"{trace_id}/{name}#{key}"


def infra_trace_id(kind: str, scope: str) -> str:
    """Trace id for infrastructure spans not tied to any agent.

    WAL commits, fabric flushes, recoveries and sync rounds belong to no
    itinerary; they are grouped into per-scope pseudo-traces (``~store:n3``,
    ``~fabric:n1->n2``) so the report can still bucket them.
    """
    return f"~{kind}:{scope}"


class Span:
    """One timed operation.  Mutable until finished, then emitted to a sink."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "kind", "site",
                 "source", "destination", "start", "end", "attrs")

    def __init__(self, trace_id: str, sid: str, name: str,
                 parent_id: Optional[str] = None, kind: str = "",
                 site: str = "", source: str = "", destination: str = "",
                 start: float = 0.0, end: Optional[float] = None,
                 attrs: Optional[Dict[str, Any]] = None):
        self.trace_id = trace_id
        self.span_id = sid
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.site = site
        self.source = source
        self.destination = destination
        self.start = start
        self.end = end
        self.attrs = attrs

    @property
    def duration(self) -> float:
        """Simulated seconds covered (0.0 while unfinished)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-able dict (the sink / wire representation)."""
        out: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "site": self.site,
            "start": self.start,
            "end": self.start if self.end is None else self.end,
        }
        if self.source:
            out["source"] = self.source
        if self.destination:
            out["destination"] = self.destination
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out

    def __repr__(self) -> str:
        return (f"Span({self.span_id} kind={self.kind} site={self.site!r} "
                f"[{self.start:.6g}, {self.start if self.end is None else self.end:.6g}])")
