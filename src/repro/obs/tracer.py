"""Tracers: per-engine span recording.

Hot-path contract: every instrumentation point is guarded by a single
attribute read (``if tracer.active:``), and a disabled tracer allocates
nothing — tracing must cost next to nothing while sampling is off (the
ledger's ``churn`` arm runs with it off and carries that cost in
``obs.self_us_per_unit``).

Determinism contract: sampling decisions hash the trace id (CRC-32), and
anonymous span keys come from a per-tracer event-order counter — both
identical across execution backends because every engine kernel executes
the same event sequence on every backend (the PR 7 invariant).
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Optional

from repro.obs.sinks import RingSink
from repro.obs.span import Span, span_id

__all__ = ["Tracer"]

#: CRC-32 sampling: a trace is kept when crc32(trace_id) < sample * 2**32
_SAMPLE_SPACE = float(2 ** 32)


class Tracer:
    """Records spans for one kernel (one engine, or the classic kernel)."""

    __slots__ = ("clock", "sink", "sample", "active", "_seq")

    def __init__(self, clock=None, sink=None, sample: float = 1.0,
                 enabled: bool = True):
        #: anything with a ``.now`` attribute (the kernel's event loop)
        self.clock = clock
        self.sink = sink if sink is not None else RingSink()
        self.sample = float(sample)
        #: the one-attribute hot-path guard (a plain attribute: the kernel
        #: reads it ten times per courier life with tracing off)
        self.active = bool(enabled)
        #: per-tracer span counter used for anonymous keys; consumed in
        #: engine event order, so deterministic across execution backends
        self._seq = 0

    @classmethod
    def disabled(cls) -> "Tracer":
        """A tracer that records nothing (the default on every kernel)."""
        return cls(enabled=False, sink=_NULL_SINK)

    # -- predicates ------------------------------------------------------------

    def sampled(self, trace_id: str) -> bool:
        """Deterministic per-trace sampling decision (CRC-32 of the id)."""
        if self.sample >= 1.0:
            return True
        if self.sample <= 0.0:
            return False
        return zlib.crc32(trace_id.encode("utf-8")) < self.sample * _SAMPLE_SPACE

    # -- span lifecycle --------------------------------------------------------

    def next_key(self, scope: str) -> str:
        """An anonymous span key: ``scope:n`` with a deterministic counter."""
        self._seq += 1
        return f"{scope}:{self._seq}"

    def begin(self, trace_id: str, name: str, key: str,
              parent_id: Optional[str] = None, kind: str = "", site: str = "",
              source: str = "", destination: str = "",
              attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span now; finish it with :meth:`finish`."""
        return Span(trace_id, span_id(trace_id, name, key), name,
                    parent_id=parent_id, kind=kind, site=site, source=source,
                    destination=destination,
                    start=self.clock.now if self.clock is not None else 0.0,
                    attrs=attrs)

    def finish(self, span: Span, **attrs: Any) -> Span:
        """Close *span* now and emit it to the sink."""
        span.end = self.clock.now if self.clock is not None else span.start
        if attrs:
            if span.attrs is None:
                span.attrs = attrs
            else:
                span.attrs.update(attrs)
        self.sink.emit(span.to_dict())
        return span

    def record(self, trace_id: str, name: str, key: str, start: float,
               end: Optional[float] = None, parent_id: Optional[str] = None,
               kind: str = "", site: str = "", source: str = "",
               destination: str = "",
               attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Emit a complete span in one call (start/end already known)."""
        span = Span(trace_id, span_id(trace_id, name, key), name,
                    parent_id=parent_id, kind=kind, site=site, source=source,
                    destination=destination, start=start,
                    end=start if end is None else end, attrs=attrs)
        self.sink.emit(span.to_dict())
        return span


class _NullSink:
    """Swallow everything (the disabled tracer's sink)."""

    __slots__ = ()

    def emit(self, span: Dict[str, Any]) -> None:  # pragma: no cover - guard
        pass


_NULL_SINK = _NullSink()
