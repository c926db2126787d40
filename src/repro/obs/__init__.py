"""Observability: causal tracing and one metrics read (`repro.obs`).

The paper's unit of work is the *itinerary* — an agent hopping site to
site with a briefcase and rear guards — and this package makes one
visible end to end:

* :mod:`repro.obs.span` — the span model.  Trace context travels in the
  agent's briefcase (``TRACE_ID`` / ``TRACE_PARENT`` folders), so
  causality survives batching envelopes, cross-shard handoffs on every
  backend (including pickled process pipes), and agent migration itself.
* :mod:`repro.obs.tracer` — per-kernel :class:`Tracer` plus the merged
  :class:`TracerView` the sharded facade exposes.
* :mod:`repro.obs.sinks` — pluggable span sinks: in-memory ring buffer
  (default, near-zero cost when tracing is off), JSONL file sink, and a
  fan-out tee.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, one ``collect()``
  over named sources.  It stores nothing: ``NetworkStats`` is the one
  counter store and registers as the ``"net"`` source, beside the flow and
  transport telemetry, so shard digests, ``store_summary`` and benchmark
  JSON read from one place.
* :mod:`repro.obs.report` — turns a JSONL trace into per-itinerary hop
  timelines and per-(source, destination) / per-subsystem p50/p99
  breakdowns (also a CLI: ``python -m repro.obs.report trace.jsonl``).
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import JsonlSink, RingSink, TeeSink
from repro.obs.span import (Span, TRACE_ID_FOLDER, TRACE_PARENT_FOLDER,
                            infra_trace_id, span_id)
from repro.obs.tracer import Tracer, TracerView

__all__ = [
    "Span", "TRACE_ID_FOLDER", "TRACE_PARENT_FOLDER", "span_id",
    "infra_trace_id",
    "Tracer", "TracerView",
    "RingSink", "JsonlSink", "TeeSink",
    "MetricsRegistry",
]
