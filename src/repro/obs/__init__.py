"""Observability: causal tracing (`repro.obs`).

The paper's unit of work is the *itinerary* — an agent hopping site to
site with a briefcase and rear guards — and this package makes one
visible end to end:

* :mod:`repro.obs.span` — the span model.  Trace context travels in the
  agent's briefcase (``TRACE_ID`` / ``TRACE_PARENT`` folders), so
  causality survives batching envelopes, cross-shard handoffs on every
  backend (including pickled process pipes), and agent migration itself.
* :mod:`repro.obs.tracer` — the per-engine :class:`Tracer`.
* :mod:`repro.obs.sinks` — the in-memory span ring (each engine's one
  record ring, which its log lines share whether tracing is on or off).
* :mod:`repro.obs.report` — the trace file: ``write_trace`` (what
  ``kernel.dump_trace(path)`` calls, the one way a trace reaches disk),
  ``load_trace``, and the analyzer that turns a trace into per-itinerary
  hop timelines and per-(source, destination) / per-subsystem p50/p99
  breakdowns (also a CLI: ``python -m repro.obs.report trace.jsonl``).

Counters are not kept here: every engine counter lives in its
:class:`~repro.net.stats.NetworkStats` or its agent table, read through
``kernel.stats`` and ``kernel.counters()``.
"""

from repro.obs.sinks import RingSink
from repro.obs.span import (Span, TRACE_ID_FOLDER, TRACE_PARENT_FOLDER,
                            infra_trace_id, span_id)
from repro.obs.tracer import Tracer

__all__ = [
    "Span", "TRACE_ID_FOLDER", "TRACE_PARENT_FOLDER", "span_id",
    "infra_trace_id",
    "Tracer",
    "RingSink",
]
