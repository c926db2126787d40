"""Span sinks: where finished spans go.

Every sink consumes plain dicts (:meth:`repro.obs.span.Span.to_dict`),
so sinks compose freely and everything they hold is picklable:

* :class:`RingSink` — bounded in-memory ring, the default.  Keeps an
  absolute emit counter so the process shard backend can ship *new*
  spans in each state digest (:meth:`RingSink.since`).
* :class:`JsonlSink` — one JSON object per line, append-only file.
* :class:`TeeSink` — fan a span out to several sinks (ring + file).
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["RingSink", "JsonlSink", "TeeSink"]


class RingSink:
    """Bounded in-memory span store (drop-oldest)."""

    __slots__ = ("capacity", "_spans", "total", "dropped")

    def __init__(self, capacity: int = 65536):
        self.capacity = max(1, int(capacity))
        self._spans: deque = deque(maxlen=self.capacity)
        #: spans ever emitted (absolute; never decreases)
        self.total = 0
        #: spans the ring dropped to stay within capacity
        self.dropped = 0

    def emit(self, span: Dict[str, Any]) -> None:
        if len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append(span)
        self.total += 1

    def export(self) -> List[Dict[str, Any]]:
        """Every retained span, oldest first."""
        return list(self._spans)

    def since(self, seq: int) -> Tuple[int, List[Dict[str, Any]]]:
        """Spans with absolute index >= *seq* still retained, plus the new seq.

        The digest protocol: a worker calls ``since(sent)`` each round and
        ships the delta.  Spans that fell off the ring between digests are
        simply gone (the ring bounds memory, not completeness).
        """
        first_retained = self.total - len(self._spans)
        skip = max(0, seq - first_retained)
        fresh = list(itertools.islice(self._spans, skip, None))
        return self.total, fresh

    def close(self) -> None:  # pragma: no cover - protocol completeness
        pass

    def __len__(self) -> int:
        return len(self._spans)


class JsonlSink:
    """Append spans to a file, one JSON object per line."""

    __slots__ = ("path", "_handle", "written")

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "a", encoding="utf-8")
        self.written = 0

    def emit(self, span: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(span, sort_keys=True,
                                      default=_json_fallback))
        self._handle.write("\n")
        self.written += 1

    def export(self) -> List[Dict[str, Any]]:
        """JSONL sinks retain nothing in memory."""
        return []

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None


class TeeSink:
    """Forward every span to several sinks (e.g. ring + JSONL file)."""

    __slots__ = ("sinks",)

    def __init__(self, sinks: Sequence):
        self.sinks = list(sinks)

    def emit(self, span: Dict[str, Any]) -> None:
        for sink in self.sinks:
            sink.emit(span)

    def export(self) -> List[Dict[str, Any]]:
        for sink in self.sinks:
            spans = sink.export()
            if spans:
                return spans
        return []

    def since(self, seq: int):
        for sink in self.sinks:
            if hasattr(sink, "since"):
                return sink.since(seq)
        return seq, []

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def _json_fallback(value: Any) -> Any:
    """Last-resort JSON encoding for exotic attr values."""
    if isinstance(value, (set, frozenset, tuple)):
        return sorted(value) if isinstance(value, (set, frozenset)) else list(value)
    return repr(value)
