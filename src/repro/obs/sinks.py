"""Span sinks: where finished spans go.

Every sink consumes plain dicts (:meth:`repro.obs.span.Span.to_dict`),
so sinks compose freely and everything they hold is picklable (the ring
also holds its engine's log lines, plain tuples):

* :class:`RingSink` — bounded in-memory ring, the default, and each
  engine's one record store: log lines share it with spans.  Keeps an
  absolute emit counter so the process shard backend can ship *new*
  records in each state digest (:meth:`RingSink.since`).
* :class:`JsonlSink` — one JSON object per line, in a file it starts empty.
* :class:`TeeSink` — fan a span out to several sinks (ring + file).
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["RingSink", "JsonlSink", "TeeSink"]


class RingSink:
    """An engine's one bounded record ring (drop-oldest).

    Two kinds of record share it, in the order they happened: log lines,
    ``(at, agent_id, site, message)`` tuples from ``log_event``/``ctx.log``,
    and (when tracing is on) finished spans as dicts.  :meth:`lines` reads
    the first kind, :meth:`export` the second.
    """

    __slots__ = ("capacity", "_records", "total")

    def __init__(self, capacity: int = 65536):
        self.capacity = max(1, int(capacity))
        self._records: deque = deque(maxlen=self.capacity)
        #: records ever emitted (absolute; never decreases)
        self.total = 0

    def emit(self, record) -> None:
        self._records.append(record)
        self.total += 1

    @property
    def dropped(self) -> int:
        """Records the ring dropped to stay within capacity."""
        return self.total - len(self._records)

    def export(self) -> List[Dict[str, Any]]:
        """Every retained span, oldest first."""
        return [record for record in self._records if type(record) is dict]

    def lines(self) -> List[tuple]:
        """Every retained log line, oldest first."""
        return [record for record in self._records if type(record) is tuple]

    def since(self, seq: int) -> Tuple[int, list]:
        """Records with absolute index >= *seq* still retained, plus the new seq.

        The digest protocol: a worker calls ``since(sent)`` each round and
        ships the delta.  Records that fell off the ring between digests
        are simply gone (the ring bounds memory, not completeness).
        """
        skip = max(0, seq - self.dropped)
        return self.total, list(itertools.islice(self._records, skip, None))

    def close(self) -> None:  # pragma: no cover - protocol completeness
        pass

    def __len__(self) -> int:
        return len(self._records)


class JsonlSink:
    """Write spans to a file, one JSON object per line.

    The file is truncated when the sink opens it, so it holds this sink's
    spans only, never a previous run's.
    """

    __slots__ = ("path", "_handle")

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "w", encoding="utf-8")

    def emit(self, span: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(span, sort_keys=True,
                                      default=_json_fallback))
        self._handle.write("\n")

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

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def _json_fallback(value: Any) -> Any:
    """Last-resort JSON encoding for exotic attr values."""
    if isinstance(value, (set, frozenset, tuple)):
        return sorted(value) if isinstance(value, (set, frozenset)) else list(value)
    return repr(value)
