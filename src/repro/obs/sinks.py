"""The span sink: where finished spans go.

:class:`RingSink` is a bounded in-memory ring and each engine's one record
store: finished spans arrive as plain dicts
(:meth:`repro.obs.span.Span.to_dict`) and its engine's log lines, plain
tuples, share it, so everything it holds is picklable.  It keeps an
absolute emit counter so the process shard backend can ship *new* records
in each state digest (:meth:`RingSink.since`).  A trace reaches a file
only through ``kernel.dump_trace(path)``, which writes what the rings hold
with :func:`repro.obs.report.write_trace`.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Dict, List, Tuple

__all__ = ["RingSink"]

#: records a ring holds before it drops its oldest: each engine's log lines
#: (``kernel.event_log``) and, with tracing on, its spans share it.  Read
#: when a ring is built, so a test may patch it before ``Kernel(...)``.
RING_CAPACITY = 265_536


class RingSink:
    """An engine's one bounded record ring (drop-oldest).

    Two kinds of record share it, in the order they happened: log lines,
    ``(at, agent_id, site, message)`` tuples from ``log_event``/``ctx.log``,
    and (when tracing is on) finished spans as dicts.  :meth:`lines` reads
    the first kind, :meth:`export` the second.
    """

    __slots__ = ("capacity", "_records", "total")

    def __init__(self):
        self.capacity = RING_CAPACITY
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

    def __len__(self) -> int:
        return len(self._records)
