"""A real on-disk mirror of the logical write-ahead log.

Under ``KernelConfig(backend="realtime", store_realtime_dir=...)`` every
site's :class:`~repro.store.sitestore.SiteStore` gets a
:class:`FileWalSink`: each group commit's redo records are appended to
``<dir>/<site>.wal`` and the batch is flushed with a real ``os.fsync``
before the commit is acknowledged — the commit latency the sim backend
*prices* (``store_fsync_latency``) becomes a latency the realtime backend
*pays*.

The file is a mirror, not the recovery source: recovery still replays
the in-memory logical WAL (snapshot images + redo records), which is
what keeps crash/recovery semantics identical across backends.  The
crash-discard property holds on disk for free — a site crash cancels the
in-flight sync *before* :meth:`~repro.store.sitestore.SiteStore._finalize`
would have appended the batch, so un-fsynced state simply never reaches
the file.  :func:`read_wal_file` reads a sink's file back for tests and
post-mortems.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, List, Optional, Sequence

from repro.core.timing import default_timer
from repro.store.wal import WalRecord, WalSink

__all__ = ["FileWalSink", "read_wal_file"]


class FileWalSink(WalSink):
    """Appends committed redo records to one file, fsyncing per commit."""

    def __init__(self, path: str, fsync: bool = True):
        self.path = os.fspath(path)
        #: real fsyncs can be disabled for tests on slow filesystems; the
        #: flush (page-cache write) still happens per commit
        self.fsync = fsync
        self.commits = 0
        self.records_written = 0
        #: optional metrics hook (the kernel wires a sketch's ``record``
        #: here): called with each commit's measured flush+fsync seconds
        self.latency_observe: Optional[Callable[[float], None]] = None
        self._handle = open(self.path, "ab")

    def commit(self, records: Sequence[WalRecord]) -> None:
        """Append one group commit's records and make them durable."""
        if self._handle is None:
            return  # closed sink: the store is shutting down
        started = default_timer() if self.latency_observe is not None else 0.0
        for record in records:
            pickle.dump((record.seq, record.cabinet, record.folder,
                         record.elements, record.committed_at),
                        self._handle, protocol=pickle.HIGHEST_PROTOCOL)
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self.commits += 1
        self.records_written += len(records)
        if self.latency_observe is not None:
            self.latency_observe(default_timer() - started)

    def close(self) -> None:
        """Close the file; idempotent."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def __repr__(self) -> str:
        return (f"FileWalSink({self.path!r}, {self.records_written} records "
                f"over {self.commits} commits)")


def read_wal_file(path: str) -> List[WalRecord]:
    """Read a :class:`FileWalSink` file back into :class:`WalRecord` objects.

    Truncated trailing data (a crash mid-append on a real machine) ends
    the read rather than raising: everything before the torn tail was
    fsynced and is returned.
    """
    records: List[WalRecord] = []
    with open(path, "rb") as handle:
        while True:
            try:
                seq, cabinet, folder, elements, committed_at = pickle.load(handle)
            except EOFError:
                break
            except pickle.UnpicklingError:
                break  # torn tail: keep the durable prefix
            records.append(WalRecord(seq, cabinet, folder, elements,
                                     committed_at))
    return records
