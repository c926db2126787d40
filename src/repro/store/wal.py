"""The write-ahead log: committed redo records for durable cabinets.

The WAL is *logical*: each record carries the full serialized state of one
folder at commit time (``elements`` is the folder's raw byte elements, or
``None`` for a deletion).  Replaying records in order therefore converges —
the last record for a folder wins — which is exactly the property the
group commit relies on: every mutation between two commits collapses into
one record per dirty folder.

Sizes are tracked because the store's cost model charges
bytes-proportional work: a commit of N records carrying B payload bytes is
priced ``write_latency * N + write_byte_latency * B + fsync_latency``
through the shared :class:`~repro.flow.CostModel` (see
:meth:`~repro.store.policy.StoreCosts.wal_cost_model`), so
:attr:`WalRecord.size_bytes` is load-bearing, not just telemetry.
:meth:`WriteAheadLog.fold_into` lets the snapshot layer compact the
committed states into base images (see :mod:`repro.store.snapshot`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["WalRecord", "WriteAheadLog", "apply_states"]

#: a collapsed per-folder state map: (cabinet, folder) -> elements (None = deleted)
FolderStates = Dict[Tuple[str, str], Optional[Tuple[bytes, ...]]]


def apply_states(states: FolderStates,
                 images: Dict[str, Dict[str, Tuple[bytes, ...]]]) -> None:
    """Apply collapsed folder states to per-cabinet base *images* in place.

    The single definition of redo semantics — compaction
    (:meth:`WriteAheadLog.fold_into`) and recovery
    (:meth:`SiteStore.durable_state`) both go through here, so they can
    never disagree about what a deletion record means.
    """
    for (cabinet, folder), elements in states.items():
        image = images.setdefault(cabinet, {})
        if elements is None:
            image.pop(folder, None)
        else:
            image[folder] = elements


class WalRecord:
    """One committed redo record: the durable state of one folder."""

    __slots__ = ("seq", "cabinet", "folder", "elements", "size_bytes",
                 "committed_at")

    def __init__(self, seq: int, cabinet: str, folder: str,
                 elements: Optional[Tuple[bytes, ...]], committed_at: float):
        self.seq = seq
        self.cabinet = cabinet
        self.folder = folder
        #: raw stored elements at commit time; None records a deletion
        self.elements = elements
        self.size_bytes = sum(map(len, elements)) if elements else 0
        self.committed_at = committed_at

    def __repr__(self) -> str:
        what = "DEL" if self.elements is None else f"{len(self.elements)} elems"
        return (f"WalRecord(#{self.seq} {self.cabinet}/{self.folder}: {what}, "
                f"{self.size_bytes}B @ {self.committed_at:.4f})")


class WriteAheadLog:
    """One site's committed redo state: the last state per folder, since
    replay reads nothing else, plus the records and payload bytes committed
    since the last fold, which price recovery and trigger compaction.
    :meth:`commit` still returns a :class:`WalRecord` per captured folder,
    for the stats."""

    def __init__(self) -> None:
        #: (cabinet, folder) -> last committed elements (None = deleted)
        self._states: FolderStates = {}
        #: records committed since the last fold (``len(wal)``)
        self._pending = 0
        #: payload bytes committed since the last fold
        self.bytes_pending = 0
        #: total records ever committed (survives compaction, for ledgers)
        self.total_committed = 0

    # -- writing -----------------------------------------------------------

    def commit(self, captures: Iterable[Tuple[str, str, Optional[Tuple[bytes, ...]]]],
               at: float) -> List[WalRecord]:
        """Apply one group commit's captured folder states; returns the records."""
        records = []
        for cabinet, folder, elements in captures:
            self._pending += 1
            self.total_committed += 1
            record = WalRecord(self.total_committed, cabinet, folder, elements, at)
            self._states[cabinet, folder] = elements
            self.bytes_pending += record.size_bytes
            records.append(record)
        return records

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        """Records committed since the last fold."""
        return self._pending

    def replay_states(self) -> FolderStates:
        """The final per-folder states (last wins), in first-commit order."""
        return dict(self._states)

    # -- compaction --------------------------------------------------------

    def fold_into(self, images: Dict[str, Dict[str, Tuple[bytes, ...]]]) -> int:
        """Apply the folded states to the base *images* and empty the log.

        Returns the number of records folded.  ``images`` maps cabinet name
        to ``{folder name: raw elements}``; a deletion removes the folder
        from the image.
        """
        folded = self._pending
        apply_states(self._states, images)
        self._states = {}
        self._pending = self.bytes_pending = 0
        return folded

    def __repr__(self) -> str:
        return (f"WriteAheadLog({self._pending} records pending replay, "
                f"{self.total_committed} ever committed)")
