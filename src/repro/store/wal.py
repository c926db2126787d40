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
:meth:`~repro.store.policy.StoreCosts.wal_cost_model`), so the payload
bytes a commit carries are load-bearing, not just telemetry.
:meth:`WriteAheadLog.fold_into` lets the snapshot layer compact the
committed states into base images (see :mod:`repro.store.snapshot`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

__all__ = ["WriteAheadLog", "apply_states"]

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


class WriteAheadLog:
    """One site's committed redo state: the last state per folder, since
    replay reads nothing else, plus the records and payload bytes committed
    since the last fold, which price recovery and trigger compaction."""

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
               size_bytes: int) -> None:
        """Apply one group commit's captured folder states, which carry
        *size_bytes* of payload (deletions carry none)."""
        for cabinet, folder, elements in captures:
            self._states[cabinet, folder] = elements
            self._pending += 1
            self.total_committed += 1
        self.bytes_pending += size_bytes

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
