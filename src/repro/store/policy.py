"""The store cost model: what the durable store charges in simulated time.

:class:`StoreCosts` prices WAL writes, fsyncs, group-commit windows,
recovery replay and compaction.  *When* cabinet state becomes durable is
``KernelConfig.durability``, a name that
:class:`~repro.store.sitestore.SiteStore` interprets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flow import CostModel

__all__ = ["StoreCosts"]


@dataclass(frozen=True)
class StoreCosts:
    """Simulated-time prices of the durable store.

    ``commit_window`` comes from ``KernelConfig.store_commit_window``;
    every other price is this class's default (a test swaps a store's
    ``costs`` to change one).
    """

    #: seconds charged per WAL record written at commit/flush time
    write_latency: float = 0.0002
    #: seconds charged per payload byte a WAL record carries — the
    #: bytes-proportional term of the disk's cost model, so a fat snapshot
    #: record genuinely costs more than a tiny counter update (the default
    #: models a ~100 MB/s log device)
    write_byte_latency: float = 0.00000001
    #: seconds charged per fsync (once per group commit or explicit flush)
    fsync_latency: float = 0.004
    #: group-commit window: how long the WAL batches appends before syncing
    commit_window: float = 0.05
    #: seconds charged per base-image folder / redo record replayed at recovery
    replay_latency: float = 0.0005
    #: fixed cost of beginning recovery (log scan, cabinet directory walk)
    recovery_base: float = 0.05
    #: committed redo records tolerated before compaction folds them into
    #: the base snapshot images
    snapshot_threshold: int = 256

    def wal_cost_model(self) -> CostModel:
        """The disk as a :class:`~repro.flow.CostModel`.

        One batched write of N records carrying B payload bytes costs
        ``write_latency * N + write_byte_latency * B + fsync_latency``
        — the same shared pricing shape the transports use for the wire.
        """
        return CostModel(base=self.write_latency,
                         per_byte=self.write_byte_latency,
                         sync=self.fsync_latency)
