"""Durability policies and the store cost model.

A policy decides *when* cabinet state becomes durable; the
:class:`~repro.store.sitestore.SiteStore` provides the mechanisms (dirty
tracking, group commit, snapshots, replay).  Three policies ship with the
system:

``none``
    The legacy model: no store is built at all, cabinets survive crashes
    for free.  Kept as the explicit baseline so experiments can price it.
``flush-on-demand``
    Mutations are tracked but volatile until someone calls
    :meth:`SiteStore.flush` (or yields a durability barrier).  The flush is
    synchronous: the caller is charged write latency per dirty folder plus
    one fsync.
``wal-group-commit``
    Every cabinet mutation is journaled; an armed group-commit event fires
    ``commit_window`` simulated seconds after the first dirty mutation and
    makes the whole batch durable for one fsync.

Custom policies subclass :class:`DurabilityPolicy` and can be passed
directly as ``KernelConfig.durability``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.flow import CostModel

__all__ = ["DurabilityPolicy", "NoDurability", "FlushOnDemand", "WalGroupCommit",
           "POLICIES", "resolve_policy", "StoreCosts"]


@dataclass(frozen=True)
class StoreCosts:
    """Simulated-time prices of the durable store.

    The four write-side prices come from ``KernelConfig``'s ``store_*``
    knobs; the replay and compaction prices below them are constants.
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


class DurabilityPolicy:
    """Base class: what a site store does about cabinet mutations.

    Attributes
    ----------
    durable:
        False only for :class:`NoDurability`; the kernel builds no stores
        when the policy is not durable.
    tracks_mutations:
        Mutations of durable cabinets mark folders dirty (needed by both
        explicit flushes and the WAL).
    group_commit:
        Dirty folders arm a group-commit event ``commit_window`` out; the
        batch becomes durable when the commit's write+fsync completes.
    """

    name = "abstract"
    durable = True
    tracks_mutations = True
    group_commit = False

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class NoDurability(DurabilityPolicy):
    """Legacy free permanence: no store, cabinets survive crashes unpriced."""

    name = "none"
    durable = False
    tracks_mutations = False


class FlushOnDemand(DurabilityPolicy):
    """State becomes durable only at explicit, synchronous flush points."""

    name = "flush-on-demand"


class WalGroupCommit(DurabilityPolicy):
    """Journal every mutation; group-commit batches on the simulated clock."""

    name = "wal-group-commit"
    group_commit = True


POLICIES = {
    NoDurability.name: NoDurability,
    FlushOnDemand.name: FlushOnDemand,
    WalGroupCommit.name: WalGroupCommit,
}


def resolve_policy(spec: Union[str, DurabilityPolicy, None]) -> DurabilityPolicy:
    """Resolve a ``KernelConfig.durability`` value to a policy instance."""
    if spec is None:
        return NoDurability()
    if isinstance(spec, DurabilityPolicy):
        return spec
    if isinstance(spec, str):
        try:
            return POLICIES[spec]()
        except KeyError:
            raise ValueError(f"unknown durability policy {spec!r}; "
                             f"choose from {sorted(POLICIES)}") from None
    raise ValueError(f"cannot build a durability policy from {spec!r}")
