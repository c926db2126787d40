"""Durable storage for file cabinets (paper section 6).

The paper says cabinets "can be flushed to disk when permanence is
required".  Before this subsystem existed, permanence was free and fake:
``Kernel.crash_site`` killed every resident agent while every in-memory
cabinet silently survived, so crash experiments never paid a durability
cost and never lost un-flushed state.

:class:`SiteStore` makes permanence a real, priced resource.  Each site
owns one store holding

* a write-ahead log (:mod:`repro.store.wal`) whose group commit is batched
  on the *simulated* clock — per-record write latency plus one fsync per
  commit, the classic amortisation;
* snapshot/compaction (:mod:`repro.store.snapshot`) folding old redo
  records into per-cabinet base images so recovery does not replay history
  forever;
* a durability policy, ``KernelConfig.durability``, named by a string:
  ``none`` (the legacy free-permanence model), ``flush-on-demand``
  (explicit synchronous checkpoints) and ``wal-group-commit`` (journal
  every cabinet mutation, commit in batches), priced by
  :class:`StoreCosts` (:mod:`repro.store.policy`).

Crash semantics become honest end to end: ``Kernel.crash_site`` discards
un-logged cabinet state (emitting a ``state lost`` kernel event),
``Kernel.recover_site`` replays snapshot + WAL with a modelled recovery
delay before the site accepts traffic, and the durability counters are
surfaced in :class:`~repro.net.stats.NetworkStats`.
"""

from repro.store.policy import StoreCosts
from repro.store.sitestore import SiteStore
from repro.store.snapshot import CabinetImage, capture_cabinet, restore_cabinet
from repro.store.wal import WriteAheadLog

__all__ = [
    "StoreCosts",
    "WriteAheadLog",
    "CabinetImage", "capture_cabinet", "restore_cabinet",
    "SiteStore",
]
