"""Checkpointed guards: durable briefcase checkpoints and post-recovery revival.

Rear guards (paper section 5) protect a travelling computation as long as
*some* guard survives.  The window they cannot cover is a coordinated
loss: the site hosting the agent crashes *and* every site holding a
trailing guard crashes inside the same protection window.  Without durable
state the computation is simply gone, and the only recovery available is
to re-run the whole itinerary from the origin.

With the durable store (:mod:`repro.store`) the fault-tolerance layer
closes that window:

* the protected visitor checkpoints the exact briefcase it ships — the
  same snapshot its rear guard holds — into the site's durable
  ``rearguard`` cabinet before every jump, and waits out a durability
  barrier so the checkpoint is committed before the transfer departs
  ("checkpointed guards");
* :func:`install_checkpoint_recovery` subscribes to the kernel's
  ``on_site_recovered`` hook: when a crashed site finishes replaying its
  snapshot + WAL, every restored, un-released checkpoint re-spawns a rear
  guard holding that snapshot.  The revived guard runs the normal
  protocol — poll for (restored) releases, relaunch on timeout — so the
  computation resumes from the last durable checkpoint instead of being
  re-run end to end.

Duplicate work caused by revival (the computation may in fact have limped
on) is absorbed by the usual done-markers and delivery-site deduplication.
"""

from __future__ import annotations

from typing import Dict

from repro.fault.rearguard import (CHECKPOINTS_FOLDER, REARGUARD_CABINET,
                                   _checkpoint_head, _released, guard_snapshot,
                                   install_fault_agents, rear_guard_behaviour)

__all__ = ["CHECKPOINTS_FOLDER", "REVIVED_FOLDER", "record_checkpoint",
           "install_checkpoint_recovery", "enable_durable_protection",
           "revive_checkpoints", "durable_ft_cabinets"]

#: audit ledger of revivals performed (informational; the skip decision is
#: guard *liveness*, not this folder — a durable marker would permanently
#: suppress revival after a second crash killed the revived guard)
REVIVED_FOLDER = "revived"


def durable_ft_cabinets():
    """Cabinets the fault-tolerance layer opts into durability.

    The rearguard cabinet (checkpoints, releases, done-markers) and the
    delivery-site results cabinet (completion dedup must survive a
    delivery-site restart).  Resolved lazily so the results-cabinet name
    stays single-sourced in :mod:`repro.fault.ftmove` without an import
    cycle.
    """
    from repro.fault.ftmove import RESULTS_CABINET
    return (REARGUARD_CABINET, RESULTS_CABINET)


def record_checkpoint(cabinet, ft_id: str, protects_seq: int, snapshot_wire: dict,
                      per_hop: float, max_relaunches: int) -> None:
    """File a durable checkpoint for hop *protects_seq* of computation *ft_id*.

    The snapshot is byte-identical to the one the hop's rear guard holds,
    so a revival re-ships exactly what the guard would have.  Its head is
    seeded into the memo :func:`~repro.fault.rearguard.prune_released_checkpoints`
    keeps, so the prune never decodes the whole-briefcase checkpoint just filed.
    """
    checkpoint = {
        "ft_id": ft_id,
        "protects_seq": int(protects_seq),
        "snapshot_wire": snapshot_wire,
        "per_hop": float(per_hop),
        "max_relaunches": int(max_relaunches),
    }
    cabinet.put(CHECKPOINTS_FOLDER, checkpoint)
    stored = cabinet.folder(CHECKPOINTS_FOLDER).raw_elements()[-1]
    cabinet.derived(CHECKPOINTS_FOLDER)[stored] = _checkpoint_head(checkpoint)


def enable_durable_protection(kernel) -> int:
    """Opt the fault-tolerance cabinets into durability at every site.

    No-op (returns 0) when the kernel runs with durability policy "none",
    so callers can enable unconditionally.
    """
    opted = 0
    for cabinet_name in durable_ft_cabinets():
        opted += kernel.make_durable(cabinet_name)
    return opted


def revive_checkpoints(kernel, site_name: str) -> int:
    """Re-spawn rear guards from the restored checkpoints of *site_name*.

    For each computation, only the newest restored checkpoint is
    considered; checkpoints already released (per the restored release
    ledger) or still protected by a live guard are skipped.  Returns the
    number of guards spawned.
    """
    site = kernel.site(site_name)
    if not site.has_cabinet(REARGUARD_CABINET):
        return 0
    cabinet = site.cabinet(REARGUARD_CABINET)
    best: Dict[str, dict] = {}
    for checkpoint in cabinet.elements(CHECKPOINTS_FOLDER):
        if not isinstance(checkpoint, dict) or "ft_id" not in checkpoint:
            continue
        kept = best.get(checkpoint["ft_id"])
        if kept is None or (int(checkpoint.get("protects_seq", 0))
                            > int(kept.get("protects_seq", 0))):
            best[checkpoint["ft_id"]] = checkpoint
    revived = 0
    for ft_id, checkpoint in best.items():
        protects_seq = int(checkpoint.get("protects_seq", 0))
        if _released(cabinet, ft_id, protects_seq):
            continue
        # Skip only while a guard for this checkpoint is still alive
        # somewhere; a durable skip-marker would permanently suppress
        # revival once a *later* crash killed the revived guard.
        if any(not agent.finished
               for name in (f"revived-guard-{ft_id}-{protects_seq}",
                            f"rear-guard-{ft_id}-{protects_seq}")
               for agent in kernel.agents_named(name)):
            continue
        cabinet.put(REVIVED_FOLDER, f"{ft_id}:{protects_seq}")
        guard = guard_snapshot(ft_id, protects_seq, checkpoint["snapshot_wire"],
                               float(checkpoint.get("per_hop", 0.5)),
                               int(checkpoint.get("max_relaunches", 2)),
                               ack_aware=True)
        kernel.launch(site_name, rear_guard_behaviour, guard,
                      name=f"revived-guard-{ft_id}-{protects_seq}")
        kernel.log_event("kernel", site_name,
                         f"revived rear guard for {ft_id} hop {protects_seq} "
                         f"from durable checkpoint")
        revived += 1
    return revived


def install_checkpoint_recovery(kernel) -> None:
    """Wire checkpoint revival into *kernel* (idempotent).

    Installs the release agents, opts the fault-tolerance cabinets into
    durability at every site, and
    subscribes the revival sweep to ``on_site_recovered``.  Under policy
    "none" the durability opt-ins are no-ops and recoveries restore
    nothing, so revival never fires — the legacy behaviour.
    """
    install_fault_agents(kernel)
    enable_durable_protection(kernel)
    if getattr(kernel, "_checkpoint_recovery_installed", False):
        return
    kernel._checkpoint_recovery_installed = True
    kernel.on_site_recovered(lambda site_name: revive_checkpoints(kernel, site_name))
