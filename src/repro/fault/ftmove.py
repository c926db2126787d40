"""Fault-tolerant itinerant computations built from rear guards (paper section 5).

Two itinerant agents walk the same kind of itinerary:

* :func:`ft_visitor_behaviour` — protected: spawns a rear guard before every
  hop, releases guards as it makes progress, deduplicates at every site and
  at the delivery site, so site crashes along the way do not lose the
  computation (as long as the delivery site survives);
* :func:`plain_visitor_behaviour` — the unprotected baseline: a crash of the
  site currently hosting the agent (or a lost transfer) silently kills the
  whole computation.

``tests/integration/test_fault_endtoend.py`` launches both over the same
failure schedules and compares completion rates and duplicate completions;
``tests/unit/test_ftmove.py`` bounds the message overhead the guards add.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

from repro.core.briefcase import Briefcase
from repro.core.context import AgentContext, wait_until_durable
from repro.core.kernel import Kernel
from repro.core.registry import register_behaviour
from repro.fault.rearguard import (REARGUARD_CABINET, RELEASE_AGENT_NAME, guard_snapshot,
                                   install_fault_agents, make_release_folder,
                                   make_relaunch_ack_folder,
                                   prune_released_checkpoints, rear_guard_behaviour)
from repro.fault.recovery import record_checkpoint
from repro.net.message import MessageKind

__all__ = [
    "FT_VISITOR_NAME", "PLAIN_VISITOR_NAME", "RESULTS_CABINET",
    "ft_visitor_behaviour", "plain_visitor_behaviour",
    "launch_ft_computation", "launch_plain_computation",
    "completions", "fan_out_ids",
]

#: registered behaviour names (they must be resolvable at every site to jump)
FT_VISITOR_NAME = "ft_visitor"
PLAIN_VISITOR_NAME = "plain_visitor"

#: cabinet at the delivery site where finished computations are recorded
RESULTS_CABINET = "ft_results"

_computation_ids = itertools.count(1)


# ---------------------------------------------------------------------------
# the protected visitor
# ---------------------------------------------------------------------------

def _do_local_work(ctx: AgentContext, briefcase: Briefcase, seq: int):
    """Perform this hop's work: meet TASK if named, else sample the local data cabinet."""
    task = briefcase.get("TASK")
    results = briefcase.folder("RESULTS", create=True)
    if task is not None:
        work = Briefcase()
        work.set("FT_ID", briefcase.get("FT_ID"))
        work.set("SEQ", seq)
        outcome = yield ctx.meet(task, work)
        results.push({"site": ctx.site_name, "seq": seq,
                      "value": outcome.value if outcome is not None else None,
                      "at": ctx.now})
    else:
        value = ctx.cabinet("data").get("VALUE")
        results.push({"site": ctx.site_name, "seq": seq, "value": value, "at": ctx.now})
        yield ctx.sleep(float(briefcase.get("WORK_SECONDS", 0.01)))


def _send_releases(ctx: AgentContext, briefcase: Briefcase, ft_id: str,
                   reached_seq: int, done: bool = False,
                   retire_through: Optional[int] = None):
    """Retire every guard whose hop the computation has now moved safely past.

    Two guards trail the agent (the guards at the two most recently departed
    sites): a guard protecting hop ``p`` retires only once the computation
    has reached hop ``p + 2``.  Keeping two alive means losing the current
    site *and* the most recent guard site simultaneously still leaves a
    guard able to relaunch — the paper's "details ... are complex" remark
    is exactly about this window.

    Release traffic is batch-aware: the retiring guards are grouped by
    guard site and each site gets *one* ``ft-release`` envelope listing
    every released hop (a cyclic itinerary can park several guards at one
    site), instead of one courier per guard.  The envelope rides the
    delivery fabric, and the release agent acknowledges it once.

    ``retire_through`` overrides the conservative two-behind rule: every
    guard protecting a hop ``<= retire_through`` is retired.  The absorbed
    duplicate-twin path uses it — a twin landing on a ``:departed`` marker
    proves the hop it re-ships both ran and departed, so even the guard
    that shipped the twin is provably stale.
    """
    guards_folder = briefcase.folder("GUARDS", create=True)
    guards: List[dict] = [guard for guard in guards_folder.elements()
                          if isinstance(guard, dict)]
    keep: List[dict] = []
    retiring_by_site: Dict[str, List[int]] = {}
    threshold = reached_seq - 2 if retire_through is None else retire_through
    for guard in guards:
        protects_seq = int(guard.get("protects_seq", 0))
        retire = done or protects_seq <= threshold
        if not retire:
            keep.append(guard)
            continue
        retiring_by_site.setdefault(guard.get("site"), []).append(protects_seq)
    for guard_site, released_seqs in retiring_by_site.items():
        if guard_site == ctx.site_name:
            local_cabinet = ctx.cabinet(REARGUARD_CABINET)
            local_cabinet.put(
                "releases", {"ft_id": ft_id, "reached_seq": reached_seq, "done": done,
                             "released_seqs": sorted(released_seqs)})
            prune_released_checkpoints(local_cabinet)
        else:
            notice = make_release_folder(ft_id, reached_seq, done=done,
                                         released_seqs=released_seqs)
            if ctx.obs.active and ctx.trace_id is not None:
                # The release notice itself travels via the courier (its
                # delivery span lands at the guard site); this span marks
                # the guard-retirement decision on the itinerary's trace.
                ctx.obs.record(ctx.trace_id, "ft-release",
                               ctx.obs.next_key(ctx.site_name), start=ctx.now,
                               parent_id=ctx.trace_parent, kind="ft",
                               site=ctx.site_name, destination=guard_site,
                               attrs={"released": sorted(released_seqs),
                                      "done": done})
            yield ctx.send_folder(notice, guard_site, RELEASE_AGENT_NAME,
                                  kind=MessageKind.FT_RELEASE)
    guards_folder.replace(keep)


def ft_visitor_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """The rear-guard-protected itinerant agent (state machine, one hop per site)."""
    ft_id = briefcase.get("FT_ID", "ft-unnamed")
    seq = int(briefcase.get("SEQ", 0))
    per_hop = float(briefcase.get("PER_HOP", 0.5))
    max_relaunches = int(briefcase.get("MAX_RELAUNCHES", 2))
    cabinet = ctx.cabinet(REARGUARD_CABINET)

    # A relaunched twin acknowledges the guard that shipped it as soon as it
    # lands: the ack is the end-to-end evidence the ft-relaunch envelope
    # survived the delivery fabric (with batching on, an "accepted" shipment
    # only means queued-in-outbox).  A guard whose shipment stays un-acked
    # re-sends on its next timeout without burning its relaunch budget.
    if briefcase.has("ACK_GUARD_SITE"):
        ack_site = briefcase.remove("ACK_GUARD_SITE").peek()
        if ack_site == ctx.site_name:
            cabinet.put("relaunch_acks",
                        {"ft_id": ft_id, "seq": seq, "at": ctx.now, "ack": True})
        else:
            yield ctx.send_folder(make_relaunch_ack_folder(ft_id, seq, ctx.now),
                                  ack_site, RELEASE_AGENT_NAME,
                                  kind=MessageKind.FT_RELEASE)

    # Duplicate suppression, two-phase and crash-epoch-aware.  A twin is
    # absorbed when this hop safely *departed* (the ``:departed`` marker is
    # set once the next transfer was handed to the network), or when the
    # hop already ran in the *current* crash epoch — the original is still
    # here, alive and mid-work, and a twin must not chase a living
    # computation (duplicate chains would compound).  An arrival marker
    # from an older epoch means the computation died here mid-hop — the
    # site crashed between landing and jump — so the twin re-executes the
    # hop instead of vanishing against stale (possibly durably-restored)
    # state.
    marker = f"{ft_id}:{seq}"
    if cabinet.contains_element("done_markers", f"{marker}:departed"):
        # The departed marker proves hop *seq* both ran and left for hop
        # seq+1, so the computation reached seq+1 — re-issue the releases
        # with that evidence, retiring every guard protecting <= seq,
        # *including* the guard that shipped this twin (it only fired
        # because its release was lost, and nothing behind a departed
        # marker is relaunchable anyway).  Final-hop duplicates are
        # deduplicated downstream against ``completed_ids``.
        yield from _send_releases(ctx, briefcase, ft_id, reached_seq=seq + 1,
                                  retire_through=seq)
        return "duplicate-hop"
    if cabinet.contains_element("done_markers",
                                f"{marker}@{ctx.site_crash_count}"):
        # Same epoch, not yet departed: the original is still executing
        # this hop.  Conservative release only (reached *seq*) — the
        # shipping guard stays armed until the live original's own
        # progress releases it.
        yield from _send_releases(ctx, briefcase, ft_id, reached_seq=seq)
        return "duplicate-hop"
    cabinet.put("done_markers", f"{marker}@{ctx.site_crash_count}")
    # Logged only for hops that actually execute (absorbed duplicates cost
    # a message, not work): test_durability_endtoend.py reads these events
    # to count re-executed hops.
    ctx.log(f"hop-exec {ft_id} seq={seq}")
    # The hop span is keyed by the itinerary position (``hop{seq}``), not a
    # counter, so the same hop re-executed after a crash keeps one identity
    # and span trees match across shard execution backends.
    hop_span = None
    if ctx.obs.active and ctx.trace_id is not None:
        hop_span = ctx.obs.begin(ctx.trace_id, "ft-hop", f"hop{seq}",
                                 parent_id=ctx.trace_parent, kind="ft",
                                 site=ctx.site_name, attrs={"ft_id": ft_id})
        ctx.set_trace_parent(hop_span.span_id)

    yield from _do_local_work(ctx, briefcase, seq)

    itinerary = briefcase.folder("ITINERARY", create=True)
    if itinerary:
        yield from _send_releases(ctx, briefcase, ft_id, reached_seq=seq)
        next_site = itinerary.dequeue()
        next_seq = seq + 1
        briefcase.set("SEQ", next_seq)
        briefcase.set("TARGET_SITE", next_site)
        guards_folder = briefcase.folder("GUARDS", create=True)
        guards_folder.push({"site": ctx.site_name, "protects_seq": next_seq})

        # Building the jump syscall attaches CODE/HOST/CONTACT to the
        # briefcase, so the snapshot taken right after it is exactly what a
        # relaunch must re-ship.
        jump = ctx.jump(briefcase, next_site)
        snapshot_wire = briefcase.to_wire()
        yield ctx.spawn(rear_guard_behaviour,
                        guard_snapshot(ft_id, next_seq, snapshot_wire, per_hop,
                                       max_relaunches,
                                       view_assisted=bool(briefcase.get("VIEW_ASSISTED",
                                                                        False)),
                                       ack_aware=True),
                        name=f"rear-guard-{ft_id}-{next_seq}")
        if briefcase.get("DURABLE_CHECKPOINT") and ctx.store is not None:
            # Checkpointed guards: file the guard's exact snapshot in the
            # durable store and wait out the durability barrier, so the
            # checkpoint is committed before the transfer departs.  If this
            # site and every trailing guard site later crash together, the
            # post-recovery revival sweep resumes the computation from here
            # instead of losing it (see repro.fault.recovery).  The barrier
            # is looped against a journal mark: an estimate can come up
            # short when the commit batch grows after pricing, and the
            # checkpoint must genuinely be durable before the jump.  A
            # barrier always piggybacks on the group commit: it commits the
            # batch immediately instead of sitting out the commit window —
            # the wait logged below is the checkpoint latency per hop (the
            # ``ft-ckpt`` span when tracing is on).
            record_checkpoint(cabinet, ft_id, next_seq, snapshot_wire,
                              per_hop, max_relaunches)
            barrier_from = ctx.now
            ckpt_span = None
            if hop_span is not None:
                ckpt_span = ctx.obs.begin(ctx.trace_id, "ft-ckpt",
                                          f"hop{next_seq}",
                                          parent_id=hop_span.span_id,
                                          kind="store", site=ctx.site_name)
            yield from wait_until_durable(ctx)
            if ckpt_span is not None:
                ctx.obs.finish(ckpt_span, waited=ctx.now - barrier_from)
            ctx.log(f"ckpt-wait {ft_id} seq={next_seq} "
                    f"waited={ctx.now - barrier_from:.6f}")
        result = yield jump
        if hop_span is not None:
            ctx.obs.finish(hop_span, status="moved", next_site=next_site)
        if result is not None and result.value:
            # The transfer was handed to the network: a twin arriving here
            # later is redundant and may be absorbed.  Crash before this
            # point and the marker stays un-departed, so a twin re-executes
            # the hop instead of vanishing against a stale marker.
            cabinet.put("done_markers", f"{marker}:departed")
        return "moved"

    # Final hop: deliver exactly once.  The single done release retires
    # every guard still trailing — including any the regular reached-seq
    # rule would have covered — so each guard site gets exactly one
    # envelope from the landing instead of two release rounds.
    delivery = ctx.cabinet(RESULTS_CABINET)
    if delivery.contains_element("completed_ids", ft_id):
        yield from _send_releases(ctx, briefcase, ft_id, reached_seq=seq, done=True)
        if hop_span is not None:
            ctx.obs.finish(hop_span, status="duplicate-completion")
        return "duplicate-completion"
    delivery.put("completed_ids", ft_id)
    delivery.put("completions", {
        "ft_id": ft_id,
        "results": briefcase.folder("RESULTS", create=True).elements(),
        "hops": seq,
        "skipped": briefcase.folder("SKIPPED", create=True).elements(),
        "relaunched": bool(briefcase.get("RELAUNCHED", False)),
        "completed_at": ctx.now,
        "site": ctx.site_name,
    })
    yield from _send_releases(ctx, briefcase, ft_id, reached_seq=seq, done=True)
    if hop_span is not None:
        ctx.obs.finish(hop_span, status="delivered")
    return "completed"


# ---------------------------------------------------------------------------
# the unprotected baseline
# ---------------------------------------------------------------------------

def plain_visitor_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """The same itinerary walk with no rear guards (the unprotected baseline)."""
    ft_id = briefcase.get("FT_ID", "plain-unnamed")
    seq = int(briefcase.get("SEQ", 0))
    ctx.log(f"hop-exec {ft_id} seq={seq}")

    yield from _do_local_work(ctx, briefcase, seq)

    itinerary = briefcase.folder("ITINERARY", create=True)
    if itinerary:
        next_site = itinerary.dequeue()
        briefcase.set("SEQ", seq + 1)
        briefcase.set("TARGET_SITE", next_site)
        yield ctx.jump(briefcase, next_site)
        return "moved"

    delivery = ctx.cabinet(RESULTS_CABINET)
    if not delivery.contains_element("completed_ids", ft_id):
        delivery.put("completed_ids", ft_id)
        delivery.put("completions", {
            "ft_id": ft_id,
            "results": briefcase.folder("RESULTS", create=True).elements(),
            "hops": seq,
            "skipped": [],
            "relaunched": False,
            "completed_at": ctx.now,
            "site": ctx.site_name,
        })
    return "completed"


register_behaviour(FT_VISITOR_NAME, ft_visitor_behaviour, replace=True)
register_behaviour(PLAIN_VISITOR_NAME, plain_visitor_behaviour, replace=True)


# ---------------------------------------------------------------------------
# launch and collection helpers
# ---------------------------------------------------------------------------

def _build_briefcase(ft_id: str, itinerary: Sequence[str], per_hop: float,
                     max_relaunches: int, work_seconds: float,
                     task: Optional[str], view_assisted: bool = False,
                     durable_checkpoints: bool = False) -> Briefcase:
    briefcase = Briefcase()
    briefcase.set("FT_ID", ft_id)
    briefcase.set("SEQ", 0)
    briefcase.set("PER_HOP", per_hop)
    briefcase.set("MAX_RELAUNCHES", max_relaunches)
    briefcase.set("WORK_SECONDS", work_seconds)
    if view_assisted:
        briefcase.set("VIEW_ASSISTED", True)
    if durable_checkpoints:
        briefcase.set("DURABLE_CHECKPOINT", True)
    if task is not None:
        briefcase.set("TASK", task)
    itinerary_folder = briefcase.folder("ITINERARY", create=True)
    for site in itinerary:
        itinerary_folder.enqueue(site)
    return briefcase


def launch_ft_computation(kernel: Kernel, origin: str, itinerary: Sequence[str],
                          ft_id: Optional[str] = None, per_hop: float = 0.5,
                          max_relaunches: int = 2, work_seconds: float = 0.01,
                          task: Optional[str] = None, delay: float = 0.0,
                          view_assisted: bool = False,
                          durable_checkpoints: bool = False) -> str:
    """Launch a rear-guard-protected computation; returns its computation id.

    The itinerary lists the sites to visit *after* the origin; the last
    entry is the delivery site where the completion record lands.  The
    release-recording agent is installed everywhere as a side effect
    (idempotent).  With ``view_assisted`` the guards additionally react to
    Horus view changes (call
    :func:`repro.fault.install_horus_guard_detection` first).  With
    ``durable_checkpoints`` the visitor files each hop's guard snapshot in
    the site's durable store before jumping and checkpoint revival is
    wired in (:func:`repro.fault.recovery.install_checkpoint_recovery`) —
    meaningful only when the kernel runs with a durability policy other
    than "none".
    """
    install_fault_agents(kernel)
    if durable_checkpoints:
        from repro.fault.recovery import install_checkpoint_recovery
        install_checkpoint_recovery(kernel)
    ft_id = ft_id or f"ft-{next(_computation_ids):05d}"
    briefcase = _build_briefcase(ft_id, itinerary, per_hop, max_relaunches,
                                 work_seconds, task, view_assisted=view_assisted,
                                 durable_checkpoints=durable_checkpoints)
    if kernel.obs.active:
        # Name the trace after the computation: one grep-able id ties the
        # kernel event log, the completion record and the span tree together.
        from repro.obs import TRACE_ID_FOLDER
        briefcase.set(TRACE_ID_FOLDER, ft_id)
    kernel.launch(origin, FT_VISITOR_NAME, briefcase, delay=delay)
    return ft_id


def launch_plain_computation(kernel: Kernel, origin: str, itinerary: Sequence[str],
                             ft_id: Optional[str] = None, work_seconds: float = 0.01,
                             task: Optional[str] = None, delay: float = 0.0) -> str:
    """Launch the unprotected baseline computation; returns its computation id."""
    ft_id = ft_id or f"plain-{next(_computation_ids):05d}"
    briefcase = _build_briefcase(ft_id, itinerary, per_hop=0.5, max_relaunches=0,
                                 work_seconds=work_seconds, task=task)
    if kernel.obs.active:
        from repro.obs import TRACE_ID_FOLDER
        briefcase.set(TRACE_ID_FOLDER, ft_id)
    kernel.launch(origin, PLAIN_VISITOR_NAME, briefcase, delay=delay)
    return ft_id


def completions(kernel: Kernel, delivery_site: str,
                ft_id: Optional[str] = None) -> List[Dict[str, object]]:
    """Completion records found at *delivery_site* (optionally for one computation)."""
    cabinet = kernel.site(delivery_site).cabinet(RESULTS_CABINET)
    records = [record for record in cabinet.elements("completions")
               if isinstance(record, dict)]
    if ft_id is not None:
        records = [record for record in records if record.get("ft_id") == ft_id]
    return records


def fan_out_ids(base_id: str, branches: int) -> List[str]:
    """Per-branch computation ids for a cloning (fan-out) computation.

    The paper notes fan-out complicates rear guards; giving every branch its
    own id keeps the done-markers and delivery dedup of different branches
    from interfering.
    """
    return [f"{base_id}/branch-{index:03d}" for index in range(branches)]
