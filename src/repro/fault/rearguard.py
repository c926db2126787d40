"""Rear-guard agents (paper section 5).

"The solutions we have studied involve leaving a *rear guard* agent behind
whenever execution moves from one site to another.  This rear guard is
responsible for (i) launching a new agent should a failure cause an agent
to vanish and (ii) terminating itself when its function is no longer
necessary (because the agent it protects is itself ready to terminate)."

The scheme implemented here keeps (up to) two live guards behind the
travelling agent — one-behind chaining:

* before the agent jumps from site ``S_k`` to ``S_{k+1}`` (hop ``k+1``) it
  spawns a guard at ``S_k`` holding a *snapshot* of exactly the briefcase
  being shipped (its stored elements, shared and never re-encoded);
* when the agent lands at hop ``j`` it sends a release notice to every
  guard protecting a hop ``<= j - 1`` (those guards have seen the
  computation move two sites past them and can retire);
* a guard whose deadline expires without a release presumes the protected
  agent vanished (site crash, lost transfer) and re-ships the snapshot —
  to the original target if it is reachable again, otherwise skipping ahead
  along the itinerary.  The timeout is the one failure detector, on every
  transport: it over-suspects rather than under-suspects (a slow agent may
  be relaunched needlessly), and the deduplication below absorbs the twin;
* duplicate arrivals (a slow agent plus its relaunched twin) are absorbed
  by per-site done-markers and by deduplication at the delivery site, so a
  computation completes *exactly once* even though relaunching is
  at-least-once.

The paper points out the hard cases — cyclic itineraries and cloning
fan-out.  Cycles are handled because done-markers are keyed by (computation
id, hop sequence number), not by site; fan-out is handled by giving each
clone its own computation id suffix (see ``ftmove.fan_out_ids``).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.briefcase import Briefcase
from repro.core.context import AgentContext
from repro.core.folder import Folder
from repro.core.registry import register_behaviour
from repro.net.message import MessageKind

__all__ = [
    "REAR_GUARD_NAME", "RELEASE_AGENT_NAME", "REARGUARD_CABINET", "CHECKPOINTS_FOLDER",
    "rear_guard_behaviour", "release_agent_behaviour",
    "guard_snapshot", "install_fault_agents",
    "pending_guards", "make_release_folder", "make_relaunch_ack_folder",
    "prune_released_checkpoints",
]

#: registered name of the rear-guard behaviour
REAR_GUARD_NAME = "rear_guard"
#: installed name of the release-recording agent (present at every site)
RELEASE_AGENT_NAME = "rear_guard_release"
#: site-local cabinet the fault-tolerance machinery records into
REARGUARD_CABINET = "rearguard"

# A guard's own briefcase: its parameters as one element, and the shipment's
# stored elements in folder order -- not as top-level folders, whose TRACE_ID
# would make the guard a traced run.
_GUARD = "GUARD"
_GUARD_SHIPMENT = "GUARD_SHIPMENT"

#: folder (in the rearguard cabinet) holding durable briefcase checkpoints
#: (written by the ft visitor, revived by repro.fault.recovery, pruned here
#: as releases retire them)
CHECKPOINTS_FOLDER = "checkpoints"


def guard_snapshot(ft_id: str, protects_seq: int,
                   shipped_briefcase: Union[Briefcase, dict],
                   per_hop_time: float, max_relaunches: int = 2,
                   ack_aware: bool = False) -> Briefcase:
    """Build the briefcase a rear guard is spawned with.

    ``shipped_briefcase`` is the exact briefcase being sent for hop
    *protects_seq* (or its ``to_wire()`` form, as a durable checkpoint
    holds it); the guard keeps its stored elements, the same ``bytes``
    objects, so a relaunch re-creates that hop byte-for-byte without
    pickling anything.  With ``ack_aware`` the relaunched
    twin is expected to acknowledge its landing (the ft visitor does), and
    a shipment that stays un-acked is re-sent without consuming the
    relaunch budget; leave it False for payloads that never ack, so the
    exactly-``max_relaunches`` budget semantics stay pinned.
    """
    items = (shipped_briefcase.stored_items()
             if isinstance(shipped_briefcase, Briefcase) else
             [(folder["name"], folder["elements"])
              for folder in shipped_briefcase["folders"]])
    guard = Briefcase()
    guard.set(_GUARD, (ft_id, int(protects_seq), float(per_hop_time), int(max_relaunches),
                       bool(ack_aware),
                       [(name, len(elements)) for name, elements in items]))
    guard.add(Folder.from_stored(
        _GUARD_SHIPMENT, [element for _, elements in items for element in elements]))
    return guard


def _shipment(guard: Briefcase) -> Briefcase:
    """The briefcase *guard* protects, rebuilt over its stored elements."""
    stored = iter(guard.folder(_GUARD_SHIPMENT).raw_elements())
    return Briefcase.from_stored_items((name, list(itertools.islice(stored, count)))
                                       for name, count in guard.get(_GUARD)[-1])


def release_agent_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """Record arriving release notices in the site-local rearguard cabinet.

    The travelling agent cannot meet a guard directly (the guard is an
    anonymous spawned instance), so releases flow through this well-known
    agent: the courier delivers a ``FT_RELEASE`` folder here, and guards at
    this site poll the cabinet.  A folder may carry several notices — the
    landing agent packs every hop released at this site into *one* envelope
    — and each notice may itself list multiple released hops in
    ``released_seqs``; the whole envelope is acknowledged exactly once
    (one ``release_acks`` record, one ``end_meet``), not once per hop.

    Relaunch acknowledgements (notices with ``ack=True``, sent by a
    relaunched twin the moment it lands) arrive through the same path and
    are recorded under ``relaunch_acks``: they are the end-to-end evidence
    an ``ft-relaunch`` envelope survived the delivery fabric, which is what
    lets a guard distinguish "my shipment was lost at flush time" from "the
    twin died later".
    """
    cabinet = ctx.cabinet(REARGUARD_CABINET)
    recorded = 0
    for folder_name in ("FT_RELEASE", "FT_RELAUNCH_ACK",
                        briefcase.get("PAYLOAD_NAME", "FT_RELEASE")):
        if briefcase.has(folder_name):
            for notice in briefcase.folder(folder_name).elements():
                if isinstance(notice, dict) and "ft_id" in notice:
                    target = "relaunch_acks" if notice.get("ack") else "releases"
                    cabinet.put(target, notice)
                    recorded += 1
            break
    cabinet.put("release_acks", {"notices": recorded, "at": ctx.now,
                                 "from": briefcase.get("SENDER_SITE")})
    if recorded:
        # New releases may retire durable checkpoints parked here.
        prune_released_checkpoints(cabinet)
    yield ctx.end_meet(recorded)
    return recorded


def _folded_notices(cabinet, folder_name: str, fold) -> Dict[str, object]:
    """Per-``ft_id`` marks folded from an append-only notice log, on read.

    ``releases`` and ``relaunch_acks`` only ever grow by ``cabinet.put``,
    and every guard at the site polls them, so the marks are kept in the
    cabinet's derived-state slot and each call decodes just the notices
    filed since the previous one.  Whatever breaks "only grew" (a rewrite
    by ``add``, ``remove``, a crash, the recovery restore) drops the slot,
    and the next call re-derives the marks from the stored bytes.  Notices
    that are not dicts or name no ``ft_id`` match no guard and are skipped.
    """
    if not cabinet.has(folder_name):
        return {}
    folder = cabinet.folder(folder_name)
    derived = cabinet.derived(folder_name)
    folded = derived.get("folded", 0)
    if len(folder) > folded:
        marks = derived.setdefault("marks", {})
        # from_stored adopts the unread tail as-is: nothing older is decoded.
        unread = Folder.from_stored(folder_name, folder.raw_elements()[folded:])
        for notice in unread.elements():
            if isinstance(notice, dict) and "ft_id" in notice:
                fold(marks, notice)
        derived["folded"] = len(folder)
    return derived.get("marks", {})


def _fold_release(reached: Dict[str, float], notice: dict) -> None:
    """``reached[ft_id]``: the furthest hop any release reports (inf once done)."""
    hop = math.inf if notice.get("done") else int(notice.get("reached_seq", -1))
    reached[notice["ft_id"]] = max(hop, reached.get(notice["ft_id"], -math.inf))


def _fold_relaunch_ack(acks: Dict[str, List[Tuple[int, float]]], notice: dict) -> None:
    """``acks[ft_id]``: ``(seq, at)`` of every landing acknowledgement."""
    acks.setdefault(notice["ft_id"], []).append(
        (int(notice.get("seq", -1)), float(notice.get("at", 0.0))))


def _released(cabinet, ft_id: str, protects_seq: int) -> bool:
    """Has a release arrived that retires a guard protecting *protects_seq*?"""
    reached = _folded_notices(cabinet, "releases", _fold_release)
    return reached.get(ft_id, -math.inf) >= protects_seq + 1


def _relaunch_acked(cabinet, ft_id: str, protects_seq: int, since: float) -> bool:
    """Did a twin acknowledge landing for this guard's hop after *since*?"""
    acks = _folded_notices(cabinet, "relaunch_acks", _fold_relaunch_ack)
    return any(seq >= protects_seq and at >= since for seq, at in acks.get(ft_id, ()))


def _checkpoint_head(checkpoint) -> Optional[Tuple[str, int]]:
    """``(ft_id, protects_seq)`` of a parked checkpoint; None if it is not one."""
    if isinstance(checkpoint, dict) and "ft_id" in checkpoint:
        return checkpoint["ft_id"], int(checkpoint.get("protects_seq", 0))
    return None


def prune_released_checkpoints(cabinet) -> int:
    """Drop durable checkpoints whose computation has released past them.

    Checkpoints accumulate one entry per protected hop; without pruning, a
    long-running durable workload grows the folder (and every WAL record
    re-serializing it) without bound.  Under the bytes-proportional WAL
    cost model (``StoreCosts.write_byte_latency``) that growth is no longer
    just memory: every group commit re-prices the folder's full payload,
    so pruning directly bounds the simulated cost of each checkpoint
    barrier too.  Called whenever new releases are recorded; returns how
    many checkpoints were retired.

    A checkpoint is a whole briefcase snapshot and pruning looks at two
    integers of it, so each stored element is decoded once: its head is
    remembered under the stored bytes themselves (which cannot go stale) in
    the cabinet's derived-state slot, and retiring drops stored elements —
    the survivors are never re-encoded.
    """
    if not cabinet.has(CHECKPOINTS_FOLDER):
        return 0
    stored = cabinet.folder(CHECKPOINTS_FOLDER).raw_elements()
    heads = cabinet.derived(CHECKPOINTS_FOLDER)
    unread = [element for element in stored if element not in heads]
    heads.update(zip(unread, map(
        _checkpoint_head, Folder.from_stored(CHECKPOINTS_FOLDER, unread).elements())))
    # Fold the release log once per prune, not once per parked checkpoint.
    reached = _folded_notices(cabinet, "releases", _fold_release)
    survivors = [element for element in stored
                 if (head := heads[element]) is None
                 or reached.get(head[0], -math.inf) < head[1] + 1]
    pruned = len(stored) - len(survivors)
    if pruned:
        # One reindex and one journal entry for the folder.  That drops the
        # slot with the index, so the memo is re-seeded from the survivors
        # and stays bounded by the live checkpoints.
        cabinet.add(Folder.from_stored(CHECKPOINTS_FOLDER, survivors), replace=True)
        cabinet.derived(CHECKPOINTS_FOLDER).update(
            (element, heads[element]) for element in survivors)
    return pruned


def rear_guard_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """The rear guard proper: poll for a release, relaunch on timeout.

    The protected hop is presumed lost at the first poll at or after
    ``start + max(0.5, 6 * per_hop)`` (two hops' time, three times over,
    never under half a second); the guard polls every
    ``max(0.125, per_hop / 2)``, and each shipment restarts the deadline.

    Outcome (returned and recorded in the local rearguard cabinet under
    ``guard_outcomes``): ``"released"``, ``"relaunched"`` (at least one
    relaunch happened before release), or ``"gave-up"`` after exhausting the
    relaunch budget.

    The relaunch loop is ack-aware: with the delivery fabric enabled, an
    "accepted" shipment only means queued-in-outbox, so the guard watches
    ``relaunch_acks`` for the twin's landing acknowledgement.  A shipment
    that stays un-acked by the next timeout was lost in flight or at flush
    time (e.g. a partition dropped the batch) — the guard then *re-sends*
    without consuming its relaunch budget, since the loss was the
    network's fault, not evidence the computation keeps dying.  Re-sends
    are bounded separately and recorded under ``relaunch_retries``.
    """
    (ft_id, protects_seq, per_hop, max_relaunches,
     ack_aware) = briefcase.get(_GUARD)[:-1]   # the layout is re-read per relaunch

    cabinet = ctx.cabinet(REARGUARD_CABINET)
    timeout = max(0.5, per_hop * 2 * 3.0)
    poll = max(0.5 / 4.0, per_hop / 2.0)
    deadline = ctx.now + timeout
    relaunches = 0
    resends = 0
    #: bound on budget-free re-sends of lost-unacked shipments
    max_resends = max(2, max_relaunches)
    #: ship time of the last accepted shipment still lacking a landing ack
    awaiting_since: Optional[float] = None
    outcome = "released"

    while True:
        if _released(cabinet, ft_id, protects_seq):
            break
        if ctx.now >= deadline:
            if awaiting_since is not None and _relaunch_acked(
                    cabinet, ft_id, protects_seq, awaiting_since):
                # The twin landed (the envelope survived); continued silence
                # now means the twin itself vanished later, so the next
                # shipment is a real relaunch, charged to the budget again.
                awaiting_since = None
            retry = (ack_aware and awaiting_since is not None
                     and resends < max_resends)
            if not retry and relaunches >= max_relaunches:
                outcome = "gave-up"
                break
            sent = yield from _relaunch(ctx, briefcase)
            if retry:
                resends += 1
                cabinet.put("relaunch_retries", {
                    "ft_id": ft_id, "protects_seq": protects_seq,
                    "retry": resends, "at": ctx.now, "accepted": bool(sent)})
            else:
                relaunches += 1
                cabinet.put("relaunches", {"ft_id": ft_id, "protects_seq": protects_seq,
                                           "attempt": relaunches, "at": ctx.now,
                                           "accepted": bool(sent)})
            outcome = "relaunched"
            awaiting_since = ctx.now if sent else None
            deadline = ctx.now + timeout
        yield ctx.sleep(poll)

    cabinet.put("guard_outcomes", {"ft_id": ft_id, "protects_seq": protects_seq,
                                   "outcome": outcome, "relaunches": relaunches,
                                   "at": ctx.now})
    return outcome


def _relaunch(ctx: AgentContext, guard: Briefcase):
    """Re-ship the guarded briefcase; skip ahead if the target is unreachable.

    The snapshot carries ``TARGET_SITE`` (the hop it was shipped for) and
    ``ITINERARY`` (the hops after that).  The guard tries the original
    target first; every refusal (site down, no route at send time) makes it
    skip to the next itinerary entry, recording the skip so the relaunched
    agent knows which hops were abandoned.
    """
    snapshot = _shipment(guard)
    candidates: List[str] = []
    target = snapshot.get("TARGET_SITE")
    if target is not None:
        candidates.append(target)
    if snapshot.has("ITINERARY"):
        candidates.extend(list(snapshot.folder("ITINERARY").elements()))

    attempt_order = list(dict.fromkeys(candidates))  # preserve order, drop dupes
    for index, candidate in enumerate(attempt_order):
        # Every attempt edits and ships its own briefcase; the first takes
        # the one the candidates were read from.
        shipment = snapshot if index == 0 else _shipment(guard)
        if candidate != target:
            # Rebuild the itinerary without the hops we are skipping over.
            remaining = attempt_order[index + 1:]
            itinerary = shipment.folder("ITINERARY", create=True)
            itinerary.replace(remaining)
            skipped = shipment.folder("SKIPPED", create=True)
            for missed in attempt_order[:index]:
                skipped.push(missed)
            shipment.set("TARGET_SITE", candidate)
        shipment.set("RELAUNCHED", True)
        # The twin acknowledges this site the moment it lands; the ack is
        # what distinguishes "envelope lost at flush time" (re-send free of
        # budget) from "twin died later" (a real relaunch).
        shipment.set("ACK_GUARD_SITE", ctx.site_name)
        shipment.set("HOST", candidate)
        shipment.set("CONTACT", "ag_py")
        # Relaunches ride the delivery fabric: the guard already waited out
        # a conservative timeout, so a flush window of extra latency is
        # irrelevant next to the header/setup a coalesced shipment saves.
        # Trade-off: a batched "accepted" means queued-in-the-outbox, so a
        # loss at flush time is no longer reported as a refusal — the guard
        # then recovers through its next timeout (the at-least-once model)
        # instead of skipping ahead immediately.  Post-time refusals (site
        # down, partitioned) still return False and skip ahead, because
        # posting to an unroutable pair bypasses the outbox.
        shipment.set("KIND", MessageKind.FT_RELAUNCH)
        result = yield ctx.meet("rexec", shipment)
        if result.value:
            return True
    return False


def install_fault_agents(kernel) -> None:
    """Install the release-recording agent at every site of *kernel*."""
    kernel.install_agent(None, RELEASE_AGENT_NAME, release_agent_behaviour, replace=True)


def pending_guards(kernel) -> List[Dict[str, object]]:
    """Every guard outcome recorded anywhere in the system (test/benchmark helper)."""
    outcomes = []
    for site_name in kernel.site_names():
        cabinet = kernel.site(site_name).cabinet(REARGUARD_CABINET)
        for record in cabinet.elements("guard_outcomes"):
            entry = dict(record)
            entry["guard_site"] = site_name
            outcomes.append(entry)
    return outcomes


def make_release_folder(ft_id: str, reached_seq: int, done: bool = False,
                        released_seqs: Sequence[int] = ()) -> Folder:
    """The folder an arriving agent sends back to retire its guards.

    ``released_seqs`` lists every hop number this one envelope retires at
    the destination site (all hops ``<= reached_seq - 2``, or everything on
    ``done``); it is informational for the release agent's ledger — guards
    match on ``reached_seq``/``done`` — and omitted when not given, keeping
    the single-guard folder shape unchanged.
    """
    notice: Dict[str, object] = {"ft_id": ft_id, "reached_seq": int(reached_seq),
                                 "done": bool(done)}
    if released_seqs:
        notice["released_seqs"] = sorted(int(seq) for seq in released_seqs)
    return Folder("FT_RELEASE", [notice])


def make_relaunch_ack_folder(ft_id: str, seq: int, at: float) -> Folder:
    """The landing acknowledgement a relaunched twin sends its guard.

    Rides the fabric as an ``ft-release`` payload to the guard site's
    release agent, which records it under ``relaunch_acks``.
    """
    return Folder("FT_RELAUNCH_ACK",
                  [{"ft_id": ft_id, "seq": int(seq), "at": float(at), "ack": True}])


register_behaviour(REAR_GUARD_NAME, rear_guard_behaviour, replace=True)
register_behaviour(RELEASE_AGENT_NAME, release_agent_behaviour, replace=True)
