"""The diffusion agent: controlled flooding over the whole network.

Paper section 2 introduces the flooding example twice:

* the *naive* variant clones at every adjacent site and never checks whether
  a site was already visited, so "the number of agents increases without
  bound" on cyclic topologies;
* the *diffusion* variant "records its visit in a site-local folder" and
  terminates instead of cloning when it lands on an already-visited site.
  Section 2 then generalises it: the diffusion agent "executes a specified
  agent locally and then creates a clone of itself at every site that
  appears in the set difference of the site-local SITES folder and the
  briefcase SITES folder."

Both variants are implemented so ``tests/unit/test_diffusion.py`` can
compare them.  The briefcase layout:

* ``SITES`` — the sites the *sender* already knows to be covered (clones
  extend this as they go);
* ``TASK`` — optional; the name of an agent to meet locally at each visited
  site (the "specified agent");
* ``PAYLOAD`` — optional; data handed to the TASK agent / left in the local
  ``diffusion`` cabinet (the message being flooded);
* ``TTL`` — optional hop budget for the naive variant so the unbounded
  growth can be measured without actually running forever.
"""

from __future__ import annotations

from typing import List

from repro.core.briefcase import SITES_FOLDER, Briefcase
from repro.core.context import AgentContext

__all__ = ["diffusion_behaviour", "naive_flood_behaviour"]

#: name of the site-local cabinet used to record visits
DIFFUSION_CABINET = "diffusion"
#: folder (in that cabinet) listing visited/known-covered site names
VISITED_FOLDER = "SITES"


def _known_sites(briefcase: Briefcase) -> List[str]:
    if not briefcase.has(SITES_FOLDER):
        return []
    return [site for site in briefcase.folder(SITES_FOLDER).elements()]


def _deliver_locally(ctx: AgentContext, briefcase: Briefcase):
    """Record the visit, store the payload, and run the TASK agent if named."""
    cabinet = ctx.cabinet(DIFFUSION_CABINET)
    cabinet.put(VISITED_FOLDER, ctx.site_name)
    if briefcase.has("PAYLOAD"):
        cabinet.put("PAYLOAD", briefcase.get("PAYLOAD"))
    task = briefcase.get("TASK")
    if task is not None:
        task_briefcase = Briefcase()
        if briefcase.has("PAYLOAD"):
            task_briefcase.set("PAYLOAD", briefcase.get("PAYLOAD"))
        task_briefcase.set("ORIGIN", briefcase.get("ORIGIN", ctx.site_name))
        yield ctx.meet(task, task_briefcase)


def diffusion_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """Flood with duplicate suppression via the site-local SITES folder."""
    cabinet = ctx.cabinet(DIFFUSION_CABINET)
    if cabinet.contains_element(VISITED_FOLDER, ctx.site_name):
        # Someone already delivered here: terminate instead of cloning.
        yield ctx.end_meet("duplicate")
        return "duplicate"

    yield from _deliver_locally(ctx, briefcase)

    # Clone to every site in the set difference of (all reachable neighbours)
    # and (sites the briefcase already knows to be covered, plus what the
    # local cabinet has recorded).
    known = set(_known_sites(briefcase))
    known.add(ctx.site_name)
    locally_recorded = set(cabinet.elements(VISITED_FOLDER))
    covered = known | locally_recorded
    targets = [site for site in ctx.neighbors() if site not in covered]

    for target in targets:
        clone = briefcase.copy()
        clone.discard(SITES_FOLDER)
        sites_folder = clone.folder(SITES_FOLDER, create=True)
        for site in sorted(covered | set(targets)):
            sites_folder.push(site)
        yield ctx.jump(clone, target)

    yield ctx.end_meet(len(targets))
    return len(targets)


def naive_flood_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """Flood by cloning at every neighbour with no visit record (paper's anti-pattern).

    A TTL folder bounds the explosion so the run terminates; each clone
    decrements it.  The number of agent transfers generated is the quantity
    the tests contrast with the diffusion agent's.
    """
    yield from _deliver_locally(ctx, briefcase)

    ttl = briefcase.get("TTL", 0)
    if ttl <= 0:
        yield ctx.end_meet(0)
        return 0

    targets = ctx.neighbors()
    for target in targets:
        clone = briefcase.copy()
        clone.set("TTL", ttl - 1)
        yield ctx.jump(clone, target)

    yield ctx.end_meet(len(targets))
    return len(targets)
