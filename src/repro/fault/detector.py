"""Failure detection for the rear-guard scheme (paper section 5).

A rear guard must decide that "a failure caused an agent to vanish" before
relaunching it.  Two detection styles are provided:

* **timeout-based** (:class:`TimeoutDetector`): the guard expects a release
  notice within a deadline derived from the itinerary's expected per-hop
  time; silence past the deadline means the protected agent is presumed
  lost.  This is what the rear-guard behaviour uses by default.
* **view-based** (:func:`subscribe_horus_suspicions`): when the kernel runs
  on the Horus transport, site crashes surface as group view changes; the
  helper translates those into suspicion records in a cabinet, so guards
  (or tests) can react without polling.

Both styles deliberately over-suspect rather than under-suspect: a slow
agent may be relaunched needlessly, and the destination-side deduplication
(see :mod:`repro.fault.ftmove`) absorbs the resulting duplicates.  That is
the classic trade-off of unreliable failure detectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.cabinet import FileCabinet
from repro.core.folder import Folder
from repro.net.horus import GroupView, HorusTransport

__all__ = ["TimeoutDetector", "Suspicion", "subscribe_horus_suspicions",
           "SUSPICION_CABINET"]

#: cabinet the Horus-based detector records suspicions into
SUSPICION_CABINET = "suspicions"


@dataclass
class Suspicion:
    """One 'site X is believed failed' record."""

    site: str
    suspected_at: float
    source: str          # "timeout" | "horus-view"
    detail: str = ""

    def to_wire(self) -> Dict[str, object]:
        return {"site": self.site, "suspected_at": self.suspected_at,
                "source": self.source, "detail": self.detail}


class TimeoutDetector:
    """Deadline bookkeeping for a rear guard.

    The guard computes a deadline when it is created; every poll it asks
    :meth:`expired` whether the protected agent is now presumed lost.  The
    deadline grows with the number of remaining hops so long itineraries do
    not trip early guards.
    """

    def __init__(self, per_hop_time: float, remaining_hops: int,
                 safety_factor: float = 3.0, minimum: float = 0.5):
        if per_hop_time <= 0:
            raise ValueError("per_hop_time must be positive")
        self.per_hop_time = per_hop_time
        self.remaining_hops = max(1, remaining_hops)
        self.safety_factor = safety_factor
        self.minimum = minimum

    def deadline_from(self, start: float) -> float:
        """Absolute simulated time after which the agent is presumed lost."""
        horizon = self.per_hop_time * self.remaining_hops * self.safety_factor
        return start + max(self.minimum, horizon)

    def expired(self, start: float, now: float) -> bool:
        """True once *now* is past the deadline computed from *start*."""
        return now >= self.deadline_from(start)

    def poll_interval(self) -> float:
        """How often the guard should wake up to check for a release."""
        return max(self.minimum / 4.0, self.per_hop_time / 2.0)


def subscribe_horus_suspicions(transport: HorusTransport, group: str,
                               cabinet: FileCabinet,
                               on_suspect: Optional[Callable[[Suspicion], None]] = None,
                               ) -> Callable[[GroupView], None]:
    """Record a suspicion whenever a member drops out of *group*'s view.

    Returns the observer that was subscribed (handy for tests).  The
    comparison is against the previously *observed* view, kept in the
    cabinet, so the helper is stateless across calls.
    """

    def observer(view: GroupView) -> None:
        previous: Sequence[str] = cabinet.get("last_members", default=[]) or []
        lost: List[str] = [member for member in previous if member not in view.members]
        cabinet.add(Folder("last_members", [list(view.members)]), replace=True)
        for site in lost:
            suspicion = Suspicion(site=site, suspected_at=0.0, source="horus-view",
                                  detail=f"dropped from view {view.view_id} of {group!r}")
            cabinet.put(SUSPICION_CABINET, suspicion.to_wire())
            if on_suspect is not None:
                on_suspect(suspicion)

    transport.subscribe_views(group, observer)
    # Seed the baseline membership so the first view change has something to
    # diff against.
    cabinet.add(Folder("last_members", [list(transport.group_view(group).members)]),
                replace=True)
    return observer
