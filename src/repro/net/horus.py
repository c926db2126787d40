"""Horus-style group communication (paper section 6, third rexec implementation).

The TACOMA prototype's third transport was "Tcl/Horus, a version of Tcl
that uses Horus [vRHB94] to support group communication and
fault-tolerance."  Horus provides *process groups* with virtually
synchronous membership views: every surviving member sees the same sequence
of views.

The reproduction implements the subset TACOMA consumed:

* point-to-point messaging (so :class:`HorusTransport` is a drop-in
  :class:`~repro.net.transport.Transport` and ``rexec`` can use it);
* named process groups with join/leave;
* failure detection that removes crashed members and installs a new view
  after a bounded detection delay;
* view-change notifications to the callbacks :meth:`subscribe_views`
  registers.

Nothing reaches a site except a message to an agent there, so views go to
subscribers, never through a site's message handler.  The fault-tolerance
layer (:mod:`repro.fault`) subscribes to view changes instead of running its
own ping-based detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.core.errors import GroupError, NotMemberError
from repro.flow import CostModel
from repro.net.message import Message
from repro.net.transport import Transport

__all__ = ["GroupView", "ProcessGroup", "HorusTransport"]


@dataclass(frozen=True)
class GroupView:
    """One membership view: a numbered snapshot of who is in the group."""

    group: str
    view_id: int
    members: tuple

    def __contains__(self, site: str) -> bool:
        return site in self.members


@dataclass
class ProcessGroup:
    """Mutable group state kept by the transport (the 'group server' role)."""

    name: str
    members: List[str] = field(default_factory=list)
    view_id: int = 0

    def view(self) -> GroupView:
        """The current view."""
        return GroupView(self.name, self.view_id, tuple(self.members))


#: callback signature for view-change observers: observer(view)
ViewObserver = Callable[[GroupView], None]


class HorusTransport(Transport):
    """Point-to-point transport plus Horus-style group communication.

    Point-to-point costs sit between rsh and raw TCP: Horus keeps long-lived
    channels between group members, so per-message setup is small, but its
    protocol stack adds a per-message processing cost.
    """

    name = "horus"

    #: channel establishment on first contact between two sites
    CONNECT_SETUP = 0.030
    #: protocol-stack overhead per message on an established channel
    ESTABLISHED_SETUP = 0.004
    #: how long after a crash surviving members install the next view
    #: (simulated seconds, scheduled on the kernel's event loop)
    DETECTION_DELAY = 0.150

    #: shared cost-model view: per-message protocol-stack base, plus one
    #: sync (channel establishment) on first contact between a pair
    SETUP_COSTS = CostModel(base=ESTABLISHED_SETUP,
                            sync=CONNECT_SETUP - ESTABLISHED_SETUP)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._channels: set = set()
        self._groups: Dict[str, ProcessGroup] = {}
        self._observers: Dict[str, List[ViewObserver]] = {}

    # ------------------------------------------------------------------
    # point-to-point transport behaviour
    # ------------------------------------------------------------------

    def setup_delay(self, message: Message) -> float:
        pair = tuple(sorted((message.source, message.destination)))
        if pair in self._channels:
            return self.SETUP_COSTS.cost(items=1, syncs=0)
        self._channels.add(pair)
        return self.SETUP_COSTS.cost(items=1, syncs=1)

    # ------------------------------------------------------------------
    # group management
    # ------------------------------------------------------------------

    def create_group(self, name: str, members: Sequence[str] = ()) -> GroupView:
        """Create a process group with the given initial members."""
        if name in self._groups:
            raise GroupError(f"group {name!r} already exists")
        group = ProcessGroup(name=name)
        self._groups[name] = group
        for member in members:
            self._add_member(group, member)
        return self._install_view(group)

    def has_group(self, name: str) -> bool:
        """True if a group called *name* exists."""
        return name in self._groups

    def group_view(self, name: str) -> GroupView:
        """The current view of group *name*."""
        return self._group(name).view()

    def join(self, name: str, site: str) -> GroupView:
        """Add *site* to group *name* and install a new view."""
        group = self._group(name)
        if site in group.members:
            return group.view()
        self._add_member(group, site)
        return self._install_view(group)

    def leave(self, name: str, site: str) -> GroupView:
        """Remove *site* from group *name* (voluntary leave) and install a new view."""
        group = self._group(name)
        if site not in group.members:
            raise NotMemberError(f"{site!r} is not a member of group {name!r}")
        group.members.remove(site)
        return self._install_view(group)

    def subscribe_views(self, name: str, observer: ViewObserver) -> None:
        """Register a callback invoked (immediately in simulated time) at each new view."""
        self._group(name)  # existence check
        self._observers.setdefault(name, []).append(observer)

    # ------------------------------------------------------------------
    # failure handling -> view changes
    # ------------------------------------------------------------------

    def on_site_down(self, site_name: str) -> None:
        """Drop channels touching the site and schedule view changes."""
        super().on_site_down(site_name)  # drop the fabric's pending outboxes
        self._channels = {pair for pair in self._channels if site_name not in pair}
        for group in self._groups.values():
            if site_name in group.members:
                self.loop.schedule(
                    self.DETECTION_DELAY,
                    lambda g=group, s=site_name: self._exclude_member(g, s),
                    label=f"horus-detect-{group.name}")

    def on_site_up(self, site_name: str) -> None:
        """Recovered sites do not rejoin automatically; they must call :meth:`join`."""

    def _exclude_member(self, group: ProcessGroup, site: str) -> None:
        if site not in group.members:
            return
        if not self.topology.is_down(site):
            # The site recovered before the detection delay elapsed; Horus
            # would have kept it in the view.
            return
        group.members.remove(site)
        self._install_view(group)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _group(self, name: str) -> ProcessGroup:
        try:
            return self._groups[name]
        except KeyError:
            raise GroupError(f"no group named {name!r}") from None

    def _add_member(self, group: ProcessGroup, site: str) -> None:
        if site not in self.topology:
            raise GroupError(f"cannot add unknown site {site!r} to group {group.name!r}")
        group.members.append(site)

    def _install_view(self, group: ProcessGroup) -> GroupView:
        group.view_id += 1
        view = group.view()
        for observer in self._observers.get(group.name, []):
            self.loop.schedule(0.0, lambda obs=observer, v=view: obs(v),
                               label=f"horus-observer-{group.name}")
        return view
