"""Horus-style group communication (paper section 6, third rexec implementation).

The TACOMA prototype's third transport was "Tcl/Horus, a version of Tcl
that uses Horus [vRHB94] to support group communication and
fault-tolerance."  Horus provides *process groups* with membership views
and virtually synchronous reliable multicast: every surviving member sees
the same sequence of views, and a message multicast in view ``V`` is
delivered only to members of ``V`` that survive into the next view.

The reproduction implements the subset TACOMA consumed:

* point-to-point messaging (so :class:`HorusTransport` is a drop-in
  :class:`~repro.net.transport.Transport` and ``rexec`` can use it);
* named process groups with join/leave;
* reliable FIFO multicast within the current view;
* failure detection that removes crashed members and installs a new view at
  every surviving member after a bounded detection delay;
* view-change notifications delivered to group members through the same
  per-site handler used for normal messages (kind ``GROUP``).

The fault-tolerance layer (:mod:`repro.fault`) can subscribe to view
changes instead of running its own ping-based detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.errors import GroupError, NotMemberError
from repro.flow import CostModel
from repro.net.message import Message, MessageKind
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
    #: multicast sequence number, for FIFO ordering bookkeeping
    next_seqno: int = 0
    #: history of installed views (useful for tests and debugging)
    history: List[GroupView] = field(default_factory=list)

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
        #: delivered multicast count per group, visible to benchmarks
        self.multicasts_delivered: Dict[str, int] = {}

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

    def view_history(self, name: str) -> List[GroupView]:
        """Every view installed for group *name*, oldest first."""
        return list(self._group(name).history)

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

    def metrics(self) -> Dict[str, int]:
        """Registry source (``kernel.metrics``): membership/multicast telemetry."""
        return {
            "horus_channels_open": len(self._channels),
            "horus_groups": len(self._groups),
            "horus_views_installed": sum(len(group.history)
                                         for group in self._groups.values()),
            "horus_multicast_copies": sum(self.multicasts_delivered.values()),
        }

    # ------------------------------------------------------------------
    # multicast
    # ------------------------------------------------------------------

    def multicast(self, name: str, source: str, payload: dict,
                  declared_size: Optional[int] = None,
                  kind: str = MessageKind.GROUP) -> int:
        """Reliably multicast *payload* to every member of the group's current view.

        Returns the number of copies handed to the network.  The source must
        be a member (Horus' sender-in-group model).  Delivery to the sender
        itself is included — TACOMA agents use self-delivery for ordering.
        """
        group = self._group(name)
        if source not in group.members:
            raise NotMemberError(f"{source!r} is not a member of group {name!r}")
        seqno = group.next_seqno
        group.next_seqno += 1
        view = group.view()
        copies = 0
        for member in view.members:
            message = Message(
                source=source,
                destination=member,
                kind=kind,
                payload={
                    "group": name,
                    "event": "mcast",
                    "view_id": view.view_id,
                    "seqno": seqno,
                    "body": payload,
                },
                declared_size=declared_size,
            )
            if member == source:
                # Local delivery: no wire cost beyond protocol processing.
                self.loop.schedule(self.ESTABLISHED_SETUP,
                                   lambda msg=message: self._deliver_local(msg),
                                   label=f"horus-self-{name}")
            else:
                self.send(message)
            copies += 1
        self.multicasts_delivered[name] = self.multicasts_delivered.get(name, 0) + copies
        return copies

    def _deliver_local(self, message: Message) -> None:
        handler = self._handlers.get(message.destination)
        if handler is None or self.topology.is_down(message.destination):
            return
        message.delivered_at = self.loop.now
        handler(message)

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
        group.history.append(view)
        # Notify members through their message handlers ...
        for member in view.members:
            message = Message(
                source=member, destination=member, kind=MessageKind.GROUP,
                payload={"group": group.name, "event": "view",
                         "view_id": view.view_id, "members": list(view.members)},
                declared_size=32 * max(1, len(view.members)),
            )
            self.loop.schedule(self.ESTABLISHED_SETUP,
                               lambda msg=message: self._deliver_local(msg),
                               label=f"horus-view-{group.name}")
        # ... and any registered observers (used by repro.fault).
        for observer in self._observers.get(group.name, []):
            self.loop.schedule(0.0, lambda obs=observer, v=view: obs(v),
                               label=f"horus-observer-{group.name}")
        return view
