"""The courier agent: deliver a folder to an agent on another site.

"Given an rexec agent, it is not difficult to program a *courier* agent,
which transfers a folder to a specified agent on a specified machine.  This
allows agents to communicate without having to meet (on a common machine)."

The courier expects in its briefcase:

* ``HOST`` — destination site name;
* ``CONTACT`` — name of the agent to execute at the destination with the
  delivered payload;
* ``PAYLOAD_NAME`` — the name of the folder being delivered (also present
  in the briefcase);
* ``KIND`` (optional) — the wire message kind, defaulting to
  ``folder-delivery``; monitors use ``status`` for load reports, and the
  fault-tolerance layer ships release notices as ``ft-release`` so guard
  bookkeeping coalesces in the delivery fabric like any other payload.
  The kind labels traffic for the statistics and decides whether the fabric
  may coalesce it; every kind reaches CONTACT the same way.  ``batch``, the
  fabric's own envelope, is refused: the transmit raises
  :class:`~repro.core.errors.SyscallError`, so the courier fails and its
  caller's meet raises :class:`~repro.core.errors.MeetError`.

Only the payload folder travels — the courier builds a minimal delivery
briefcase rather than shipping everything it was handed, which is exactly
the bandwidth argument of section 1.  Courier transmissions go through the
transport's **delivery fabric**: when batching is enabled, folder
deliveries and status reports bound for the same destination site within
the flush window share one wire message (one header, one setup delay), and
the destination kernel fans the folders back out to their contacts.
"""

from __future__ import annotations

from repro.core.briefcase import CONTACT_FOLDER, HOST_FOLDER, Briefcase
from repro.core.context import AgentContext
from repro.net.message import MessageKind

__all__ = ["courier_behaviour"]


def courier_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """Deliver the named payload folder to CONTACT at HOST."""
    host = briefcase.get(HOST_FOLDER)
    contact = briefcase.get(CONTACT_FOLDER)
    payload_name = briefcase.get("PAYLOAD_NAME")
    if host is None or contact is None or payload_name is None:
        ctx.log("courier: request must carry HOST, CONTACT and PAYLOAD_NAME folders")
        yield ctx.end_meet(False)
        return False
    if not briefcase.has(payload_name):
        ctx.log(f"courier: payload folder {payload_name!r} is missing")
        yield ctx.end_meet(False)
        return False

    delivery = Briefcase()
    delivery.add(briefcase.folder(payload_name).copy())
    delivery.set("SENDER_SITE", ctx.site_name)
    delivery.set("PAYLOAD_NAME", payload_name)
    if ctx.obs.active:
        # The delivery stays on the sender's trace: its network leg and the
        # contact's run at the destination parent under the sender's span.
        ctx.propagate_trace(delivery)

    if host == ctx.site_name:
        yield ctx.meet(contact, delivery)
        yield ctx.end_meet(True)
        return True

    kind = briefcase.get("KIND", MessageKind.FOLDER_DELIVERY)
    # With the delivery fabric enabled, "accepted" means the folder was
    # queued in the per-destination outbox (or handed to the wire); either
    # way it has left this agent's hands.
    accepted = yield ctx.transmit(host, contact, delivery, kind=kind)
    yield ctx.end_meet(bool(accepted))
    return bool(accepted)
