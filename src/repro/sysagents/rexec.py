"""``rexec``: the agent that moves execution to another site.

"An agent moves from one site to another by meeting with the local rexec
agent.  The rexec agent expects to find two folders in the briefcase with
which it is invoked: a HOST folder names the site where execution is to be
moved and a CONTACT folder names the agent to be executed at that site."

``rexec`` is a *system* agent: it is the only ordinary path to the
:class:`~repro.core.syscalls.Transmit` syscall (besides the courier, which
is itself built on rexec-style transmission).
"""

from __future__ import annotations

from repro.core.briefcase import CONTACT_FOLDER, HOST_FOLDER, Briefcase
from repro.core.context import AgentContext
from repro.net.message import MessageKind

__all__ = ["rexec_behaviour"]


def rexec_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """Ship the briefcase to the HOST site and have CONTACT executed there.

    The meet ends with ``True`` when the transfer was handed to the network
    and ``False`` otherwise (missing folders, unknown destination, local
    site crash racing the send).  In-flight loss is of course still
    possible — that is what the rear guards of section 5 are for.
    """
    host = briefcase.get(HOST_FOLDER)
    contact = briefcase.get(CONTACT_FOLDER, "ag_py")
    # A KIND folder naming a supported transfer kind is a per-shipment
    # override (a rear guard relaunching its snapshot asks for the
    # batchable ft-relaunch kind); it is consumed so it never leaks into
    # the next jump of the re-animated agent.  Any other KIND folder is an
    # ordinary piece of the agent's luggage and travels untouched.
    kind = MessageKind.AGENT_TRANSFER
    if briefcase.get("KIND") in (MessageKind.AGENT_TRANSFER, MessageKind.FT_RELAUNCH):
        kind = briefcase.remove("KIND").peek()
    if host is None:
        ctx.log("rexec: briefcase has no HOST folder")
        yield ctx.end_meet(False)
        return False
    if host == ctx.site_name:
        # Moving to the current site degenerates to a local meet with the
        # contact agent; no network traffic is generated.
        result = yield ctx.meet(contact, briefcase)
        yield ctx.end_meet(True)
        return result.value

    accepted = yield ctx.transmit(host, contact, briefcase, kind=kind)
    if not accepted:
        ctx.log(f"rexec: transfer to {host!r} was refused (down or unreachable)")
    yield ctx.end_meet(bool(accepted))
    return bool(accepted)
