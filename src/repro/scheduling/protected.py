"""Protected agents: broker-mediated meetings (paper section 4).

"Another use of broker agents is to enforce some protected agent's policies
with regard to meeting other agents.  This is accomplished by keeping the
name of the protected agent secret from all but its broker.  The broker,
then, provides the only way to meet with the protected agent.  To do this,
the broker maintains a folder for each agent that has requested a meeting
with the protected agent.  This folder contains the agent that has
requested the meeting (along with its briefcase).  Notice that this scheme
is possible only because folders are uninterpreted and typeless and,
therefore, can themselves store agents and sets of folders."

The guardian below implements exactly that: a request is a whole briefcase
(and optionally the requester's CODE) stored *inside a folder* in the
guardian's cabinet.  The protected agent's real installed name is a secret
held only by the guardian closure; the protected agent's policy, a plain
function of the request record, decides which requests are forwarded and
which stay queued.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.briefcase import Briefcase
from repro.core.context import AgentContext
from repro.core.folder import Folder

__all__ = ["make_guardian_behaviour", "AdmissionPolicy", "admit_all", "GUARDIAN_CABINET"]

#: cabinet the guardian queues requests and decisions in
GUARDIAN_CABINET = "guardian"

#: an admission policy: (ctx, request_record) -> True to forward the meeting
AdmissionPolicy = Callable[[AgentContext, dict], bool]


def admit_all(ctx: AgentContext, request: dict) -> bool:
    """Forward every request (the trivially permissive policy)."""
    return True


def make_guardian_behaviour(protected_agent_name: str,
                            policy: Optional[AdmissionPolicy] = None,
                            queue_by_default: bool = False) -> Callable:
    """Build a guardian for *protected_agent_name* (the secret name).

    Meet protocol:

    * ``REQUESTER`` — the requesting principal's name;
    * ``REQUEST`` — a folder holding the briefcase (``Briefcase.to_wire``)
      the requester wants the protected agent to be met with; optionally a
      ``CODE`` element if the requester ships an agent rather than data;
    * ``OP = "request"`` (default) — queue and, policy permitting, forward;
    * ``OP = "drain"`` — administrative: forward every queued request that
      the policy now admits (used after the policy's conditions change).

    Results: ``GRANTED`` (bool), ``RESPONSE`` (the briefcase returned by the
    protected agent, when forwarded), ``QUEUED_POSITION`` otherwise.
    """
    admission = policy or admit_all

    def guardian_behaviour(ctx: AgentContext, briefcase: Briefcase):
        cabinet = ctx.cabinet(GUARDIAN_CABINET)
        operation = briefcase.get("OP", "request")

        if operation == "drain":
            forwarded = 0
            pending = cabinet.elements("pending")
            still_pending = []
            for request in pending:
                if admission(ctx, request):
                    inner = Briefcase.from_wire(request["briefcase"])
                    yield ctx.meet(protected_agent_name, inner)
                    cabinet.put("forwarded", request)
                    forwarded += 1
                else:
                    still_pending.append(request)
            cabinet.add(Folder("pending", still_pending), replace=True)
            briefcase.set("FORWARDED", forwarded)
            yield ctx.end_meet(forwarded)
            return forwarded

        requester = briefcase.get("REQUESTER", "anonymous")
        request_payload = briefcase.get("REQUEST")
        inner_wire = request_payload if isinstance(request_payload, dict) \
            else Briefcase().to_wire()
        request = {
            "requester": requester,
            "briefcase": inner_wire,
            "received_at": ctx.now,
        }
        # The request folder "contains the agent that has requested the
        # meeting (along with its briefcase)" — folders being typeless is
        # what makes this possible.
        cabinet.put("requests", request)

        if not queue_by_default and admission(ctx, request):
            inner = Briefcase.from_wire(inner_wire)
            result = yield ctx.meet(protected_agent_name, inner)
            briefcase.set("GRANTED", True)
            briefcase.set("RESPONSE", inner.to_wire())
            briefcase.set("RESULT", result.value if result is not None else None)
            cabinet.put("forwarded", request)
            yield ctx.end_meet(True)
            return True

        cabinet.put("pending", request)
        position = len(cabinet.elements("pending"))
        briefcase.set("GRANTED", False)
        briefcase.set("QUEUED_POSITION", position)
        yield ctx.end_meet(False)
        return False

    return guardian_behaviour
