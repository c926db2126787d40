"""Kernel requests ("syscalls") that agent behaviours yield.

An agent behaviour is a generator function ``def behaviour(ctx, briefcase)``
that *yields* instances of the classes below; the kernel performs the
request and resumes the generator with the result.  This mirrors the paper's
model where "services for agents — communication, synchronization, and so
on — are provided directly by other agents": the only kernel primitives are
meeting, ending a meet, sleeping, spawning locally, and (for system agents
only) pushing bytes onto the network.  Everything else — migration,
couriers, diffusion, brokering, electronic cash — is built from these by
agents in :mod:`repro.sysagents` and friends.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.briefcase import Briefcase
from repro.core.record import Record

__all__ = [
    "Syscall", "Meet", "EndMeet", "Sleep", "Spawn", "Transmit", "Terminate",
    "MeetResult",
]


class Syscall(Record):
    """Marker base class for everything an agent may yield to the kernel."""

    __slots__ = ()


class Meet(Syscall):
    """Execute the agent installed under *agent_name* at the current site.

    The named agent runs with *briefcase*; the caller resumes when the callee
    terminates the meet (explicitly with :class:`EndMeet` or implicitly by
    returning).  The yield evaluates to a :class:`MeetResult`.

    The briefcase is shared by reference for the duration of the meet — this
    is the paper's "argument list" semantics; results are typically written
    into the same briefcase.
    """

    __slots__ = _fields = ("agent_name", "briefcase")

    def __init__(self, agent_name: str, briefcase: Optional[Briefcase] = None):
        self.agent_name = agent_name
        self.briefcase = Briefcase() if briefcase is None else briefcase


class MeetResult(Record):
    """What a ``yield Meet(...)`` evaluates to in the caller."""

    __slots__ = _fields = ("value", "briefcase", "agent_id")

    def __init__(self, value: Any, briefcase: Briefcase, agent_id: str):
        #: value passed to EndMeet (or returned) by the callee
        self.value = value
        #: the briefcase that was passed in (callee may have modified it)
        self.briefcase = briefcase
        #: id of the callee agent instance (it may still be running)
        self.agent_id = agent_id


class EndMeet(Syscall):
    """Terminate the current meet, resuming the caller.

    The callee keeps executing after yielding ``EndMeet`` — the paper is
    explicit that "after the meet terminates, B may continue executing
    concurrently with A."  Yielding ``EndMeet`` outside a meet is a no-op.
    """

    __slots__ = _fields = ("value",)

    def __init__(self, value: Any = None):
        self.value = value


class Sleep(Syscall):
    """Suspend the agent for *duration* simulated seconds."""

    __slots__ = _fields = ("duration",)

    def __init__(self, duration: float = 0.0):
        self.duration = duration


class Spawn(Syscall):
    """Start a new top-level agent at the current site.

    ``behaviour`` may be a registered behaviour name (string) or a callable.
    The yield evaluates to the new agent's id.  Spawning at a *remote* site
    is deliberately impossible here: that is what meeting ``rexec`` is for.
    """

    __slots__ = _fields = ("behaviour", "briefcase", "name", "code_element")

    def __init__(self, behaviour: Any, briefcase: Optional[Briefcase] = None,
                 name: Optional[str] = None, code_element: Optional[dict] = None):
        self.behaviour = behaviour
        self.briefcase = Briefcase() if briefcase is None else briefcase
        self.name = name
        #: the CODE element the child was built from, which its jumps re-ship
        #: instead of describing ``behaviour``: ``ag_py`` passes the element it
        #: popped, so a source-built agent (a callable no registry names) moves on
        self.code_element = code_element


class Transmit(Syscall):
    """Hand a briefcase to the network (system agents only).

    The briefcase is serialised and sent to *destination*; on arrival the
    agent installed there under *contact* is met with the reconstructed
    briefcase.  The yield evaluates to ``True`` if the message was handed to
    the transport (delivery may still fail in flight) and ``False`` if it was
    dropped immediately (source crashed, no route).

    Ordinary agents are not allowed to transmit: they must meet ``rexec`` or
    the courier, exactly as in the paper.  The kernel enforces this.
    """

    __slots__ = _fields = ("destination", "contact", "briefcase", "kind")

    def __init__(self, destination: str, contact: str, briefcase: Briefcase,
                 kind: str = "agent-transfer"):
        self.destination = destination
        self.contact = contact
        self.briefcase = briefcase
        self.kind = kind


class Terminate(Syscall):
    """Finish the agent immediately with the given result.

    Equivalent to returning from the behaviour, but usable from deep inside
    helper sub-generators via ``yield``.
    """

    __slots__ = _fields = ("result",)

    def __init__(self, result: Any = None):
        self.result = result
