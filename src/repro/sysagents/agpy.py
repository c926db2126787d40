"""``ag_py``: the agent that animates shipped code (the paper's ``ag_tcl``).

"The most basic of these is ``ag_tcl``, which pops a Tcl procedure from the
CODE folder and executes that procedure."  Here the CODE folder contains a
code element (see :mod:`repro.core.codec`): either a registered behaviour
name or shipped Python source.  ``ag_py`` pops it, materialises the
behaviour, and spawns it at the local site with the rest of the briefcase.
"""

from __future__ import annotations

from repro.core.briefcase import CODE_FOLDER, Briefcase
from repro.core.codec import behaviour_from_code
from repro.core.context import AgentContext
from repro.core.errors import CodecError, MissingFolderError
from repro.core.syscalls import Spawn

__all__ = ["ag_py_behaviour"]


def ag_py_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """Pop the CODE folder, build the behaviour, and run it locally.

    ``ag_py`` ends its meet (or terminates, when it arrived as a top-level
    transfer) with the id of the agent it started, or ``None`` when the CODE
    folder was missing or unusable — in which case the failure is recorded
    in the site's ``_errors`` cabinet rather than raised, because a shipped
    agent has no caller to propagate to.
    """
    try:
        code_element = briefcase.folder(CODE_FOLDER).pop()
    except MissingFolderError:
        ctx.cabinet("_errors").put("ag_py", "arrival without a CODE folder")
        ctx.log("ag_py: no CODE folder in briefcase")
        return None
    except Exception as exc:  # empty folder
        ctx.cabinet("_errors").put("ag_py", f"unusable CODE folder: {exc}")
        ctx.log(f"ag_py: unusable CODE folder: {exc}")
        return None

    try:
        behaviour = behaviour_from_code(code_element)
    except CodecError as exc:
        ctx.cabinet("_errors").put("ag_py", f"code rejected: {exc}")
        ctx.log(f"ag_py: code rejected: {exc}")
        return None

    # The child re-ships the element it was built from when it jumps.
    agent_id = yield Spawn(behaviour, briefcase, code_element=code_element)
    # Hand back the new agent's id to whoever met us (rexec's caller, or the
    # kernel arrival path, which ignores it).
    yield ctx.end_meet(agent_id)
    return agent_id
