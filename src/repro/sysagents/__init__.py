"""System agents: the services every TACOMA site provides (paper sections 2 and 6).

"A collection of system agents provides a variety of support functions."
:func:`install_standard_agents` puts the five of ``STANDARD_AGENTS`` on a
site — ``ag_py``, ``rexec``, the courier, the diffusion agent and the naive
flood it is measured against; the kernel calls it for every site unless
told otherwise.  Higher-level system agents (electronic cash validation,
brokers, monitors, rear guards) live in their own subpackages and are
installed by the workloads that need them.
"""

from repro.core.registry import register_behaviour
from repro.core.site import Site
from repro.sysagents.agpy import ag_py_behaviour
from repro.sysagents.courier import courier_behaviour
from repro.sysagents.diffusion import (DIFFUSION_CABINET, VISITED_FOLDER,
                                       diffusion_behaviour, naive_flood_behaviour)
from repro.sysagents.rexec import rexec_behaviour

__all__ = [
    "ag_py_behaviour", "rexec_behaviour", "courier_behaviour",
    "diffusion_behaviour", "naive_flood_behaviour",
    "install_standard_agents", "STANDARD_AGENTS",
    "DIFFUSION_CABINET", "VISITED_FOLDER",
]

#: name -> (behaviour, is_system_agent) for the agents every site gets
STANDARD_AGENTS = {
    "ag_py": (ag_py_behaviour, True),
    "rexec": (rexec_behaviour, True),
    "courier": (courier_behaviour, True),
    "diffusion": (diffusion_behaviour, False),
    "naive_flood": (naive_flood_behaviour, False),
}

# Register the standard behaviours under their well-known names so CODE
# folders can reference them and ctx.jump can re-ship them by name.
for _name, (_behaviour, _system) in STANDARD_AGENTS.items():
    register_behaviour(_name, _behaviour, replace=True)


def install_standard_agents(site: Site) -> None:
    """Install the standard system agents on *site* (idempotent)."""
    for name, (behaviour, system) in STANDARD_AGENTS.items():
        site.install(name, behaviour, system=system, replace=True)
