"""Core TACOMA abstractions: folders, briefcases, cabinets, agents, the kernel.

This package is the paper's primary contribution.  A typical program:

>>> from repro.core import Kernel, Briefcase
>>> from repro.net import lan
>>> kernel = Kernel(lan(["tromso", "cornell"]))
>>> def hello(ctx, bc):
...     bc.put("GREETINGS", f"hello from {ctx.site_name}")
...     yield ctx.sleep(0)
...     return bc.get("GREETINGS")
>>> agent_id = kernel.launch("tromso", hello)
>>> kernel.run()  # doctest: +SKIP
>>> kernel.result_of(agent_id)  # doctest: +SKIP
'hello from tromso'
"""

from repro.core import errors
from repro.core.agent import AgentInstance, AgentState
from repro.core.briefcase import (CODE_FOLDER, CONTACT_FOLDER, HOST_FOLDER, SITES_FOLDER,
                                  Briefcase)
from repro.core.cabinet import FileCabinet
from repro.core.codec import behaviour_from_code, code_for, code_from_source, wire_size_of
from repro.core.context import AgentContext
from repro.core.engine import Engine
from repro.core.folder import Folder
from repro.core.kernel import Kernel, KernelConfig
from repro.core.lifecycle import AgentRecord, AgentTable
from repro.core.registry import BehaviourRegistry, default_registry, register_behaviour
from repro.core.site import Site
from repro.core.syscalls import (EndMeet, Meet, MeetResult, Sleep, Spawn, Terminate,
                                 Transmit)
from repro.core.timing import default_timer

__all__ = [
    "default_timer",
    "errors",
    "Folder", "Briefcase", "FileCabinet",
    "CODE_FOLDER", "HOST_FOLDER", "CONTACT_FOLDER", "SITES_FOLDER",
    "AgentInstance", "AgentState", "AgentContext",
    "Meet", "MeetResult", "EndMeet", "Sleep", "Spawn", "Transmit", "Terminate",
    "BehaviourRegistry", "default_registry", "register_behaviour",
    "code_for", "code_from_source", "behaviour_from_code",
    "wire_size_of",
    "Site", "Kernel", "KernelConfig", "Engine",
    "AgentTable", "AgentRecord",
]
