"""repro: a reproduction of "Operating System Support for Mobile Agents" (TACOMA, HotOS 1995).

The package layout mirrors the paper:

* :mod:`repro.core` — folders, briefcases, file cabinets, ``meet``, the kernel (section 2);
* :mod:`repro.net` — the simulated network, the rsh/TCP/Horus transports (section 6);
* :mod:`repro.flow` — flow control and cost models shared by the network and the
  durable store (adaptive batch windows, bytes-proportional pricing);
* :mod:`repro.sysagents` — ``ag_py``, ``rexec``, courier, diffusion (sections 2, 6);
* :mod:`repro.cash` — electronic cash, validation, audits (section 3);
* :mod:`repro.scheduling` — brokers, monitors, tickets, protected agents (section 4);
* :mod:`repro.fault` — rear guards and fault-tolerant moves (section 5);
* :mod:`repro.apps` — StormCast and the agent-based mail system (section 6).
"""

from repro.core import Briefcase, FileCabinet, Folder, Kernel, KernelConfig
from repro.net import (HorusTransport, RshTransport, TcpTransport, Topology, lan,
                       random_topology, ring, star, two_clusters)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Folder", "Briefcase", "FileCabinet", "Kernel", "KernelConfig",
    "Topology", "lan", "two_clusters", "ring", "star", "random_topology",
    "RshTransport", "TcpTransport", "HorusTransport",
]
