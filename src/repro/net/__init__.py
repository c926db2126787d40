"""Network substrate: simulation clock, topology, transports, failure injection.

The 1995 TACOMA prototype ran on real workstations; this package is the
simulated replacement (see DESIGN.md section 1 for the substitution
rationale).  Everything above it — kernel, system agents, applications —
only sees :class:`~repro.net.transport.Transport` and the event loop, so
swapping in a real network would not change the agent-facing API.  The
paper's three ``rexec`` implementations (rsh, Tcl/TCP, Tcl/Horus) are three
price rows of that one transport (:data:`~repro.net.transport.PRICES`).
"""

from repro.net.failures import FailureSchedule, RandomCrasher
from repro.net.message import Message, MessageKind
from repro.net.simclock import Event, EventLoop, SimClock
from repro.net.stats import LinkStats, NetworkStats
from repro.net.topology import (LinkSpec, Topology, lan, random_topology, ring, star,
                                switched_fabric, two_clusters)
from repro.net.transport import Transport

__all__ = [
    "Event", "EventLoop", "SimClock",
    "Message", "MessageKind",
    "LinkStats", "NetworkStats",
    "LinkSpec", "Topology", "lan", "two_clusters", "ring", "star", "random_topology",
    "switched_fabric",
    "Transport",
    "FailureSchedule", "RandomCrasher",
]
