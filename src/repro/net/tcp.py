"""The Tcl/TCP-style transport (paper section 6, second rexec implementation).

"The second uses Tcl/TCP, an extension to Tcl that allows Tcl processes to
set up TCP communication channels."  The important behaviour relative to
``rsh`` is that a connection, once established between two sites, is reused
by later messages, so the setup cost is paid once per (source, destination)
pair rather than once per transfer.  Connections involving a site are torn
down when that site crashes.

Setup and delivery delays are priced simulated seconds, scheduled on the
kernel's :class:`~repro.net.simclock.EventLoop`.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.flow import CostModel
from repro.net.message import Message
from repro.net.transport import Transport

__all__ = ["TcpTransport"]


class TcpTransport(Transport):
    """Point-to-point transport with cached connections."""

    name = "tcp"

    #: three-way-handshake + interpreter channel setup on first contact
    CONNECT_SETUP = 0.040
    #: per-message overhead on an established connection
    ESTABLISHED_SETUP = 0.002

    #: the shared cost-model view: every message pays the per-message base,
    #: and the first contact between a pair additionally pays one sync (the
    #: handshake) — so CONNECT_SETUP = base + sync exactly
    SETUP_COSTS = CostModel(base=ESTABLISHED_SETUP,
                            sync=CONNECT_SETUP - ESTABLISHED_SETUP)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._connections: Set[Tuple[str, str]] = set()
        #: how many times each pair had to (re)connect — visible to benchmarks
        self.connects: Dict[Tuple[str, str], int] = {}

    def setup_delay(self, message: Message) -> float:
        pair = self._pair(message.source, message.destination)
        if pair in self._connections:
            return self.SETUP_COSTS.cost(items=1, syncs=0)
        self._connections.add(pair)
        self.connects[pair] = self.connects.get(pair, 0) + 1
        return self.SETUP_COSTS.cost(items=1, syncs=1)

    def on_site_down(self, site_name: str) -> None:
        """Drop every cached connection that touches the crashed site."""
        super().on_site_down(site_name)  # drop the fabric's pending outboxes
        self._connections = {pair for pair in self._connections if site_name not in pair}

    def connection_count(self) -> int:
        """Number of currently established connections."""
        return len(self._connections)

    @staticmethod
    def _pair(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)
