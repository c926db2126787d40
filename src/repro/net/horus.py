"""The Tcl/Horus-style transport (paper section 6, third rexec implementation).

The TACOMA prototype's third transport was "Tcl/Horus, a version of Tcl
that uses Horus [vRHB94] to support group communication and
fault-tolerance."  What ``rexec`` sees of it is a third cost model: Horus
keeps long-lived channels between members, so, as on TCP, the setup is paid
once per pair and a crash tears down the pair's channel, but first contact
is cheaper and every message pays its protocol stack.

A rear guard notices a vanished agent by its timeout on every transport
(:mod:`repro.fault.rearguard`), so no process groups or membership views are
modelled here.
"""

from __future__ import annotations

from repro.flow import CostModel
from repro.net.tcp import TcpTransport

__all__ = ["HorusTransport"]


class HorusTransport(TcpTransport):
    """Cached point-to-point channels priced between rsh and raw TCP."""

    name = "horus"

    #: channel establishment on first contact between two sites
    CONNECT_SETUP = 0.030
    #: protocol-stack overhead per message on an established channel
    ESTABLISHED_SETUP = 0.004

    #: shared cost-model view: per-message protocol-stack base, plus one
    #: sync (channel establishment) on first contact between a pair
    SETUP_COSTS = CostModel(base=ESTABLISHED_SETUP,
                            sync=CONNECT_SETUP - ESTABLISHED_SETUP)
