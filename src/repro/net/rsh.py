"""The ``rsh``-style transport (paper section 6, first rexec implementation).

"The first uses the UNIX ``rsh`` command to start a Tcl interpreter on the
remote host."  The dominant characteristic is a large fixed cost per
migration: every agent transfer forks a remote shell and starts a fresh
interpreter, and nothing is cached between transfers.  The reproduction
models that as a large, slightly noisy setup delay charged to every
message, largest for the kinds that ship an agent (a transfer or a rear
guard's relaunch).
"""

from __future__ import annotations

from repro.flow import CostModel
from repro.net.message import Message, MessageKind
from repro.net.transport import Transport

__all__ = ["RshTransport"]


class RshTransport(Transport):
    """Connectionless transport with a heavy per-transfer start-up cost."""

    name = "rsh"

    #: seconds to fork rsh + start a remote interpreter for a shipped agent
    AGENT_SETUP = 0.250
    #: seconds of per-message overhead for anything else (still spawns rsh)
    MESSAGE_SETUP = 0.120
    #: jitter fraction applied to the setup cost
    JITTER = 0.10

    #: the shared cost-model view of the two setups: every message pays a
    #: full fork (a sync in CostModel terms), noisily — nothing is cached
    AGENT_COSTS = CostModel(sync=AGENT_SETUP, jitter=JITTER)
    MESSAGE_COSTS = CostModel(sync=MESSAGE_SETUP, jitter=JITTER)

    def setup_delay(self, message: Message) -> float:
        model = self.AGENT_COSTS if message.kind in MessageKind.MIGRATION_KINDS \
            else self.MESSAGE_COSTS
        return model.cost(items=0, syncs=1, rng=self.rng)
