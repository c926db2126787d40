"""Broker-to-broker state dissemination (paper section 4).

"Brokers are expected to communicate among themselves ... The problem of
maintaining the requisite state information and intelligently distributing
service requests seems to be equivalent to that of routing in a wide-area
network."

The reproduction implements the distance-vector-flavoured scheme the remark
suggests: each broker periodically gossips its load table and provider
database to the other brokers it knows about, and receivers merge entries
whose reports are newer than their own.  :func:`gossip_convergence`
measures how far load information has converged across brokers (coverage
and staleness per gossip interval), which is the "routing protocol"
question the paper leaves open.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.core.briefcase import Briefcase
from repro.core.context import AgentContext
from repro.scheduling.broker import BROKER_AGENT_NAME, BROKER_CABINET, BrokerState

__all__ = ["make_gossip_behaviour", "gossip_convergence", "GOSSIP_AGENT_NAME"]

#: the name gossip agents run under (one per broker site)
GOSSIP_AGENT_NAME = "broker_gossip"


def make_gossip_behaviour(peer_broker_sites: Sequence[str], interval: float = 1.0,
                          rounds: int = 5,
                          broker_agent: str = BROKER_AGENT_NAME) -> Callable:
    """Build a gossip behaviour that pushes broker state to *peer_broker_sites*.

    The gossip agent is itself a mobile agent: each round it clones itself
    (via ``rexec``) to every peer broker site, and the clone meets the local
    broker there with an ``OP = "sync"`` briefcase carrying the exported
    tables.  Running for a bounded number of *rounds* keeps the event loop
    finite.
    """
    peers = list(peer_broker_sites)

    def deliver_behaviour(ctx: AgentContext, briefcase: Briefcase):
        """Registered clone body: hand the carried tables to the local broker."""
        sync = Briefcase()
        sync.set("OP", "sync")
        loads = briefcase.get("LOADS")
        providers = briefcase.get("PROVIDERS_TABLE")
        if loads is not None:
            sync.set("LOADS", loads)
        if providers is not None:
            sync.set("PROVIDERS_TABLE", providers)
        result = yield ctx.meet(broker_agent, sync)
        return result.value

    # The clone must be resolvable by name at the destination, so register it
    # lazily under a stable name derived from the broker agent.
    from repro.core.registry import register_behaviour
    clone_name = f"{GOSSIP_AGENT_NAME}_deliver"
    register_behaviour(clone_name, deliver_behaviour, replace=True)

    def gossip_behaviour(ctx: AgentContext, briefcase: Briefcase):
        pushes = 0
        for _ in range(max(1, int(rounds))):
            state = BrokerState(ctx.cabinet(BROKER_CABINET))
            export = state.export()
            for peer in peers:
                if peer == ctx.site_name:
                    continue
                payload = Briefcase()
                payload.set("LOADS", export["loads"])
                payload.set("PROVIDERS_TABLE", export["providers"])
                payload.set("CODE", {"kind": "registered", "name": clone_name})
                payload.set("HOST", peer)
                payload.set("CONTACT", "ag_py")
                yield ctx.meet("rexec", payload)
                pushes += 1
            yield ctx.sleep(interval)
        briefcase.set("PUSHES", pushes)
        return pushes

    return gossip_behaviour


def gossip_convergence(broker_states: Dict[str, BrokerState]) -> Dict[str, float]:
    """How far apart the brokers' load tables are.

    Returns, per monitored site, the spread (max - min) of the ``reported_at``
    timestamps across brokers that know about the site, plus the fraction of
    (broker, site) cells that are populated at all under the key
    ``"__coverage__"``.
    """
    per_site_times: Dict[str, List[float]] = {}
    brokers = list(broker_states.values())
    for state in brokers:
        for site, estimate in state.loads().items():
            per_site_times.setdefault(site, []).append(estimate.reported_at)

    spread = {site: (max(times) - min(times)) for site, times in per_site_times.items()}
    total_cells = len(brokers) * len(per_site_times) if per_site_times else 1
    populated = sum(len(times) for times in per_site_times.values())
    spread["__coverage__"] = populated / total_cells if total_cells else 0.0
    return spread
