"""Scheduling by broker agents (paper section 4, prototype section 6).

The broker machinery of section 4, plus the pieces the example and the
tests run around it:

* :mod:`~repro.scheduling.broker` — the matchmaker broker agent;
* :mod:`~repro.scheduling.monitor` — per-site load monitors reporting to brokers;
* :mod:`~repro.scheduling.policies` — the assignment policies a broker can apply,
  and Jain's index of how fairly one spread the work;
* :mod:`~repro.scheduling.routing` — broker-to-broker gossip ("like WAN routing");
* :mod:`~repro.scheduling.protected` — the guardian: a broker that is the only
  way to meet a protected agent;
* :mod:`~repro.scheduling.service` — providers, mobile clients, and the
  one-call deployment helper.
"""

from repro.scheduling.broker import (BROKER_AGENT_NAME, BROKER_CABINET, BrokerState,
                                     broker_state, make_broker_behaviour,
                                     merged_load_table)
from repro.scheduling.monitor import (LOAD_REPORT_FOLDER, MONITOR_AGENT_NAME,
                                      make_monitor_behaviour)
from repro.scheduling.policies import (POLICY_NAMES, LeastLoadedPolicy, LoadEstimate, Policy,
                                       ProviderInfo, RandomPolicy, RoundRobinPolicy,
                                       WeightedCapacityPolicy, jains_fairness, make_policy)
from repro.scheduling.protected import GUARDIAN_CABINET, admit_all, make_guardian_behaviour
from repro.scheduling.routing import (GOSSIP_AGENT_NAME, gossip_convergence,
                                      make_gossip_behaviour)
from repro.scheduling.service import (CLIENT_BEHAVIOUR_NAME, SERVICE_AGENT_NAME,
                                      SchedulingDeployment, install_scheduling,
                                      make_compute_service_behaviour,
                                      scheduled_client_behaviour)

__all__ = [
    "BROKER_AGENT_NAME", "BROKER_CABINET", "BrokerState", "broker_state",
    "make_broker_behaviour", "merged_load_table",
    "MONITOR_AGENT_NAME", "LOAD_REPORT_FOLDER", "make_monitor_behaviour",
    "Policy", "LeastLoadedPolicy", "RandomPolicy", "RoundRobinPolicy",
    "WeightedCapacityPolicy", "ProviderInfo", "LoadEstimate", "make_policy", "POLICY_NAMES",
    "jains_fairness",
    "make_guardian_behaviour", "admit_all", "GUARDIAN_CABINET",
    "make_gossip_behaviour", "gossip_convergence", "GOSSIP_AGENT_NAME",
    "SERVICE_AGENT_NAME", "CLIENT_BEHAVIOUR_NAME", "SchedulingDeployment",
    "install_scheduling", "make_compute_service_behaviour", "scheduled_client_behaviour",
]
