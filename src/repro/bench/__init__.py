"""Reusable seeded scenarios, their client-server baselines, and summary statistics.

Tier-1 tests and the examples drive the paper's comparisons through these
helpers (mobile agent vs. client-server gathering, itineraries per
transport, churn, fan-in, mixed traffic, sharded churn).  The performance
ledger, ``benchmarks/ledger/``, deliberately shares none of this.
"""

from repro.bench.baselines import (DATA_SERVER_NAME, DATA_SINK_NAME, PULL_CABINET,
                                   install_data_servers, launch_pull_client, pull_summary)
from repro.bench.metrics import (bytes_human, coefficient_of_variation, jains_fairness,
                                 load_imbalance, percentile, ratio, speedup, summarize)
from repro.bench.workloads import (CHURN_WORKER_NAME, DATA_CABINET,
                                   FANIN_COLLECTOR_NAME, FANIN_SENDER_NAME,
                                   GATHER_AGENT_NAME, POPULATION_WORKER_NAME,
                                   RECORDS_FOLDER,
                                   AgentChurnParams, AgentChurnResult,
                                   CourierFanInParams, CourierFanInResult,
                                   DataGatherParams, GatherResult,
                                   HighPopulationParams, HighPopulationResult,
                                   ItineraryParams, ItineraryResult,
                                   build_gather_kernel, execute_agent_churn,
                                   execute_high_population,
                                   populate_data_sites, run_agent_churn,
                                   run_agent_gather, run_client_server_gather,
                                   run_courier_fan_in, run_high_population,
                                   run_itinerary)

__all__ = [
    "summarize", "percentile", "ratio", "speedup", "jains_fairness",
    "coefficient_of_variation", "load_imbalance", "bytes_human",
    "DataGatherParams", "GatherResult", "build_gather_kernel", "populate_data_sites",
    "run_agent_gather", "run_client_server_gather",
    "ItineraryParams", "ItineraryResult", "run_itinerary",
    "HighPopulationParams", "HighPopulationResult", "execute_high_population",
    "run_high_population",
    "AgentChurnParams", "AgentChurnResult", "execute_agent_churn", "run_agent_churn",
    "CourierFanInParams", "CourierFanInResult", "run_courier_fan_in",
    "DATA_CABINET", "RECORDS_FOLDER", "GATHER_AGENT_NAME", "POPULATION_WORKER_NAME",
    "CHURN_WORKER_NAME", "FANIN_COLLECTOR_NAME", "FANIN_SENDER_NAME",
    "install_data_servers", "launch_pull_client", "pull_summary",
    "DATA_SERVER_NAME", "DATA_SINK_NAME", "PULL_CABINET",
]
