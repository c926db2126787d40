"""Shared benchmark harness: metrics, tables, and the reusable workloads.

Every benchmark under ``benchmarks/`` builds its rows from these helpers so
that every experiment's output stays in the same format (the performance
ledger, ``benchmarks/ledger/``, deliberately shares none of this).
"""

from repro.bench.baselines import (DATA_SERVER_NAME, DATA_SINK_NAME, PULL_CABINET,
                                   install_data_servers, launch_pull_client, pull_summary)
from repro.bench.metrics import (bytes_human, coefficient_of_variation, jains_fairness,
                                 load_imbalance, percentile, ratio, speedup, summarize)
from repro.bench.report import Report, Table, run_stamp
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
    "Report", "Table", "run_stamp",
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
