"""Shared seeded scenarios: data gathering and itinerant hop sweeps.

Two scenario families are used by several tests:

* **data gathering** (``test_bench_workloads.py::TestGatherModes``): N sites
  each hold a dataset of which only a fraction is relevant; either a mobile
  agent filters at each site and carries the relevant records home, or a
  central client pulls every raw record over the network.  This is the distilled version
  of the StormCast bandwidth argument, with the selectivity and record size
  as explicit sweep parameters.
* **itineraries** (``test_transports_endtoend.py``): an agent that simply
  hops through K sites carrying a payload of B bytes, used to measure
  per-transport migration cost.

Two more exercise the delivery fabric and the lifecycle ledger (the
sim-vs-realtime parity tests run both):

* **agent churn**: waves of short-lived agents carrying briefcase ballast,
  used to compare the lifecycle ledger's retention policies at steady state;
* **courier fan-in**: many sites courier folders to one collector hub, used
  to measure what per-destination batching saves in wire messages and
  simulated time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.briefcase import Briefcase
from repro.core.context import AgentContext
from repro.core.folder import Folder
from repro.core.kernel import Kernel, KernelConfig
from repro.core.registry import register_behaviour
from repro.core.timing import default_timer
from repro.net.topology import (Topology, lan, ring, star, switched_fabric,
                                two_clusters)

__all__ = [
    "DataGatherParams", "GatherResult", "build_gather_kernel", "populate_data_sites",
    "run_agent_gather", "run_client_server_gather",
    "ItineraryParams", "ItineraryResult", "run_itinerary",
    "HighPopulationParams", "HighPopulationResult", "execute_high_population",
    "run_high_population",
    "AgentChurnParams", "AgentChurnResult", "execute_agent_churn", "run_agent_churn",
    "CourierFanInParams", "CourierFanInResult", "run_courier_fan_in",
    "MixedTrafficParams", "MixedTrafficResult", "run_mixed_traffic",
    "ShardedChurnParams", "ShardedChurnResult", "execute_sharded_churn",
    "run_sharded_churn",
    "DATA_CABINET", "RECORDS_FOLDER", "GATHER_AGENT_NAME", "POPULATION_WORKER_NAME",
    "CHURN_WORKER_NAME", "FANIN_COLLECTOR_NAME", "FANIN_SENDER_NAME",
    "MIXED_COLLECTOR_NAME", "MIXED_SENDER_NAME",
    "SHARD_COURIER_NAME", "SHARD_SINK_NAME", "SHARD_MAIL_CABINET",
]

#: cabinet each data site stores its records in
DATA_CABINET = "data"
#: folder holding the records
RECORDS_FOLDER = "RECORDS"
#: registered name of the gathering agent
GATHER_AGENT_NAME = "data_gatherer"
#: registered name of the high-population throughput worker
POPULATION_WORKER_NAME = "population_worker"
#: home-side cabinet where gather summaries land
GATHER_RESULTS_CABINET = "gather_results"


# ---------------------------------------------------------------------------
# data-gathering workload
# ---------------------------------------------------------------------------

@dataclass
class DataGatherParams:
    """One data-gathering configuration (one point of a selectivity sweep)."""

    n_sites: int = 8
    records_per_site: int = 100
    record_bytes: int = 512
    #: fraction of records that are relevant to the query
    selectivity: float = 0.05
    transport: str = "tcp"
    topology: str = "star"           # "star" | "lan" | "two_clusters" | "ring"
    seed: int = 13
    home_name: str = "home"
    link_latency: float = 0.02
    link_bandwidth: float = 250_000.0
    run_until: float = 600.0

    def data_site_names(self) -> List[str]:
        """The data-holding site names for this configuration."""
        return [f"data{i:02d}" for i in range(self.n_sites)]


@dataclass
class GatherResult:
    """Outcome of one gathering run."""

    mode: str
    bytes_on_wire: int
    messages: int
    migrations: int
    duration: float
    relevant_found: int
    records_total: int
    sites_covered: int


def _build_topology(params: DataGatherParams) -> Topology:
    sites = params.data_site_names()
    if params.topology == "star":
        return star(params.home_name, sites, latency=params.link_latency,
                    bandwidth=params.link_bandwidth)
    if params.topology == "lan":
        return lan([params.home_name] + sites, latency=params.link_latency,
                   bandwidth=params.link_bandwidth)
    if params.topology == "ring":
        return ring([params.home_name] + sites, latency=params.link_latency,
                    bandwidth=params.link_bandwidth)
    if params.topology == "two_clusters":
        half = max(1, len(sites) // 2)
        return two_clusters([params.home_name] + sites[:half], sites[half:],
                            wan_bandwidth=params.link_bandwidth)
    raise ValueError(f"unknown topology kind {params.topology!r}")


def populate_data_sites(kernel: Kernel, site_names: Sequence[str], records_per_site: int,
                        record_bytes: int, selectivity: float, seed: int = 0) -> int:
    """Fill each site's data cabinet; returns the number of relevant records planted."""
    rng = random.Random(seed)
    relevant_total = 0
    for site_name in site_names:
        folder = kernel.site(site_name).cabinet(DATA_CABINET).folder(RECORDS_FOLDER,
                                                                     create=True)
        for index in range(records_per_site):
            relevant = rng.random() < selectivity
            relevant_total += 1 if relevant else 0
            folder.push({
                "id": f"{site_name}:{index}",
                "relevant": relevant,
                "value": rng.random(),
                "payload": b"\0" * record_bytes,
            })
    return relevant_total


def build_gather_kernel(params: DataGatherParams) -> Kernel:
    """A kernel with populated data sites for either gathering mode."""
    kernel = Kernel(_build_topology(params), transport=params.transport,
                    config=KernelConfig(rng_seed=params.seed))
    populate_data_sites(kernel, params.data_site_names(), params.records_per_site,
                        params.record_bytes, params.selectivity, seed=params.seed)
    return kernel


def gather_agent_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """Visit every data site, keep only relevant records (stripped of payload), go home."""
    home = briefcase.get("HOME")
    kept = briefcase.folder("KEPT", create=True)

    if ctx.site_name != home or briefcase.get("PHASE") != "deliver":
        records = ctx.cabinet(DATA_CABINET).elements(RECORDS_FOLDER)
        for record in records:
            if isinstance(record, dict) and record.get("relevant"):
                # Relevant records are carried in full (the query genuinely
                # needs their payload); only the irrelevant ones are filtered
                # away.  This is what produces the crossover at selectivity
                # ~1.0: with nothing to filter, the agent re-ships the
                # accumulated data at every remaining hop.
                kept.push({"id": record["id"], "value": record["value"],
                           "payload": record.get("payload", b"")})
        briefcase.folder("VISITS", create=True).push(
            {"site": ctx.site_name, "records": len(records)})
        yield ctx.sleep(float(briefcase.get("FILTER_SECONDS", 0.005)))

    itinerary = briefcase.folder("SITES", create=True)
    if itinerary:
        next_site = itinerary.dequeue()
        yield ctx.jump(briefcase, next_site)
        return "moved"

    if ctx.site_name != home:
        briefcase.set("PHASE", "deliver")
        yield ctx.jump(briefcase, home)
        return "moving-home"

    visits = briefcase.folder("VISITS", create=True).elements()
    summary = {
        "relevant_found": len(kept),
        "records_total": sum(visit.get("records", 0) for visit in visits
                             if isinstance(visit, dict)),
        "sites_covered": max(0, len(visits) - 1),   # the home visit holds no data
        "completed_at": ctx.now,
    }
    ctx.cabinet(GATHER_RESULTS_CABINET).put("summaries", summary)
    yield ctx.sleep(0)
    return summary


register_behaviour(GATHER_AGENT_NAME, gather_agent_behaviour, replace=True)


def run_agent_gather(params: DataGatherParams) -> GatherResult:
    """Run the mobile-agent gathering pipeline for *params*."""
    kernel = build_gather_kernel(params)
    briefcase = Briefcase()
    briefcase.set("HOME", params.home_name)
    itinerary = briefcase.folder("SITES", create=True)
    for site in params.data_site_names():
        itinerary.enqueue(site)
    kernel.launch(params.home_name, GATHER_AGENT_NAME, briefcase)
    kernel.run(until=params.run_until)

    summaries = kernel.site(params.home_name).cabinet(GATHER_RESULTS_CABINET).elements(
        "summaries")
    summary = summaries[-1] if summaries else {}
    return GatherResult(
        mode="mobile-agent",
        bytes_on_wire=kernel.stats.bytes_sent,
        messages=kernel.stats.messages_sent,
        migrations=kernel.stats.migrations,
        duration=summary.get("completed_at", kernel.now),
        relevant_found=summary.get("relevant_found", 0),
        records_total=summary.get("records_total", 0),
        sites_covered=summary.get("sites_covered", 0),
    )


def run_client_server_gather(params: DataGatherParams) -> GatherResult:
    """Run the client-server baseline for *params* (raw records cross the wire)."""
    from repro.bench.baselines import install_data_servers, launch_pull_client, pull_summary
    kernel = build_gather_kernel(params)
    sites = params.data_site_names()
    install_data_servers(kernel, params.home_name, sites)
    launch_pull_client(kernel, params.home_name, sites)
    kernel.run(until=params.run_until)
    summary = pull_summary(kernel, params.home_name)
    return GatherResult(
        mode="client-server",
        bytes_on_wire=kernel.stats.bytes_sent,
        messages=kernel.stats.messages_sent,
        migrations=kernel.stats.migrations,
        duration=summary.get("completed_at", kernel.now),
        relevant_found=summary.get("relevant_found", 0),
        records_total=summary.get("records_received", 0),
        sites_covered=summary.get("sites_responded", 0),
    )


# ---------------------------------------------------------------------------
# high-population load-balancing workload
# ---------------------------------------------------------------------------

@dataclass
class HighPopulationParams:
    """The high-population scenario: thousands of short agents over many sites.

    A launcher balances each wave of agents onto the currently least-loaded
    sites (one ``site_load`` probe per site per placement, exactly what the
    scheduling monitors and brokers do), so per-site queries are the hot
    path: with the flat-ledger kernel each probe cost O(all agents ever
    launched) and the run went quadratic.
    """

    n_sites: int = 20
    n_agents: int = 10_000
    #: agents placed per wave before letting the event loop drain a little
    wave_size: int = 500
    #: simulated seconds of work each agent performs
    work_seconds: float = 0.05
    transport: str = "tcp"
    seed: int = 7
    link_latency: float = 0.005
    link_bandwidth: float = 1_250_000.0

    def site_names(self) -> List[str]:
        return [f"node{i:02d}" for i in range(max(2, self.n_sites))]


@dataclass
class HighPopulationResult:
    """Outcome of one high-population run."""

    agents_launched: int
    agents_completed: int
    sim_seconds: float
    #: largest resident population observed at any one site (wave sampling)
    peak_residents: int
    #: total site_load probes the balancer issued (the indexed hot path)
    load_queries: int
    #: launched-count spread between the busiest and idlest site
    placement_spread: int


def _population_worker(ctx: AgentContext, briefcase: Briefcase):
    """One unit of balanced work: probe the local load, work, finish."""
    briefcase.set("LOAD_AT_START", ctx.site_load())
    yield ctx.sleep(float(briefcase.get("WORK", 0.05)))
    return ctx.site_name


register_behaviour(POPULATION_WORKER_NAME, _population_worker, replace=True)


def execute_high_population(params: HighPopulationParams):
    """Run the scenario; returns ``(kernel, result)`` so callers can inspect
    the populated kernel (its resident index, its ledger)."""
    sites = params.site_names()
    kernel = Kernel(lan(sites, latency=params.link_latency,
                        bandwidth=params.link_bandwidth),
                    transport=params.transport,
                    config=KernelConfig(rng_seed=params.seed))
    placements = {name: 0 for name in sites}
    load_queries = 0
    peak_residents = 0
    launched = 0

    while launched < params.n_agents:
        wave = min(params.wave_size, params.n_agents - launched)
        requests = []
        wave_assigned = {name: 0 for name in sites}
        for _ in range(wave):
            # Least-loaded placement: one probe per site, like the brokers —
            # plus the broker's own-assignment correction so one wave does
            # not dog-pile a single site between two probes.
            best, best_load = sites[0], float("inf")
            for name in sites:
                load = kernel.site_load(name) + wave_assigned[name]
                load_queries += 1
                if load < best_load:
                    best, best_load = name, load
            briefcase = Briefcase()
            briefcase.set("WORK", params.work_seconds)
            requests.append((best, POPULATION_WORKER_NAME, briefcase))
            placements[best] += 1
            wave_assigned[best] += 1
        kernel.launch_many(requests)
        launched += wave
        # Start the wave so the index reflects the new residents...
        kernel.run(max_events=wave)
        peak_residents = max(peak_residents,
                             max(kernel.site(name).resident_count() for name in sites))
        # ...then let part of it drain before placing the next wave.
        kernel.run(until=kernel.now + params.work_seconds)

    kernel.run()
    result = HighPopulationResult(
        agents_launched=kernel.launched,
        agents_completed=kernel.completed,
        sim_seconds=kernel.now,
        peak_residents=peak_residents,
        load_queries=load_queries,
        placement_spread=max(placements.values()) - min(placements.values()),
    )
    return kernel, result


def run_high_population(params: HighPopulationParams) -> HighPopulationResult:
    """Run the high-population load-balancing scenario for *params*."""
    return execute_high_population(params)[1]


# ---------------------------------------------------------------------------
# agent churn workload (lifecycle ledger retention)
# ---------------------------------------------------------------------------

#: registered name of the churn worker
CHURN_WORKER_NAME = "churn_worker"


@dataclass
class AgentChurnParams:
    """The retention scenario: sustained churn of short-lived agents.

    Each worker carries *ballast_bytes* of briefcase payload, which is
    exactly the state the ``keep-results`` retention policy sheds when the
    agent turns terminal.  Checkpoints after each wave record what the
    lifecycle ledger is actually retaining.
    """

    n_sites: int = 5
    n_agents: int = 50_000
    wave_size: int = 2_500
    work_seconds: float = 0.01
    ballast_bytes: int = 256
    retention: str = "keep-all"
    transport: str = "tcp"
    seed: int = 19
    #: execution backend: "sim" (deterministic, default) or "realtime"
    #: (repro.rt wall clock — work_seconds really elapse)
    backend: str = "sim"
    #: how many early agent ids to sample for post-run result_of checks
    sample_results: int = 50

    def site_names(self) -> List[str]:
        return [f"churn{i:02d}" for i in range(max(1, self.n_sites))]


@dataclass
class AgentChurnResult:
    """Outcome of one churn run under one retention policy."""

    retention: str
    agents_launched: int
    agents_completed: int
    sim_seconds: float
    #: per-wave snapshots of the ledger: launched so far, entries retained,
    #: instances retained, compact records retained
    checkpoints: List[Dict[str, int]] = field(default_factory=list)
    #: agent ids sampled from the earliest wave (for result_of probes)
    sample_ids: List[str] = field(default_factory=list)
    #: final ledger composition
    retained_entries: int = 0
    retained_instances: int = 0
    retained_records: int = 0
    evicted: int = 0


def _churn_worker(ctx: AgentContext, briefcase: Briefcase):
    """One unit of churn: hold some ballast, work briefly, finish."""
    yield ctx.sleep(float(briefcase.get("WORK", 0.01)))
    return ctx.site_name


register_behaviour(CHURN_WORKER_NAME, _churn_worker, replace=True)


def execute_agent_churn(params: AgentChurnParams):
    """Run the churn scenario; returns ``(kernel, result)``."""
    sites = params.site_names()
    kernel = Kernel(lan(sites), transport=params.transport,
                    config=KernelConfig(rng_seed=params.seed,
                                        retention=params.retention,
                                        backend=params.backend))
    launched = 0
    checkpoints: List[Dict[str, int]] = []
    sample_ids: List[str] = []
    while launched < params.n_agents:
        wave = min(params.wave_size, params.n_agents - launched)
        requests = []
        for index in range(wave):
            briefcase = Briefcase()
            briefcase.set("WORK", params.work_seconds)
            briefcase.set("BALLAST", b"\0" * params.ballast_bytes)
            requests.append((sites[(launched + index) % len(sites)],
                             CHURN_WORKER_NAME, briefcase))
        ids = kernel.launch_many(requests)
        if not sample_ids:
            sample_ids = ids[:params.sample_results]
        launched += wave
        kernel.run()  # drain the wave: the churn is sequential by design
        kinds = kernel.table.ledger_entry_kinds()
        checkpoints.append({
            "launched": kernel.launched,
            "retained": len(kernel.table),
            "instances": kinds["instances"],
            "records": kinds["records"],
        })
    kinds = kernel.table.ledger_entry_kinds()
    result = AgentChurnResult(
        retention=kernel.table.retention.name,
        agents_launched=kernel.launched,
        agents_completed=kernel.completed,
        sim_seconds=kernel.now,
        checkpoints=checkpoints,
        sample_ids=sample_ids,
        retained_entries=len(kernel.table),
        retained_instances=kinds["instances"],
        retained_records=kinds["records"],
        evicted=kernel.table.evicted,
    )
    return kernel, result


def run_agent_churn(params: AgentChurnParams) -> AgentChurnResult:
    """Run the churn scenario for *params* (closing the kernel)."""
    kernel, result = execute_agent_churn(params)
    kernel.close()
    return result


# ---------------------------------------------------------------------------
# courier fan-in workload (delivery-fabric batching)
# ---------------------------------------------------------------------------

#: name the collector contact runs under at the hub
FANIN_COLLECTOR_NAME = "fanin_collector"
#: registered name of the per-site sender
FANIN_SENDER_NAME = "fanin_sender"
#: hub cabinet where collected folders are filed
FANIN_CABINET = "fanin"


@dataclass
class CourierFanInParams:
    """The batching scenario: N sites courier folders into one hub.

    With ``batch_window == 0`` every folder is one wire message (the
    pre-fabric behaviour); with a positive window, each sender site's
    folders coalesce per flush window into one batched message.
    ``serialize_setup`` applies the source-serialized setup cost model (one
    rsh fork / handshake at a time per site) under which batching pays in
    simulated time as well as in messages and header bytes.
    """

    n_senders: int = 20
    deliveries_per_sender: int = 50
    payload_bytes: int = 200
    batch_window: float = 0.0
    #: adaptive-flush knobs (0 = disabled): flush early at this many
    #: messages / payload bytes, and cap a sliding window at this deadline
    batch_max_messages: int = 0
    batch_max_bytes: int = 0
    batch_deadline: float = 0.0
    serialize_setup: bool = True
    transport: str = "rsh"
    hub_name: str = "hub"
    seed: int = 23
    #: execution backend: "sim" (deterministic, default) or "realtime"
    #: (repro.rt wall clock — link latencies and setup delays really
    #: elapse; sim_seconds then reports elapsed wall time)
    backend: str = "sim"
    link_latency: float = 0.01
    link_bandwidth: float = 250_000.0

    def sender_names(self) -> List[str]:
        return [f"sender{i:02d}" for i in range(max(1, self.n_senders))]


@dataclass
class CourierFanInResult:
    """Outcome of one fan-in run."""

    batch_window: float
    deliveries_requested: int
    folders_received: int
    wire_messages: int
    batches: int
    batched_messages: int
    bytes_on_wire: int
    header_bytes_saved: int
    sim_seconds: float
    #: flushes fired by a size/byte threshold or deadline, not the window
    early_flushes: int = 0
    #: which execution backend produced this outcome
    backend: str = "sim"
    #: real seconds spent inside kernel.run()
    wall_seconds: float = 0.0
    #: events the loop executed during the run
    events: int = 0
    #: the kernel's ledger counters (logical-outcome parity checks)
    counters: Dict[str, int] = field(default_factory=dict)


def _fanin_collector(ctx: AgentContext, briefcase: Briefcase):
    """Hub-side contact: file the delivered report into the fan-in cabinet."""
    payload_name = briefcase.get("PAYLOAD_NAME")
    elements = (briefcase.folder(payload_name).elements()
                if payload_name and briefcase.has(payload_name) else [])
    ctx.cabinet(FANIN_CABINET).put("received", {
        "from": briefcase.get("SENDER_SITE"),
        "reports": len(elements),
        "at": ctx.now,
    })
    yield ctx.sleep(0)
    return len(elements)


def _fanin_sender(ctx: AgentContext, briefcase: Briefcase):
    """Courier *COUNT* report folders to the hub, one meet per folder."""
    hub = briefcase.get("HUB")
    count = int(briefcase.get("COUNT", 1))
    size = int(briefcase.get("BYTES", 0))
    accepted = 0
    for index in range(count):
        folder = Folder("REPORT", [{
            "from": ctx.site_name,
            "seq": index,
            "payload": b"\0" * size,
        }])
        result = yield ctx.send_folder(folder, hub, FANIN_COLLECTOR_NAME)
        if result is not None and result.value:
            accepted += 1
    return accepted


register_behaviour(FANIN_SENDER_NAME, _fanin_sender, replace=True)


def run_courier_fan_in(params: CourierFanInParams) -> CourierFanInResult:
    """Run the courier fan-in scenario for *params*."""
    senders = params.sender_names()
    topology = star(params.hub_name, senders, latency=params.link_latency,
                    bandwidth=params.link_bandwidth)
    with Kernel(topology, transport=params.transport,
                config=KernelConfig(
                    rng_seed=params.seed,
                    backend=params.backend,
                    delivery_batch_window=params.batch_window,
                    delivery_batch_max_messages=params.batch_max_messages,
                    delivery_batch_max_bytes=params.batch_max_bytes,
                    delivery_batch_deadline=params.batch_deadline,
                    serialize_transport_setup=params.serialize_setup)) as kernel:
        kernel.install_agent(params.hub_name, FANIN_COLLECTOR_NAME,
                             _fanin_collector)
        for site in senders:
            briefcase = Briefcase()
            briefcase.set("HUB", params.hub_name)
            briefcase.set("COUNT", params.deliveries_per_sender)
            briefcase.set("BYTES", params.payload_bytes)
            kernel.launch(site, FANIN_SENDER_NAME, briefcase)
        # To quiescence: the pending-outbox flush events keep the loop alive
        # until the last batch has been shipped and unbatched.  Under
        # backend="realtime" this blocks for real wall time.
        start = default_timer()
        events = kernel.run()
        wall = default_timer() - start

        received = kernel.site(params.hub_name).cabinet(
            FANIN_CABINET).elements("received")
        return CourierFanInResult(
            batch_window=params.batch_window,
            deliveries_requested=params.n_senders * params.deliveries_per_sender,
            folders_received=len(received),
            wire_messages=kernel.stats.messages_sent,
            batches=kernel.stats.batches,
            batched_messages=kernel.stats.batched_messages,
            bytes_on_wire=kernel.stats.bytes_sent,
            header_bytes_saved=kernel.stats.header_bytes_saved,
            sim_seconds=kernel.now,
            early_flushes=kernel.stats.early_flushes,
            backend=params.backend,
            wall_seconds=wall,
            events=events,
            counters=kernel.counters(),
        )


# ---------------------------------------------------------------------------
# itinerary (hop sweep) workload
# ---------------------------------------------------------------------------

@dataclass
class ItineraryParams:
    """One transport-sweep point: hop K sites carrying B bytes."""

    transport: str = "tcp"
    hops: int = 8
    payload_bytes: int = 1024
    n_sites: int = 9
    seed: int = 21
    link_latency: float = 0.01
    link_bandwidth: float = 1_250_000.0
    run_until: float = 600.0


@dataclass
class ItineraryResult:
    """Outcome of one itinerary run."""

    transport: str
    hops_completed: int
    duration: float
    bytes_on_wire: int
    migration_bytes: int
    mean_hop_time: float


def _itinerant_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """Hop along the TOUR folder, recording hop timestamps in the briefcase."""
    briefcase.folder("HOP_TIMES", create=True).push(ctx.now)
    tour = briefcase.folder("TOUR", create=True)
    if tour:
        next_site = tour.dequeue()
        yield ctx.jump(briefcase, next_site)
        return "moved"
    hop_times = briefcase.folder("HOP_TIMES", create=True).elements()
    ctx.cabinet("itinerary").put("runs", {
        "hops": max(0, len(hop_times) - 1),
        "started_at": hop_times[0] if hop_times else 0.0,
        "completed_at": ctx.now,
        "hop_times": hop_times,
    })
    yield ctx.sleep(0)
    return "completed"


register_behaviour("itinerant", _itinerant_behaviour, replace=True)


def run_itinerary(params: ItineraryParams) -> ItineraryResult:
    """Run one hop sweep over a LAN of ``n_sites`` with the requested transport."""
    site_names = [f"site{i:02d}" for i in range(max(2, params.n_sites))]
    kernel = Kernel(lan(site_names, latency=params.link_latency,
                        bandwidth=params.link_bandwidth),
                    transport=params.transport,
                    config=KernelConfig(rng_seed=params.seed))
    rng = random.Random(params.seed)
    tour = [site_names[(index + 1) % len(site_names)] for index in range(params.hops)]
    briefcase = Briefcase()
    briefcase.set("PAYLOAD", b"\0" * params.payload_bytes)
    tour_folder = briefcase.folder("TOUR", create=True)
    for site in tour:
        tour_folder.enqueue(site)
    kernel.launch(site_names[0], "itinerant", briefcase)
    kernel.run(until=params.run_until)

    final_site = tour[-1] if tour else site_names[0]
    runs = kernel.site(final_site).cabinet("itinerary").elements("runs")
    run = runs[-1] if runs else {}
    hop_times = run.get("hop_times", [])
    hop_deltas = [after - before for before, after in zip(hop_times, hop_times[1:])]
    return ItineraryResult(
        transport=params.transport,
        hops_completed=run.get("hops", 0),
        duration=run.get("completed_at", kernel.now) - (run.get("started_at", 0.0)),
        bytes_on_wire=kernel.stats.bytes_sent,
        migration_bytes=kernel.stats.migration_bytes,
        mean_hop_time=(sum(hop_deltas) / len(hop_deltas)) if hop_deltas else 0.0,
    )


# ---------------------------------------------------------------------------
# mixed hot/cold traffic workload (adaptive per-destination windows)
# ---------------------------------------------------------------------------

#: name the latency-measuring collector contact runs under at the hub
MIXED_COLLECTOR_NAME = "mixed_collector"
#: registered name of the paced per-site sender
MIXED_SENDER_NAME = "mixed_sender"
#: hub cabinet where per-folder delivery latencies are filed
MIXED_CABINET = "mixed_fanin"


@dataclass
class MixedTrafficParams:
    """The flow-control scenario: one hot pair plus several trickles.

    Hot senders fire folders at the hub nearly back to back; trickle
    senders space theirs far apart.  No single fixed flush window suits
    both: a tight one leaves the trickle folders unbatched (many wire
    messages), a wide one sits on the hot pair's full batches (high
    delivery latency).  With ``flow_window_max > 0`` the fabric sizes each
    pair's window from its observed rate instead
    (:class:`repro.flow.FlowController`), which is what this workload
    measures against the fixed sweep.
    """

    n_hot: int = 1
    hot_deliveries: int = 60
    hot_gap: float = 0.002
    n_trickle: int = 6
    trickle_deliveries: int = 8
    trickle_gap: float = 0.35
    payload_bytes: int = 200
    #: the fabric's base window (0 = fabric off); in adaptive mode this is
    #: only the seed for pairs with no traffic history
    batch_window: float = 0.0
    #: adaptive per-destination window bounds (window_max > 0 = adaptive on)
    flow_window_min: float = 0.0
    flow_window_max: float = 0.0
    flow_target_batch: int = 8
    transport: str = "tcp"
    hub_name: str = "hub"
    seed: int = 31
    link_latency: float = 0.01
    link_bandwidth: float = 250_000.0

    def hot_names(self) -> List[str]:
        return [f"hot{i:02d}" for i in range(max(0, self.n_hot))]

    def trickle_names(self) -> List[str]:
        return [f"cold{i:02d}" for i in range(max(0, self.n_trickle))]


@dataclass
class MixedTrafficResult:
    """Outcome of one mixed-traffic run."""

    folders_expected: int
    folders_received: int
    wire_messages: int
    batches: int
    batched_messages: int
    bytes_on_wire: int
    #: per-folder queue-to-contact delivery latency, simulated seconds
    p50_latency: float
    mean_latency: float
    sim_seconds: float
    #: per-pair window/rate telemetry ("src->dst"), empty when not adaptive
    flow_windows: Dict[str, Dict[str, float]] = field(default_factory=dict)


def _mixed_collector(ctx: AgentContext, briefcase: Briefcase):
    """Hub-side contact: file each folder's queue-to-arrival latency."""
    payload_name = briefcase.get("PAYLOAD_NAME")
    elements = (briefcase.folder(payload_name).elements()
                if payload_name and briefcase.has(payload_name) else [])
    cabinet = ctx.cabinet(MIXED_CABINET)
    for element in elements:
        if isinstance(element, dict) and "queued_at" in element:
            cabinet.put("latencies", ctx.now - float(element["queued_at"]))
    yield ctx.sleep(0)
    return len(elements)


def _mixed_sender(ctx: AgentContext, briefcase: Briefcase):
    """Courier *COUNT* stamped folders to the hub, sleeping *GAP* between."""
    hub = briefcase.get("HUB")
    count = int(briefcase.get("COUNT", 1))
    gap = float(briefcase.get("GAP", 0.0))
    size = int(briefcase.get("BYTES", 0))
    accepted = 0
    for index in range(count):
        folder = Folder("REPORT", [{
            "from": ctx.site_name,
            "seq": index,
            "queued_at": ctx.now,
            "payload": b"\0" * size,
        }])
        result = yield ctx.send_folder(folder, hub, MIXED_COLLECTOR_NAME)
        if result is not None and result.value:
            accepted += 1
        if gap > 0:
            yield ctx.sleep(gap)
    return accepted


register_behaviour(MIXED_SENDER_NAME, _mixed_sender, replace=True)


def run_mixed_traffic(params: MixedTrafficParams) -> MixedTrafficResult:
    """Run the mixed hot/cold fan-in scenario for *params*."""
    senders = params.hot_names() + params.trickle_names()
    topology = star(params.hub_name, senders, latency=params.link_latency,
                    bandwidth=params.link_bandwidth)
    kernel = Kernel(topology, transport=params.transport,
                    config=KernelConfig(
                        rng_seed=params.seed,
                        delivery_batch_window=params.batch_window,
                        flow_window_min=params.flow_window_min,
                        flow_window_max=params.flow_window_max,
                        flow_target_batch=params.flow_target_batch))
    kernel.install_agent(params.hub_name, MIXED_COLLECTOR_NAME, _mixed_collector)
    for site, count, gap in (
            [(name, params.hot_deliveries, params.hot_gap)
             for name in params.hot_names()]
            + [(name, params.trickle_deliveries, params.trickle_gap)
               for name in params.trickle_names()]):
        briefcase = Briefcase()
        briefcase.set("HUB", params.hub_name)
        briefcase.set("COUNT", count)
        briefcase.set("GAP", gap)
        briefcase.set("BYTES", params.payload_bytes)
        kernel.launch(site, MIXED_SENDER_NAME, briefcase)
    kernel.run()

    latencies = sorted(
        float(value) for value in
        kernel.site(params.hub_name).cabinet(MIXED_CABINET).elements("latencies"))
    expected = (params.n_hot * params.hot_deliveries
                + params.n_trickle * params.trickle_deliveries)
    p50 = latencies[len(latencies) // 2] if latencies else 0.0
    return MixedTrafficResult(
        folders_expected=expected,
        folders_received=len(latencies),
        wire_messages=kernel.stats.messages_sent,
        batches=kernel.stats.batches,
        batched_messages=kernel.stats.batched_messages,
        bytes_on_wire=kernel.stats.bytes_sent,
        p50_latency=p50,
        mean_latency=(sum(latencies) / len(latencies)) if latencies else 0.0,
        sim_seconds=kernel.now,
        flow_windows=kernel.stats.flow_snapshot(),
    )


# ---------------------------------------------------------------------------
# sharded churn workload (multi-kernel scaling)
# ---------------------------------------------------------------------------

#: registered name of the churn-plus-courier worker
SHARD_COURIER_NAME = "shard_courier"
#: name the report sink contact runs under at every site
SHARD_SINK_NAME = "shard_sink"
#: cabinet the sink files received reports into
SHARD_MAIL_CABINET = "shardmail"


@dataclass
class ShardedChurnParams:
    """The sharding scenario: site-spanning churn on a large LAN.

    Waves of short-lived workers each do local work and then courier one
    report folder to a peer site half-way around the site list — under
    CRC-32 placement that peer usually lives on another shard, so the
    workload exercises the cross-shard handoff path, not just independent
    per-shard progress.  ``shards=None`` leaves :class:`KernelConfig` at
    its defaults (the honest unsharded baseline); any integer sets
    ``KernelConfig(shards=N)``.
    """

    n_sites: int = 200
    n_agents: int = 2_000
    wave_size: int = 500
    work_seconds: float = 0.01
    payload_bytes: int = 128
    shards: Optional[int] = None
    transport: str = "tcp"
    seed: int = 41
    #: shard execution backend (one of ``repro.shard.BACKENDS``); inert when
    #: ``shards`` is None (the backend-parity tests sweep this)
    backend: str = "inproc"
    #: "lan" (full mesh — quadratic edges, fine to ~200 sites) or "fabric"
    #: (:func:`~repro.net.topology.switched_fabric` — scales to thousands)
    topology: str = "lan"
    hosts_per_switch: int = 50
    #: observability knobs:
    #: obs_enabled turns the repro.obs tracing layer on, obs_sample is the
    #: per-trace sampling rate handed to KernelConfig
    obs_enabled: bool = False
    obs_sample: float = 1.0

    def site_names(self) -> List[str]:
        return [f"s{i:03d}" for i in range(max(1, self.n_sites))]

    def build_topology(self) -> Topology:
        sites = self.site_names()
        if self.topology == "fabric":
            return switched_fabric(sites,
                                   hosts_per_switch=self.hosts_per_switch)
        if self.topology == "lan":
            return lan(sites)
        raise ValueError(f"unknown topology {self.topology!r}; "
                         f"expected 'lan' or 'fabric'")


@dataclass
class ShardedChurnResult:
    """Outcome plus the parallel-host throughput accounting of one run."""

    shards: Optional[int]
    agents_launched: int
    agents_completed: int
    events: int
    sim_seconds: float
    #: the scaling denominator: slowest shard's busy wall-time (classic
    #: kernels: the whole run's wall-time — one host does everything)
    busy_seconds: float
    total_busy_seconds: float
    sync_seconds: float
    rounds: int
    handoffs: int
    late_arrivals: int
    counters: Dict[str, int] = field(default_factory=dict)
    #: which execution backend ran the shard bursts ("inproc" when unsharded)
    backend: str = "inproc"
    #: real end-to-end wall-clock of the run() calls — what the
    #: parallel-host *model* (busy_seconds) is measured against
    wall_seconds: float = 0.0
    #: per-round coordination overhead (round wall-time minus slowest burst)
    overhead_seconds: float = 0.0

    @property
    def throughput(self) -> float:
        """Aggregate events per busy second under the parallel-host model."""
        return self.events / self.busy_seconds if self.busy_seconds > 0 else 0.0

    @property
    def wall_throughput(self) -> float:
        """Events per real wall-clock second."""
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0


def _shard_sink(ctx: AgentContext, briefcase: Briefcase):
    """Per-site contact: file the couriered report into the mail cabinet."""
    payload_name = briefcase.get("PAYLOAD_NAME")
    elements = (briefcase.folder(payload_name).elements()
                if payload_name and briefcase.has(payload_name) else [])
    ctx.cabinet(SHARD_MAIL_CABINET).put("received", {
        "from": briefcase.get("SENDER_SITE"),
        "reports": len(elements),
        "at": ctx.now,
    })
    yield ctx.sleep(0)
    return len(elements)


def _shard_courier(ctx: AgentContext, briefcase: Briefcase):
    """One unit of churn: work locally, then courier a report to the peer."""
    yield ctx.sleep(float(briefcase.get("WORK", 0.01)))
    folder = Folder("REPORT", [{
        "from": ctx.site_name,
        "payload": b"\0" * int(briefcase.get("BYTES", 0)),
    }])
    yield ctx.send_folder(folder, briefcase.get("PEER"), SHARD_SINK_NAME)
    return ctx.site_name


register_behaviour(SHARD_COURIER_NAME, _shard_courier, replace=True)


def execute_sharded_churn(params: ShardedChurnParams):
    """Run the sharded churn scenario; returns ``(kernel, result)``."""
    sites = params.site_names()
    overrides = {} if params.shards is None else {
        "shards": params.shards, "shard_backend": params.backend}
    kernel = Kernel(params.build_topology(), transport=params.transport,
                    config=KernelConfig(rng_seed=params.seed,
                                        obs_enabled=params.obs_enabled,
                                        obs_sample=params.obs_sample,
                                        **overrides))
    kernel.install_agent(None, SHARD_SINK_NAME, _shard_sink)
    offset = max(1, len(sites) // 2 + 1)
    launched = 0
    events = 0
    wall = 0.0
    while launched < params.n_agents:
        wave = min(params.wave_size, params.n_agents - launched)
        requests = []
        for index in range(wave):
            slot = launched + index
            briefcase = Briefcase()
            briefcase.set("WORK", params.work_seconds)
            briefcase.set("PEER", sites[(slot + offset) % len(sites)])
            briefcase.set("BYTES", params.payload_bytes)
            requests.append((sites[slot % len(sites)], SHARD_COURIER_NAME,
                             briefcase))
        kernel.launch_many(requests)
        launched += wave
        start = default_timer()
        events += kernel.run()  # drain the wave
        wall += default_timer() - start
    shard_set = kernel.shard_set
    if shard_set is not None:
        summary = shard_set.busy_summary()
        busy = summary["max_busy"]
        total_busy = summary["total_busy"]
        sync_seconds = summary["sync_seconds"]
        overhead_seconds = summary["overhead_seconds"]
        rounds = shard_set.rounds
    else:
        busy = total_busy = wall
        sync_seconds = 0.0
        overhead_seconds = 0.0
        rounds = 0
    snapshot = kernel.stats.snapshot()
    result = ShardedChurnResult(
        shards=params.shards,
        agents_launched=kernel.launched,
        agents_completed=kernel.completed,
        events=events,
        sim_seconds=kernel.now,
        busy_seconds=busy,
        total_busy_seconds=total_busy,
        sync_seconds=sync_seconds,
        rounds=rounds,
        handoffs=snapshot["shard_handoffs"],
        late_arrivals=snapshot["shard_late_arrivals"],
        counters=kernel.counters(),
        backend=params.backend if params.shards is not None else "inproc",
        wall_seconds=wall,
        overhead_seconds=overhead_seconds,
    )
    return kernel, result


def run_sharded_churn(params: ShardedChurnParams) -> ShardedChurnResult:
    """Run the sharded churn scenario for *params* (releasing the kernel)."""
    kernel, result = execute_sharded_churn(params)
    kernel.close()
    return result
