"""Seeded scenarios the tests drive: plain functions over a real kernel.

Each takes keyword arguments, runs, and returns the kernel (read its
``stats``, ``counters()`` and cabinets) plus the few numbers the kernel does
not hold.  The behaviours are module-level so process-shard workers can
preload them: a spawned child inherits the test run's ``sys.path``, which
holds ``tests/``, so this module imports there as ``scenarios`` too.

* **data gathering** (paper section 1): a mobile agent filters at every data
  site and carries the relevant records home, or a client pulls every raw
  record home and filters there;
* **itinerary** (section 6's transports): one agent hops K sites carrying B
  bytes;
* **high population**: waves of short agents, each placed on the least
  loaded site;
* **agent churn** and **courier fan-in**: the sim-vs-realtime parity runs;
* **sharded churn**: couriers whose reports cross shard boundaries;
* **failing agents**: behaviours that make a burst, a worker or a reply fail,
  for the error paths of the shard backends.
"""

from __future__ import annotations

import importlib.util
import os
import random
import sys
from typing import List, Sequence

from repro.core import Briefcase, Folder, Kernel, KernelConfig
from repro.core.registry import register_behaviour
from repro.core.syscalls import Sleep
from repro.core.timing import default_timer
from repro.net import lan, ring, star, two_clusters

EXAMPLES_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "examples")


def load_example(filename: str):
    """Import ``examples/<filename>`` from its path, as ``example_<stem>``."""
    name = f"example_{filename[:-3]}"
    spec = importlib.util.spec_from_file_location(name, os.path.join(EXAMPLES_DIR, filename))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# couriers and their sink (fan-in, sharded churn, shard-backend tests)
# ---------------------------------------------------------------------------

#: registered name of the courier: work, then send reports to PEER
COURIER_NAME = "report_courier"
#: the contact every report is sent to
SINK_NAME = "report_sink"
#: the cabinet the sink files reports in, folder "received"
MAIL_CABINET = "mail"


def report_sink(ctx, briefcase: Briefcase):
    """Contact: file the couriered report, with its sender, in the mail cabinet."""
    payload_name = briefcase.get("PAYLOAD_NAME")
    elements = (briefcase.folder(payload_name).elements()
                if payload_name and briefcase.has(payload_name) else [])
    ctx.cabinet(MAIL_CABINET).put("received", {
        "from": briefcase.get("SENDER_SITE"), "reports": len(elements), "at": ctx.now})
    yield ctx.sleep(0)
    return len(elements)


def report_courier(ctx, briefcase: Briefcase):
    """Work WORK seconds, then courier COUNT reports of BYTES each to PEER."""
    yield ctx.sleep(float(briefcase.get("WORK", 0.0)))
    for index in range(int(briefcase.get("COUNT", 1))):
        folder = Folder("REPORT", [{"from": ctx.site_name, "seq": index,
                                    "payload": b"\0" * int(briefcase.get("BYTES", 0))}])
        yield ctx.send_folder(folder, briefcase.get("PEER"), SINK_NAME)
    return ctx.site_name


register_behaviour(COURIER_NAME, report_courier, replace=True)


def courier_briefcase(peer: str, work: float = 0.0, count: int = 1,
                      payload_bytes: int = 0) -> Briefcase:
    """What one courier carries."""
    briefcase = Briefcase()
    for key, value in (("PEER", peer), ("WORK", work), ("COUNT", count),
                       ("BYTES", payload_bytes)):
        briefcase.set(key, value)
    return briefcase


def worker(ctx, briefcase: Briefcase):
    """One unit of churn: work WORK seconds, finish."""
    yield ctx.sleep(float(briefcase.get("WORK")))
    return ctx.site_name


# ---------------------------------------------------------------------------
# failing agents (shard-backend error paths)
# ---------------------------------------------------------------------------

#: registered name of an agent whose sleep the kernel cannot schedule
BAD_SLEEPER_NAME = "bad_sleeper"
#: registered name of an agent that raises SystemExit, which no kernel catches
QUITTER_NAME = "quitter"
#: registered name of an agent whose result is 200 KiB, then an unpicklable lambda
UNPICKLABLE_RESULT_NAME = "unpicklable_result"


def bad_sleeper(ctx, briefcase: Briefcase):
    """Ask to sleep ``"soon"``: the kernel's ``float()`` raises out of ``run()``."""
    yield Sleep("soon")


def quitter(ctx, briefcase: Briefcase):
    """Sleep, then raise SystemExit out of the engine running the agent."""
    yield ctx.sleep(0.1)
    raise SystemExit(3)


def unpicklable_result(ctx, briefcase: Briefcase):
    """Finish with 200 distinct KiB-sized elements and a lambda last."""
    yield ctx.sleep(0)
    return [bytes(1024) for _ in range(200)] + [lambda: None]


register_behaviour(BAD_SLEEPER_NAME, bad_sleeper, replace=True)
register_behaviour(QUITTER_NAME, quitter, replace=True)
register_behaviour(UNPICKLABLE_RESULT_NAME, unpicklable_result, replace=True)


# ---------------------------------------------------------------------------
# data gathering: mobile agent vs. client-server pull
# ---------------------------------------------------------------------------

HOME = "home"
#: each data site's cabinet, with its records in folder RECORDS
DATA_CABINET = "data"
RECORDS_FOLDER = "RECORDS"
#: the home cabinet both modes file their "summary" in (the pull client
#: also banks "raw" records and "responded" site names there)
GATHER_CABINET = "gather"
GATHER_AGENT_NAME = "data_gatherer"
DATA_SERVER_NAME = "data_server"
DATA_SINK_NAME = "data_sink"


def gather_kernel(n_sites: int = 8, records_per_site: int = 100, record_bytes: int = 512,
                  selectivity: float = 0.05, transport: str = "tcp",
                  topology: str = "star", seed: int = 13) -> Kernel:
    """``home`` plus *n_sites* data sites holding seeded records, on slow links."""
    sites = [f"data{i:02d}" for i in range(n_sites)]
    link = dict(latency=0.02, bandwidth=250_000.0)
    half = max(1, n_sites // 2)
    builders = {
        "star": lambda: star(HOME, sites, **link),
        "lan": lambda: lan([HOME] + sites, **link),
        "ring": lambda: ring([HOME] + sites, **link),
        "two_clusters": lambda: two_clusters([HOME] + sites[:half], sites[half:],
                                             wan_bandwidth=link["bandwidth"]),
    }
    if topology not in builders:
        raise ValueError(f"unknown topology kind {topology!r}")
    kernel = Kernel(builders[topology](), transport=transport,
                    config=KernelConfig(rng_seed=seed))
    populate_data_sites(kernel, sites, records_per_site, record_bytes, selectivity, seed)
    return kernel


def data_sites(kernel: Kernel) -> List[str]:
    """The data sites of a gathering kernel, in itinerary order."""
    return [name for name in kernel.site_names() if name != HOME]


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
            relevant_total += relevant
            folder.push({"id": f"{site_name}:{index}", "relevant": relevant,
                         "value": rng.random(), "payload": b"\0" * record_bytes})
    return relevant_total


def gather_summary(kernel: Kernel) -> dict:
    """The last summary filed at home (empty before any gathering finished)."""
    summaries = kernel.site(HOME).cabinet(GATHER_CABINET).elements("summary")
    return summaries[-1] if summaries else {}


def gather_agent_behaviour(ctx, briefcase: Briefcase):
    """Visit every data site keeping the relevant records, then go home."""
    kept = briefcase.folder("KEPT", create=True)
    if ctx.site_name != HOME:
        records = ctx.cabinet(DATA_CABINET).elements(RECORDS_FOLDER)
        # Relevant records are carried in full (the query needs their
        # payload); only the irrelevant ones are filtered away.  At
        # selectivity 1.0 there is nothing to filter, and the agent re-ships
        # everything gathered so far at every remaining hop: the crossover.
        kept.extend({"id": record["id"], "value": record["value"],
                     "payload": record["payload"]}
                    for record in records if record["relevant"])
        briefcase.folder("VISITS", create=True).push(len(records))
        yield ctx.sleep(0.005)
    itinerary = briefcase.folder("SITES", create=True)
    if itinerary or ctx.site_name != HOME:
        yield ctx.jump(briefcase, itinerary.dequeue() if itinerary else HOME)
        return "moved"
    visits = briefcase.folder("VISITS", create=True).elements()
    ctx.cabinet(GATHER_CABINET).put("summary", {
        "relevant_found": len(kept), "records_total": sum(visits),
        "sites_covered": len(visits), "completed_at": ctx.now})
    yield ctx.sleep(0)
    return len(kept)


register_behaviour(GATHER_AGENT_NAME, gather_agent_behaviour, replace=True)


def agent_gather(**params) -> Kernel:
    """Send the mobile agent round every data site and home (gather_kernel's *params*)."""
    kernel = gather_kernel(**params)
    briefcase = Briefcase()
    briefcase.folder("SITES", create=True).extend(data_sites(kernel))
    kernel.launch(HOME, GATHER_AGENT_NAME, briefcase)
    kernel.run(until=600.0)
    return kernel


def data_server_behaviour(ctx, briefcase: Briefcase):
    """Ship every raw record of this site to the requesting home site."""
    request = briefcase.get("REQUEST")
    if not isinstance(request, dict) or "home" not in request:
        yield ctx.end_meet(0)
        return 0
    records = ctx.cabinet(DATA_CABINET).elements(RECORDS_FOLDER)
    response = Folder("RAW_RECORDS", records)
    response.push({"__origin__": ctx.site_name})
    yield ctx.send_folder(response, request["home"], DATA_SINK_NAME)
    yield ctx.end_meet(len(records))
    return len(records)


def data_sink_behaviour(ctx, briefcase: Briefcase):
    """Bank arriving raw records, and who sent them, at home."""
    cabinet = ctx.cabinet(GATHER_CABINET)
    stored = 0
    for record in (briefcase.folder("RAW_RECORDS").elements()
                   if briefcase.has("RAW_RECORDS") else []):
        if "__origin__" in record:
            cabinet.put("responded", record["__origin__"])
        else:
            cabinet.put("raw", record)
            stored += 1
    yield ctx.end_meet(stored)
    return stored


def install_data_servers(kernel: Kernel) -> None:
    """A server at every data site, the sink for their responses at home."""
    kernel.install_agent(HOME, DATA_SINK_NAME, data_sink_behaviour, replace=True)
    for site in data_sites(kernel):
        kernel.install_agent(site, DATA_SERVER_NAME, data_server_behaviour, replace=True)


def launch_pull_client(kernel: Kernel, poll_interval: float = 0.1,
                       max_polls: int = 300) -> str:
    """Launch the home client: request everything, wait, filter centrally."""
    sites = data_sites(kernel)

    def pull_client(ctx, briefcase):
        cabinet = ctx.cabinet(GATHER_CABINET)
        for site in sites:
            yield ctx.send_folder(Folder("REQUEST", [{"home": HOME}]), site,
                                  DATA_SERVER_NAME)
        polls = 0
        while polls < max_polls and len(set(cabinet.elements("responded"))) < len(sites):
            polls += 1
            yield ctx.sleep(poll_interval)
        raw = cabinet.elements("raw")
        cabinet.put("summary", {
            "relevant_found": sum(1 for record in raw if record["relevant"]),
            "records_total": len(raw),
            "sites_covered": len(set(cabinet.elements("responded"))),
            "polls": polls, "completed_at": ctx.now})

    return kernel.launch(HOME, pull_client)


def client_server_gather(**params) -> Kernel:
    """Pull every raw record home and filter there (gather_kernel's *params*)."""
    kernel = gather_kernel(**params)
    install_data_servers(kernel)
    launch_pull_client(kernel)
    kernel.run(until=600.0)
    return kernel


# ---------------------------------------------------------------------------
# itinerary: one agent hops K sites carrying B bytes
# ---------------------------------------------------------------------------

def itinerant_behaviour(ctx, briefcase: Briefcase):
    """Hop along TOUR stamping each arrival; file the stamps at the last stop."""
    briefcase.folder("HOP_TIMES", create=True).push(ctx.now)
    tour = briefcase.folder("TOUR", create=True)
    if tour:
        yield ctx.jump(briefcase, tour.dequeue())
        return "moved"
    ctx.cabinet("itinerary").put("hop_times", briefcase.folder("HOP_TIMES").elements())
    yield ctx.sleep(0)
    return "completed"


register_behaviour("itinerant", itinerant_behaviour, replace=True)


def itinerary(transport: str = "tcp", hops: int = 8, payload_bytes: int = 1024,
              n_sites: int = 9, seed: int = 21):
    """Hop *hops* times round a LAN of *n_sites*; returns the kernel (its
    clock stops at the last hop) and the mean simulated time per hop."""
    sites = [f"site{i:02d}" for i in range(max(2, n_sites))]
    kernel = Kernel(lan(sites, latency=0.01, bandwidth=1_250_000.0), transport=transport,
                    config=KernelConfig(rng_seed=seed))
    tour = [sites[(index + 1) % len(sites)] for index in range(hops)]
    briefcase = Briefcase()
    briefcase.set("PAYLOAD", b"\0" * payload_bytes)
    briefcase.folder("TOUR", create=True).extend(tour)
    kernel.launch(sites[0], "itinerant", briefcase)
    kernel.run()
    times = kernel.site(tour[-1] if tour else sites[0]).cabinet(
        "itinerary").elements("hop_times")[-1]
    return kernel, (times[-1] - times[0]) / hops if hops else 0.0


# ---------------------------------------------------------------------------
# high population, churn, fan-in, sharded churn
# ---------------------------------------------------------------------------

def high_population(*, n_sites: int, n_agents: int, wave_size: int, work_seconds: float,
                    seed: int):
    """Waves of short agents, each placed on the site whose ``site_load``
    (plus this wave's placements there) is lowest, as a broker would.

    Returns the kernel, the spread of launches between the busiest and the
    idlest site, the most residents one site held, and the load probes issued.
    """
    sites = [f"node{i:02d}" for i in range(n_sites)]
    kernel = Kernel(lan(sites, latency=0.005, bandwidth=1_250_000.0), transport="tcp",
                    config=KernelConfig(rng_seed=seed))
    placements = dict.fromkeys(sites, 0)
    probes = peak = launched = 0
    while launched < n_agents:
        wave = min(wave_size, n_agents - launched)
        assigned = dict.fromkeys(sites, 0)
        requests = []
        for _ in range(wave):
            best = min(sites, key=lambda name: kernel.site_load(name) + assigned[name])
            probes += len(sites)
            briefcase = Briefcase()
            briefcase.set("WORK", work_seconds)
            requests.append((best, worker, briefcase))
            placements[best] += 1
            assigned[best] += 1
        kernel.launch_many(requests)
        launched += wave
        kernel.run(max_events=wave)  # start the wave: the index sees its residents
        peak = max(peak, max(kernel.site(name).resident_count() for name in sites))
        kernel.run(until=kernel.now + work_seconds)  # let part of it drain
    kernel.run()
    return kernel, max(placements.values()) - min(placements.values()), peak, probes


def agent_churn(*, backend: str, n_sites: int, n_agents: int, wave_size: int,
                work_seconds: float, ballast_bytes: int, retention: str, seed: int):
    """Waves of short agents carrying *ballast_bytes*, each wave drained before
    the next; returns the (closed) kernel and, per wave, ``(launched,
    ledger entries retained)``."""
    sites = [f"churn{i:02d}" for i in range(n_sites)]
    checkpoints = []
    with Kernel(lan(sites), transport="tcp",
                config=KernelConfig(rng_seed=seed, retention=retention,
                                    backend=backend)) as kernel:
        for start in range(0, n_agents, wave_size):
            requests = []
            for slot in range(start, min(start + wave_size, n_agents)):
                briefcase = Briefcase()
                briefcase.set("WORK", work_seconds)
                briefcase.set("BALLAST", b"\0" * ballast_bytes)
                requests.append((sites[slot % n_sites], worker, briefcase))
            kernel.launch_many(requests)
            kernel.run()
            checkpoints.append((kernel.launched, len(kernel.table)))
    return kernel, checkpoints


def courier_fan_in(*, backend: str, n_senders: int, deliveries_per_sender: int,
                   payload_bytes: int, link_latency: float, batch_window: float = 0.0,
                   seed: int = 23):
    """Every sender couriers its reports to the sink at ``hub``; returns the
    (closed) kernel, the events run and the wall seconds ``run()`` took (under
    ``backend="realtime"`` the link latencies really elapse)."""
    senders = [f"sender{i:02d}" for i in range(n_senders)]
    with Kernel(star("hub", senders, latency=link_latency, bandwidth=250_000.0),
                transport="tcp",
                config=KernelConfig(rng_seed=seed, backend=backend,
                                    delivery_batch_window=batch_window)) as kernel:
        kernel.install_agent("hub", SINK_NAME, report_sink)
        for site in senders:
            kernel.launch(site, COURIER_NAME, courier_briefcase(
                "hub", count=deliveries_per_sender, payload_bytes=payload_bytes))
        start = default_timer()
        events = kernel.run()
        wall = default_timer() - start
    return kernel, events, wall


def sharded_churn(*, shards: int, backend: str, n_sites: int, n_agents: int,
                  wave_size: int, seed: int):
    """Waves of couriers on a LAN of *n_sites*, each reporting to the site half
    way round the list (under CRC-32 placement, usually on another shard);
    returns the kernel and the events run."""
    sites = [f"s{i:03d}" for i in range(n_sites)]
    kernel = Kernel(lan(sites), transport="tcp",
                    config=KernelConfig(rng_seed=seed, shards=shards,
                                        shard_backend=backend))
    kernel.install_agent(None, SINK_NAME, report_sink)
    offset = len(sites) // 2 + 1
    events = 0
    for start in range(0, n_agents, wave_size):
        kernel.launch_many([
            (sites[slot % n_sites], COURIER_NAME,
             courier_briefcase(sites[(slot + offset) % n_sites], work=0.01,
                               payload_bytes=128))
            for slot in range(start, min(start + wave_size, n_agents))])
        events += kernel.run()
    return kernel, events
