"""The client-server StormCast baseline: ship raw data to the hub.

Section 1's contrast case: "when an application is built using a client and
servers, raw data may have to be sent from one site to another if, for
example, the client obtains its computing cycles from a different site than
it obtains its data."  Here the hub (the client) asks every sensor site
(the servers) for its full raw reading series, and the expert system runs
centrally over the transferred data.  ``tests/unit/test_stormcast_pipeline.py``
compares the bytes this puts on the wire against the mobile collector of
:mod:`repro.apps.stormcast.collector`.
"""

from __future__ import annotations

from typing import Sequence

from repro.apps.stormcast.prediction import EXPERT_AGENT_NAME
from repro.apps.stormcast.sensors import READINGS_FOLDER, SENSOR_CABINET
from repro.core.briefcase import Briefcase
from repro.core.context import AgentContext
from repro.core.folder import Folder
from repro.core.kernel import Kernel

__all__ = ["install_baseline_agents", "launch_baseline_client",
           "WEATHER_SERVER_NAME", "WEATHER_SINK_NAME", "BASELINE_CABINET"]

#: the per-sensor-site server that returns raw data on request
WEATHER_SERVER_NAME = "weather_server"
#: the hub-side sink that accumulates raw data responses
WEATHER_SINK_NAME = "weather_sink"
#: hub-side cabinet holding the received raw data and the final summary
BASELINE_CABINET = "baseline"


def weather_server_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """Respond to a data request by shipping the full raw reading series to the hub.

    The request arrives as a courier delivery carrying a ``REQUEST`` folder
    with the hub's name.  The response is one (large) ``RAW_READINGS``
    folder sent back through the courier — every byte of padding crosses
    the network, which is precisely the cost the comparison measures.
    """
    request = None
    if briefcase.has("REQUEST"):
        request = briefcase.get("REQUEST")
    if not isinstance(request, dict) or "hub" not in request:
        yield ctx.end_meet(0)
        return 0

    raw = ctx.cabinet(SENSOR_CABINET).elements(READINGS_FOLDER)
    response = Folder("RAW_READINGS", raw)
    # Tag the response with the origin so the sink can tell when every
    # sensor site has answered.
    response.push({"__origin__": ctx.site_name, "count": len(raw)})
    yield ctx.send_folder(response, request["hub"], WEATHER_SINK_NAME)
    yield ctx.end_meet(len(raw))
    return len(raw)


def weather_sink_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """Hub-side sink: bank arriving raw readings in the baseline cabinet."""
    cabinet = ctx.cabinet(BASELINE_CABINET)
    stored = 0
    if briefcase.has("RAW_READINGS"):
        for record in briefcase.folder("RAW_READINGS").elements():
            if isinstance(record, dict) and "__origin__" in record:
                cabinet.put("responded", record["__origin__"])
            else:
                cabinet.put("raw", record)
                stored += 1
    yield ctx.end_meet(stored)
    return stored


def install_baseline_agents(kernel: Kernel, hub: str, sensor_sites: Sequence[str]) -> None:
    """Install the weather servers and the hub sink for the client-server baseline."""
    kernel.install_agent(hub, WEATHER_SINK_NAME, weather_sink_behaviour, replace=True)
    for site in sensor_sites:
        kernel.install_agent(site, WEATHER_SERVER_NAME, weather_server_behaviour,
                             replace=True)


def launch_baseline_client(kernel: Kernel, hub: str, sensor_sites: Sequence[str],
                           poll_interval: float = 0.1, max_polls: int = 200,
                           delay: float = 0.0) -> str:
    """Launch the hub-side client that requests, waits, and predicts centrally."""
    briefcase = Briefcase()
    briefcase.set("HUB", hub)
    sites_folder = briefcase.folder("SENSOR_SITES", create=True)
    for site in sensor_sites:
        sites_folder.enqueue(site)
    briefcase.set("POLL_INTERVAL", poll_interval)
    briefcase.set("MAX_POLLS", max_polls)
    return kernel.launch(hub, _baseline_client_behaviour, briefcase, delay=delay)


def _baseline_client_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """Request raw data from every sensor site, wait for it, run the expert centrally."""
    hub = briefcase.get("HUB", ctx.site_name)
    sensor_sites = list(briefcase.folder("SENSOR_SITES", create=True).elements())
    poll_interval = float(briefcase.get("POLL_INTERVAL", 0.1))
    max_polls = int(briefcase.get("MAX_POLLS", 200))
    cabinet = ctx.cabinet(BASELINE_CABINET)

    # 1. Fan out one request per sensor site through the courier.
    for site in sensor_sites:
        request = Folder("REQUEST", [{"hub": hub, "requested_at": ctx.now}])
        yield ctx.send_folder(request, site, WEATHER_SERVER_NAME)

    # 2. Wait until every site has responded (or the poll budget runs out —
    #    crashed sensor sites simply never answer, and the summary then
    #    covers one site fewer).
    polls = 0
    while polls < max_polls:
        responded = set(cabinet.elements("responded"))
        if all(site in responded for site in sensor_sites):
            break
        polls += 1
        yield ctx.sleep(poll_interval)

    # 3. Run the expert system centrally over everything that arrived.
    analysis = Briefcase()
    evidence = analysis.folder("OBSERVATIONS", create=True)
    for record in cabinet.elements("raw"):
        evidence.push(record)
    result = yield ctx.meet(EXPERT_AGENT_NAME, analysis)

    summary = {
        "sites_responded": len(set(cabinet.elements("responded"))),
        "sites_requested": len(sensor_sites),
        "raw_records_received": len(cabinet.elements("raw")),
        "predictions": result.value,
        "alerts": analysis.get("ALERT_COUNT", 0),
        "polls": polls,
        "completed_at": ctx.now,
    }
    cabinet.put("summary", summary)
    return summary
