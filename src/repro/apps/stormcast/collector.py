"""The mobile collector agent: filter at the source, carry only what matters.

This is the paper's core bandwidth argument made concrete (section 1):
"Data may be accessed only by an agent executing at the same site as the
data resides.  An agent typically will filter or otherwise reduce the data
it reads, carrying with it only the relevant information as it roams the
network."

The collector visits every sensor site in its itinerary, reads the raw
readings from the site-local weather cabinet, keeps only the storm
precursors, and finally delivers the (small) evidence set to the expert
system at the hub.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.apps.stormcast.prediction import EXPERT_AGENT_NAME
from repro.apps.stormcast.sensors import READINGS_FOLDER, SENSOR_CABINET, WeatherReading
from repro.core.briefcase import Briefcase
from repro.core.context import AgentContext
from repro.core.kernel import Kernel
from repro.core.registry import register_behaviour

__all__ = ["collector_behaviour", "COLLECTOR_NAME", "STORMCAST_CABINET",
           "launch_collector"]

#: registered name of the collector behaviour (needed so it can jump)
COLLECTOR_NAME = "storm_collector"
#: hub-side cabinet where collection summaries are recorded
STORMCAST_CABINET = "stormcast"


def collector_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """Visit sensor sites, filter locally, deliver evidence to the hub expert."""
    hub = briefcase.get("HUB")
    wind_threshold = float(briefcase.get("WIND_THRESHOLD", 20.0))
    pressure_threshold = float(briefcase.get("PRESSURE_THRESHOLD", 985.0))
    observations = briefcase.folder("OBSERVATIONS", create=True)

    if ctx.site_name != hub or briefcase.get("PHASE") != "deliver":
        # Sensor-site visit: filter the local raw readings in place.
        cabinet = ctx.cabinet(SENSOR_CABINET)
        raw = cabinet.elements(READINGS_FOLDER)
        kept = 0
        for record in raw:
            try:
                reading = WeatherReading.from_wire(record)
            except (KeyError, TypeError, ValueError):
                continue
            if reading.is_storm_precursor(wind_threshold, pressure_threshold):
                # Strip the bulky raw padding before carrying it along: the
                # evidence the expert needs is just the measured values.
                slim = WeatherReading(
                    station=reading.station, timestamp=reading.timestamp,
                    wind_speed=reading.wind_speed, pressure=reading.pressure,
                    temperature=reading.temperature, humidity=reading.humidity,
                    raw_payload_bytes=0,
                )
                observations.push(slim.to_wire())
                kept += 1
        briefcase.folder("VISIT_LOG", create=True).push(
            {"site": ctx.site_name, "raw": len(raw), "kept": kept, "at": ctx.now})
        yield ctx.sleep(float(briefcase.get("FILTER_SECONDS", 0.005)))

    # Move on to the next reachable sensor site.  A refused transfer means
    # the site is down or unreachable right now — StormCast keeps going with
    # the remaining stations rather than losing the whole collection run.
    itinerary = briefcase.folder("SENSOR_SITES", create=True)
    while itinerary:
        next_site = itinerary.dequeue()
        result = yield ctx.jump(briefcase.copy(), next_site)
        if result.value:
            return "moved"
        briefcase.folder("VISIT_LOG", create=True).push(
            {"site": next_site, "raw": 0, "kept": 0, "at": ctx.now, "skipped": True})

    if ctx.site_name != hub:
        briefcase.set("PHASE", "deliver")
        yield ctx.jump(briefcase, hub)
        return "moving-to-hub"

    # At the hub: hand the evidence to the expert system.
    result = yield ctx.meet(EXPERT_AGENT_NAME, briefcase)
    summary = {
        "observations": len(observations),
        "visits": briefcase.folder("VISIT_LOG", create=True).elements(),
        "predictions": result.value,
        "alerts": briefcase.get("ALERT_COUNT", 0),
        "completed_at": ctx.now,
    }
    ctx.cabinet(STORMCAST_CABINET).put("collections", summary)
    yield ctx.sleep(0)
    return summary


register_behaviour(COLLECTOR_NAME, collector_behaviour, replace=True)


def launch_collector(kernel: Kernel, hub: str, sensor_sites: Sequence[str],
                     wind_threshold: float = 20.0, pressure_threshold: float = 985.0,
                     origin: Optional[str] = None, delay: float = 0.0) -> str:
    """Launch a collector from *origin* (the hub by default); returns its agent id."""
    briefcase = Briefcase()
    briefcase.set("HUB", hub)
    briefcase.set("WIND_THRESHOLD", wind_threshold)
    briefcase.set("PRESSURE_THRESHOLD", pressure_threshold)
    itinerary = briefcase.folder("SENSOR_SITES", create=True)
    for site in sensor_sites:
        itinerary.enqueue(site)
    return kernel.launch(origin or hub, COLLECTOR_NAME, briefcase, delay=delay)


def launch_collectors(kernel: Kernel, hub: str, sensor_sites: Sequence[str],
                      n_collectors: int = 1, wind_threshold: float = 20.0,
                      pressure_threshold: float = 985.0, delay: float = 0.0) -> list:
    """Partition the sensor sites across *n_collectors* parallel collectors.

    One itinerant collector per partition shortens the time to forecast (the
    itineraries run concurrently) at the cost of one extra hub delivery per
    collector.  The partition is round-robin so heterogeneous site counts
    stay balanced.  Returns the launched agent ids.
    """
    if n_collectors < 1:
        raise ValueError("n_collectors must be at least 1")
    sites = list(sensor_sites)
    n_collectors = min(n_collectors, max(1, len(sites)))
    partitions = [sites[index::n_collectors] for index in range(n_collectors)]
    return [
        launch_collector(kernel, hub, partition, wind_threshold=wind_threshold,
                         pressure_threshold=pressure_threshold, delay=delay)
        for partition in partitions if partition
    ]
