"""StormCast workload driver: one call per pipeline, matched parameters.

Tests and ``examples/stormcast_prediction.py`` need "run StormCast with the
mobile collector" and "run StormCast client-server" under identical sensor
data, topology and transport, and then compare bytes on the wire, time to
prediction, and the predictions themselves.  This module packages that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.apps.stormcast.baseline import (BASELINE_CABINET, install_baseline_agents,
                                           launch_baseline_client)
from repro.apps.stormcast.collector import STORMCAST_CABINET, launch_collectors
from repro.apps.stormcast.prediction import (EXPERT_AGENT_NAME, PREDICTIONS_CABINET,
                                             StormExpert, make_expert_behaviour)
from repro.apps.stormcast.sensors import (SENSOR_CABINET, WeatherGenerator,
                                          populate_sensor_sites)
from repro.core.kernel import Kernel, KernelConfig
from repro.net.failures import FailureSchedule
from repro.net.topology import Topology, star

__all__ = ["StormCastParams", "StormCastResult", "build_stormcast_kernel",
           "run_agent_pipeline", "run_client_server"]


@dataclass
class StormCastParams:
    """Everything that defines one StormCast run."""

    n_sensors: int = 8
    samples_per_site: int = 200
    storm_rate: float = 0.02
    raw_payload_bytes: int = 512
    wind_threshold: float = 20.0
    pressure_threshold: float = 985.0
    transport: str = "tcp"
    seed: int = 7
    hub_name: str = "hub"
    #: WAN-ish links between hub and sensors make the bandwidth story visible
    link_latency: float = 0.02
    link_bandwidth: float = 250_000.0
    #: optional failure schedule applied to the run (a sensor site down)
    failures: Optional[FailureSchedule] = None
    run_until: float = 300.0
    #: durability policy of the per-site stores; with anything other than
    #: "none" the sensor readings and the hub's collection/prediction
    #: cabinets ride the durable store (see :mod:`repro.store`)
    durability: str = "none"

    def sensor_names(self) -> List[str]:
        """The sensor site names for this parameter set."""
        return [f"sensor{i:02d}" for i in range(self.n_sensors)]


@dataclass
class StormCastResult:
    """What one pipeline run produced and what it cost."""

    mode: str
    bytes_on_wire: int
    messages: int
    migrations: int
    duration: float
    predictions: List[dict] = field(default_factory=list)
    alerts: int = 0
    observations_carried: int = 0
    raw_records_total: int = 0
    sites_covered: int = 0

    def alert_stations(self) -> List[str]:
        """Stations with a warning or severe prediction (the comparable output)."""
        return sorted(prediction["station"] for prediction in self.predictions
                      if prediction["warning_level"] in ("warning", "severe"))


def build_stormcast_kernel(params: StormCastParams) -> Kernel:
    """A hub-and-spoke kernel with populated sensor cabinets and the hub expert."""
    sensors = params.sensor_names()
    topology: Topology = star(params.hub_name, sensors, latency=params.link_latency,
                              bandwidth=params.link_bandwidth)
    kernel = Kernel(topology, transport=params.transport,
                    config=KernelConfig(rng_seed=params.seed,
                                        durability=params.durability))
    # The measurement record is what a weather service must not lose: the
    # collections/predictions at the hub opt into the durable store
    # (no-ops under policy "none").
    kernel.make_durable(STORMCAST_CABINET, sites=[params.hub_name])
    kernel.make_durable(PREDICTIONS_CABINET, sites=[params.hub_name])
    generator = WeatherGenerator(seed=params.seed, storm_rate=params.storm_rate,
                                 raw_payload_bytes=params.raw_payload_bytes)
    populate_sensor_sites(kernel, sensors, params.samples_per_site, generator)
    # Sensor readings opt in *after* population: the pre-loaded readings
    # model data already on disk, so they become the cabinet's durable base
    # image rather than journaled writes.
    kernel.make_durable(SENSOR_CABINET, sites=sensors)
    kernel.install_agent(params.hub_name, EXPERT_AGENT_NAME,
                         make_expert_behaviour(StormExpert()), replace=True)
    if params.failures is not None:
        params.failures.install(kernel)
    return kernel


def _predictions_at_hub(kernel: Kernel, hub: str) -> List[dict]:
    return [record for record in
            kernel.site(hub).cabinet(PREDICTIONS_CABINET).elements("issued")
            if isinstance(record, dict)]


def run_agent_pipeline(params: StormCastParams, n_collectors: int = 1) -> StormCastResult:
    """Run StormCast with the mobile filtering collector(s).

    With ``n_collectors > 1`` the sensor sites are partitioned and visited
    by parallel collectors; the forecast is complete when
    the *last* collector has delivered its evidence to the hub expert.
    """
    kernel = build_stormcast_kernel(params)
    launch_collectors(kernel, params.hub_name, params.sensor_names(),
                      n_collectors=n_collectors,
                      wind_threshold=params.wind_threshold,
                      pressure_threshold=params.pressure_threshold)
    kernel.run(until=params.run_until)

    summaries = [entry for entry in
                 kernel.site(params.hub_name).cabinet(STORMCAST_CABINET).elements("collections")
                 if isinstance(entry, dict)]
    visits = [visit for summary in summaries for visit in summary.get("visits", [])
              if isinstance(visit, dict)]
    return StormCastResult(
        mode="mobile-agent" if n_collectors == 1 else f"mobile-agent x{n_collectors}",
        bytes_on_wire=kernel.stats.bytes_sent,
        messages=kernel.stats.messages_sent,
        migrations=kernel.stats.migrations,
        duration=max((summary.get("completed_at", 0.0) for summary in summaries),
                     default=kernel.now),
        predictions=_predictions_at_hub(kernel, params.hub_name),
        alerts=sum(summary.get("alerts", 0) for summary in summaries),
        observations_carried=sum(summary.get("observations", 0) for summary in summaries),
        raw_records_total=sum(visit.get("raw", 0) for visit in visits),
        sites_covered=sum(1 for visit in visits
                          if visit.get("site") != params.hub_name
                          and not visit.get("skipped")),
    )


def run_client_server(params: StormCastParams) -> StormCastResult:
    """Run StormCast by shipping raw data to the hub (the baseline)."""
    kernel = build_stormcast_kernel(params)
    sensors = params.sensor_names()
    install_baseline_agents(kernel, params.hub_name, sensors)
    launch_baseline_client(kernel, params.hub_name, sensors)
    kernel.run(until=params.run_until)

    cabinet = kernel.site(params.hub_name).cabinet(BASELINE_CABINET)
    summaries = cabinet.elements("summary")
    summary = summaries[-1] if summaries else {}
    return StormCastResult(
        mode="client-server",
        bytes_on_wire=kernel.stats.bytes_sent,
        messages=kernel.stats.messages_sent,
        migrations=kernel.stats.migrations,
        duration=summary.get("completed_at", kernel.now) if isinstance(summary, dict)
        else kernel.now,
        predictions=_predictions_at_hub(kernel, params.hub_name),
        alerts=summary.get("alerts", 0) if isinstance(summary, dict) else 0,
        observations_carried=summary.get("raw_records_received", 0)
        if isinstance(summary, dict) else 0,
        raw_records_total=summary.get("raw_records_received", 0)
        if isinstance(summary, dict) else 0,
        sites_covered=summary.get("sites_responded", 0) if isinstance(summary, dict) else 0,
    )
