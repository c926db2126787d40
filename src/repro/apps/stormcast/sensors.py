"""Synthetic Arctic weather sensors for the StormCast reproduction (paper section 6).

"We are reimplementing StormCast [J93], which uses a set of expert systems
to predict severe storms in the Arctic based on weather data obtained from
a distributed network of sensors."

The real sensor network is not available (DESIGN.md substitution table), so
this module generates synthetic weather time series with the property that
matters for the bandwidth argument of section 1: each sensor site holds a
*large* volume of raw readings of which only a *small* fraction (the storm
precursors) is relevant to the predictor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.kernel import Kernel

__all__ = ["WeatherReading", "WeatherGenerator", "populate_sensor_site",
           "populate_sensor_sites", "SENSOR_CABINET", "READINGS_FOLDER"]

#: cabinet each sensor site stores its raw readings in
SENSOR_CABINET = "weather"
#: folder (in that cabinet) holding the raw readings, oldest first
READINGS_FOLDER = "READINGS"


@dataclass(frozen=True)
class WeatherReading:
    """One observation from one sensor station."""

    station: str
    timestamp: float
    wind_speed: float        # m/s
    pressure: float          # hPa
    temperature: float       # degrees C
    humidity: float          # %
    #: filler payload modelling the full raw record (radar slices, etc.);
    #: this is what makes shipping raw data expensive.
    raw_payload_bytes: int = 0

    def to_wire(self) -> Dict[str, object]:
        """Folder-storable record.  The padding really is carried as bytes."""
        return {
            "station": self.station, "timestamp": self.timestamp,
            "wind_speed": self.wind_speed, "pressure": self.pressure,
            "temperature": self.temperature, "humidity": self.humidity,
            "padding": b"\0" * self.raw_payload_bytes,
        }

    @classmethod
    def from_wire(cls, payload: Dict[str, object]) -> "WeatherReading":
        """Rebuild a reading from :meth:`to_wire` output."""
        padding = payload.get("padding", b"")
        return cls(
            station=str(payload["station"]), timestamp=float(payload["timestamp"]),
            wind_speed=float(payload["wind_speed"]), pressure=float(payload["pressure"]),
            temperature=float(payload["temperature"]), humidity=float(payload["humidity"]),
            raw_payload_bytes=len(padding),
        )

    def is_storm_precursor(self, wind_threshold: float = 20.0,
                           pressure_threshold: float = 985.0) -> bool:
        """The filter predicate collectors apply at the sensor site."""
        return self.wind_speed >= wind_threshold or self.pressure <= pressure_threshold


class WeatherGenerator:
    """Deterministic synthetic weather with injected storm events.

    The generator produces, per station, a smooth baseline (diurnal
    temperature cycle, slowly wandering pressure) and injects ``storm_rate``
    fraction of readings that are storm precursors: wind spikes and sharp
    pressure drops.  Everything is driven by one seed so experiments are
    reproducible.
    """

    def __init__(self, seed: int = 0, storm_rate: float = 0.02,
                 raw_payload_bytes: int = 512):
        if not 0.0 <= storm_rate <= 1.0:
            raise ValueError("storm_rate must be within [0, 1]")
        self.seed = seed
        self.storm_rate = storm_rate
        self.raw_payload_bytes = raw_payload_bytes

    def readings_for(self, station: str, count: int,
                     start_time: float = 0.0, interval: float = 60.0) -> List[WeatherReading]:
        """Generate *count* readings for one station."""
        rng = random.Random(f"{self.seed}:{station}")
        pressure = 1013.0 + rng.uniform(-8.0, 8.0)
        # Stations differ in how exposed they are: the effective storm rate
        # varies by a deterministic per-station factor so some stations end
        # up under warning while sheltered ones stay calm.
        exposure = 0.25 + 1.75 * rng.random()
        effective_rate = min(1.0, self.storm_rate * exposure)
        readings: List[WeatherReading] = []
        for index in range(count):
            timestamp = start_time + index * interval
            # Baseline weather.
            temperature = -5.0 + 6.0 * math.sin(2 * math.pi * (index % 1440) / 1440.0) \
                + rng.gauss(0.0, 0.8)
            pressure += rng.gauss(0.0, 0.4)
            # The calm-weather baseline stays well above the storm threshold;
            # storms are injected as transient excursions below, not by
            # dragging the baseline walk down.
            pressure = min(1040.0, max(995.0, pressure))
            wind = abs(rng.gauss(6.0, 3.0))
            humidity = min(100.0, max(20.0, rng.gauss(75.0, 10.0)))
            observed_pressure = pressure
            # Storm injection: a transient precursor event.
            if rng.random() < effective_rate:
                wind = rng.uniform(22.0, 45.0)
                observed_pressure = rng.uniform(955.0, 984.0)
                humidity = rng.uniform(85.0, 100.0)
            readings.append(WeatherReading(
                station=station, timestamp=timestamp, wind_speed=round(wind, 2),
                pressure=round(observed_pressure, 2), temperature=round(temperature, 2),
                humidity=round(humidity, 2), raw_payload_bytes=self.raw_payload_bytes,
            ))
        return readings


def populate_sensor_site(kernel: Kernel, site_name: str, readings: Iterable[WeatherReading]) -> int:
    """Store *readings* in the site's weather cabinet; returns how many were stored."""
    cabinet = kernel.site(site_name).cabinet(SENSOR_CABINET)
    stored = 0
    for reading in readings:
        cabinet.put(READINGS_FOLDER, reading.to_wire())
        stored += 1
    return stored


def populate_sensor_sites(kernel: Kernel, sensor_sites: Sequence[str],
                          samples_per_site: int,
                          generator: Optional[WeatherGenerator] = None) -> Dict[str, int]:
    """Fill every sensor site with synthetic readings; returns per-site counts."""
    generator = generator or WeatherGenerator()
    return {
        site: populate_sensor_site(kernel, site,
                                   generator.readings_for(site, samples_per_site))
        for site in sensor_sites
    }
