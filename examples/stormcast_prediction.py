#!/usr/bin/env python
"""StormCast: storm prediction with a mobile filtering agent vs. client-server.

The paper's motivating application (section 6): weather sensors across the
Arctic produce large volumes of raw readings; an expert system at a hub
predicts severe storms.  A mobile agent filters at each sensor site and
carries only the storm precursors to the hub; the client-server baseline
ships every raw reading.  Both produce the same predictions — the
difference is what crosses the (slow) network.

Run with::

    python examples/stormcast_prediction.py
"""

from __future__ import annotations

from repro.apps.stormcast import StormCastParams, run_agent_pipeline, run_client_server


def bytes_human(count: float) -> str:
    """Readable byte count for the report rows (1.5 KB, 3.2 MB, ...)."""
    for unit in ("B", "KB", "MB", "GB"):
        if abs(count) < 1024.0:
            return f"{int(count)} {unit}" if unit == "B" else f"{count:.1f} {unit}"
        count /= 1024.0
    return f"{count:.1f} TB"


def main() -> None:
    params = StormCastParams(
        n_sensors=10,
        samples_per_site=300,
        storm_rate=0.03,
        raw_payload_bytes=1024,     # each raw reading carries ~1 KB of radar data
        seed=42,
    )

    print(f"StormCast over {params.n_sensors} sensor sites, "
          f"{params.samples_per_site} readings each "
          f"({bytes_human(params.n_sensors * params.samples_per_site * params.raw_payload_bytes)} "
          f"of raw data in the field)\n")

    agent = run_agent_pipeline(params)
    server = run_client_server(params)

    print(f"{'pipeline':<16} {'bytes on wire':>14} {'messages':>9} "
          f"{'time to forecast':>17} {'alerts':>7}")
    for result in (agent, server):
        print(f"{result.mode:<16} {bytes_human(result.bytes_on_wire):>14} "
              f"{result.messages:>9} {result.duration:>15.2f}s "
              f"{len(result.alert_stations()):>7}")

    savings = server.bytes_on_wire / max(1, agent.bytes_on_wire)
    print(f"\nThe mobile agent moved {savings:.1f}x fewer bytes.")
    print(f"Both pipelines issue alerts for the same stations: "
          f"{agent.alert_stations() == server.alert_stations()}")
    if agent.alert_stations():
        print("Stations under storm warning:", ", ".join(agent.alert_stations()))


if __name__ == "__main__":
    main()
