"""Integration test: the two applications of paper section 6 running together.

StormCast (mobile filtering + expert prediction) and the agent mail system
share one kernel: the forecast run issues warnings, and warning letters are
mailed to every sensor station's operator — while one sensor site crashes
and recovers mid-run.
"""

from __future__ import annotations

import pytest

from repro.apps.mail import MailSystem
from repro.apps.stormcast import (EXPERT_AGENT_NAME, StormCastParams, StormExpert,
                                  WeatherGenerator, launch_collector, make_expert_behaviour,
                                  populate_sensor_sites, run_agent_pipeline,
                                  run_client_server)
from repro.apps.stormcast.collector import STORMCAST_CABINET
from repro.core import Kernel, KernelConfig
from repro.net import FailureSchedule, RandomCrasher, star


class TestStormCastAndMailTogether:
    def test_forecast_then_mail_alerts(self):
        sensors = [f"sensor{i:02d}" for i in range(6)]
        kernel = Kernel(star("hub", sensors), transport="tcp",
                        config=KernelConfig(rng_seed=99))
        populate_sensor_sites(kernel, sensors, 150,
                              WeatherGenerator(seed=99, storm_rate=0.05,
                                               raw_payload_bytes=256))
        kernel.install_agent("hub", EXPERT_AGENT_NAME,
                             make_expert_behaviour(StormExpert()), replace=True)
        mail = MailSystem(kernel)

        # One sensor site is down for part of the collection run.
        FailureSchedule().crash(sensors[2], at=0.0).recover(sensors[2], at=3.0).install(kernel)

        launch_collector(kernel, "hub", sensors)
        kernel.run(until=120.0)

        summaries = kernel.site("hub").cabinet(STORMCAST_CABINET).elements("collections")
        assert summaries, "the collector must reach the hub even with a site down"
        summary = summaries[-1]

        # Mail a warning to the operator of every alerted station.
        predictions = kernel.site("hub").cabinet("predictions").elements("issued")
        alerted = [entry["station"] for entry in predictions
                   if entry["warning_level"] in ("warning", "severe")]
        for station in alerted:
            mail.send("stormcast", "hub", "operator", station,
                      f"storm warning for {station}",
                      "take precautions", delay=10.0)
        kernel.run(until=200.0)

        for station in alerted:
            inbox = mail.inbox(station, "operator")
            assert any("storm warning" in letter["subject"] for letter in inbox), station

        # The crashed-and-recovered sensor could not be visited while down;
        # the collector either visited it (if timing allowed) or skipped it,
        # but it must never have double-counted any site.
        visited = [visit["site"] for visit in summary["visits"]]
        assert len(visited) == len(set(visited))

    def test_pipeline_comparison_summary(self):
        """The cross-pipeline invariants (paper section 6), on a medium instance."""
        params = StormCastParams(n_sensors=8, samples_per_site=200, storm_rate=0.03,
                                 raw_payload_bytes=512, seed=42)
        agent = run_agent_pipeline(params)
        server = run_client_server(params)

        # Identical forecasts.
        assert agent.alert_stations() == server.alert_stations()
        # The agent pipeline is over 10x cheaper in bytes at 512 B/reading
        # (and the saving grows with the record size, see the unit tests).
        assert server.bytes_on_wire > 10 * agent.bytes_on_wire
        # And it needs one expert-input record per precursor, not per reading.
        assert agent.observations_carried < server.observations_carried

    def test_mail_volume_survives_partition_and_heal(self):
        kernel = Kernel(star("relay", ["north", "south", "east", "west"]),
                        transport="tcp", config=KernelConfig(rng_seed=13))
        mail = MailSystem(kernel)
        FailureSchedule().partition([["relay", "north", "south"], ["east", "west"]],
                                    at=0.0).heal(at=3.0).install(kernel)
        # Letters across the partition retry until the heal.
        for index, (source, target) in enumerate([("north", "east"), ("south", "west"),
                                                  ("east", "north")]):
            mail.send(f"user{index}", source, "peer", target, f"msg-{index}", "body",
                      retry_interval=0.5, max_retries=20, delay=0.1)
        kernel.run(until=60.0)
        assert mail.delivered_count() == 3

    def test_store_and_forward_keeps_mail_flowing_under_random_crashes(self):
        """Twelve letters between six offices while each office but the
        first crashes with probability 0.6 and recovers 5 s later: letters
        to a dead office wait and retry, so most still arrive (the ones lost
        were at a sender's site when it went down — no agent left to retry)."""
        import random

        def mail_round(crash_probability, seed=3, letters=12):
            sites = [f"office{i}" for i in range(6)]
            mail = MailSystem.build(sites, seed=seed)
            RandomCrasher(crash_probability, window=(0.0, 2.0), recover_after=5.0,
                          protect=[sites[0]], seed=seed).install(mail.kernel)
            rng = random.Random(seed)
            for index in range(letters):
                source, target = rng.sample(sites, 2)
                mail.send(f"user{index}", source, "peer", target, f"letter-{index}",
                          "body", retry_interval=0.5, max_retries=40,
                          delay=0.1 * index)
            mail.kernel.run(until=120.0)
            retries = sum(1 for site in sites for entry in mail.delivery_log(site)
                          if entry["event"] == "retry")
            return mail.delivered_count(), retries

        assert mail_round(0.0) == (12, 0)
        delivered, retries = mail_round(0.6)
        assert retries > 0
        assert delivered >= 6
