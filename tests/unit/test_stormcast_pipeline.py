"""Unit tests for the StormCast pipelines: mobile collector vs client-server baseline."""

from __future__ import annotations

import pytest

from repro.apps.stormcast import (StormCastParams, build_stormcast_kernel, launch_collector,
                                  run_agent_pipeline, run_client_server)
from repro.apps.stormcast.baseline import BASELINE_CABINET
from repro.apps.stormcast.collector import STORMCAST_CABINET
from repro.net import FailureSchedule


SMALL = StormCastParams(n_sensors=4, samples_per_site=60, raw_payload_bytes=200,
                        storm_rate=0.05, seed=19)


class TestAgentPipeline:
    def test_collector_covers_every_sensor_site(self):
        result = run_agent_pipeline(SMALL)
        assert result.sites_covered == SMALL.n_sensors

    def test_collector_filters_most_of_the_data(self):
        result = run_agent_pipeline(SMALL)
        assert result.raw_records_total == SMALL.n_sensors * SMALL.samples_per_site
        assert 0 < result.observations_carried < result.raw_records_total * 0.5

    def test_predictions_are_issued_for_every_station(self):
        result = run_agent_pipeline(SMALL)
        stations = {prediction["station"] for prediction in result.predictions}
        assert stations == set(SMALL.sensor_names())

    def test_collection_summary_recorded_at_hub(self):
        kernel = build_stormcast_kernel(SMALL)
        launch_collector(kernel, SMALL.hub_name, SMALL.sensor_names())
        kernel.run(until=SMALL.run_until)
        summaries = kernel.site(SMALL.hub_name).cabinet(STORMCAST_CABINET).elements(
            "collections")
        assert len(summaries) == 1
        assert summaries[0]["observations"] > 0


class TestClientServerBaseline:
    def test_every_sensor_site_responds(self):
        result = run_client_server(SMALL)
        assert result.sites_covered == SMALL.n_sensors

    def test_all_raw_records_cross_the_network(self):
        result = run_client_server(SMALL)
        assert result.raw_records_total == SMALL.n_sensors * SMALL.samples_per_site

    def test_summary_recorded_at_hub(self):
        result = run_client_server(SMALL)
        assert result.duration > 0

    def test_crashed_sensor_site_never_answers(self):
        params = StormCastParams(n_sensors=4, samples_per_site=30, raw_payload_bytes=100,
                                 seed=19, run_until=120.0,
                                 failures=FailureSchedule().crash("sensor02", at=0.0))
        result = run_client_server(params)
        assert result.sites_covered == params.n_sensors - 1
        assert result.raw_records_total == (params.n_sensors - 1) * params.samples_per_site


class TestComparison:
    def test_agent_pipeline_moves_far_fewer_bytes(self):
        agent = run_agent_pipeline(SMALL)
        server = run_client_server(SMALL)
        assert agent.bytes_on_wire * 3 < server.bytes_on_wire

    def test_both_pipelines_issue_identical_alerts(self):
        agent = run_agent_pipeline(SMALL)
        server = run_client_server(SMALL)
        assert agent.alert_stations() == server.alert_stations()

    def test_savings_grow_with_raw_record_size(self):
        small_payload = StormCastParams(n_sensors=4, samples_per_site=60,
                                        raw_payload_bytes=100, storm_rate=0.05, seed=19)
        big_payload = StormCastParams(n_sensors=4, samples_per_site=60,
                                      raw_payload_bytes=2000, storm_rate=0.05, seed=19)

        def savings(params):
            agent = run_agent_pipeline(params)
            server = run_client_server(params)
            return server.bytes_on_wire / max(1, agent.bytes_on_wire)

        assert savings(big_payload) > savings(small_payload)

    def test_client_server_does_no_migrations(self):
        assert run_client_server(SMALL).migrations == 0
        assert run_agent_pipeline(SMALL).migrations >= SMALL.n_sensors


class TestBuildKernel:
    def test_params_durability_reaches_the_kernel_config_and_params_stay(self):
        import dataclasses
        from repro.apps.stormcast import StormCastParams, build_stormcast_kernel
        params = StormCastParams(n_sensors=3, samples_per_site=20,
                                 durability="wal-group-commit")
        before = dataclasses.asdict(params)
        kernel = build_stormcast_kernel(params)
        assert dataclasses.asdict(params) == before
        assert kernel.config.durability == "wal-group-commit"
        assert kernel.config.rng_seed == params.seed
