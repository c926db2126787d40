"""Unit tests for parallel StormCast collectors: the sensor sites split
round-robin across several itinerant collectors, which cover every site once,
issue the alerts one collector does, and finish the forecast sooner."""

from __future__ import annotations

import pytest

from repro.apps.stormcast import StormCastParams, run_agent_pipeline
from repro.core import Kernel, KernelConfig
from repro.net import ring


class TestParallelCollectors:
    PARAMS = StormCastParams(n_sensors=6, samples_per_site=80, raw_payload_bytes=200,
                             storm_rate=0.05, seed=27)

    def test_invalid_collector_count_raises(self):
        from repro.apps.stormcast.collector import launch_collectors
        kernel = Kernel(ring(["hub", "a"]), config=KernelConfig(rng_seed=1))
        with pytest.raises(ValueError):
            launch_collectors(kernel, "hub", ["a"], n_collectors=0)

    def test_parallel_collectors_cover_every_site_once(self):
        result = run_agent_pipeline(self.PARAMS, n_collectors=3)
        assert result.sites_covered == self.PARAMS.n_sensors

    def test_parallel_collectors_issue_the_same_alerts(self):
        single = run_agent_pipeline(self.PARAMS, n_collectors=1)
        parallel = run_agent_pipeline(self.PARAMS, n_collectors=3)
        assert single.alert_stations() == parallel.alert_stations()

    def test_parallel_collectors_shorten_the_forecast_time(self):
        single = run_agent_pipeline(self.PARAMS, n_collectors=1)
        parallel = run_agent_pipeline(self.PARAMS, n_collectors=3)
        assert parallel.duration < single.duration

    def test_parallel_collectors_cost_few_extra_bytes(self):
        # Each collector carries only its own partition's evidence; what
        # grows with the count is one hub delivery per collector.
        single = run_agent_pipeline(self.PARAMS, n_collectors=1)
        parallel = run_agent_pipeline(self.PARAMS, n_collectors=6)
        assert parallel.bytes_on_wire < 2 * single.bytes_on_wire

    def test_more_collectors_than_sites_is_capped(self):
        result = run_agent_pipeline(self.PARAMS, n_collectors=50)
        assert result.sites_covered == self.PARAMS.n_sensors
