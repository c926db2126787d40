"""Unit tests for the fault-tolerance extensions: Horus-assisted rear guards
and parallel StormCast collectors (the optional / future-work features)."""

from __future__ import annotations

import pytest

from repro.apps.stormcast import StormCastParams, run_agent_pipeline
from repro.core import Kernel, KernelConfig
from repro.core.errors import FaultToleranceError
from repro.fault import (GUARD_GROUP, REARGUARD_CABINET, SUSPICIONS_FOLDER, completions,
                         install_horus_guard_detection, launch_ft_computation)
from repro.net import FailureSchedule, ring


def make_horus_kernel(seed=3, sites=6):
    names = [f"s{i}" for i in range(sites)]
    kernel = Kernel(ring(names), transport="horus", config=KernelConfig(rng_seed=seed))
    for index, name in enumerate(names):
        kernel.site(name).cabinet("data").put("VALUE", index)
    return kernel, names


class TestHorusGuardDetection:
    def test_requires_the_horus_transport(self):
        kernel = Kernel(ring(["a", "b", "c"]), transport="tcp")
        with pytest.raises(FaultToleranceError):
            install_horus_guard_detection(kernel)

    def test_creates_the_site_group(self):
        kernel, names = make_horus_kernel()
        install_horus_guard_detection(kernel)
        assert kernel.transport.has_group(GUARD_GROUP)
        assert set(kernel.transport.group_view(GUARD_GROUP).members) == set(names)

    def test_is_idempotent(self):
        kernel, _ = make_horus_kernel()
        install_horus_guard_detection(kernel)
        install_horus_guard_detection(kernel)   # second call must not blow up

    def test_double_install_does_not_duplicate_suspicions(self):
        # Regression: a second install used to subscribe a second observer
        # per site, doubling every suspicion record.
        kernel, names = make_horus_kernel()
        install_horus_guard_detection(kernel)
        install_horus_guard_detection(kernel)
        kernel.loop.schedule(0.5, lambda: kernel.crash_site("s2"))
        kernel.run(until=2.0)
        for name in names:
            if name == "s2":
                continue
            cabinet = kernel.site(name).cabinet(REARGUARD_CABINET)
            suspects = [record["site"] for record in cabinet.elements(SUSPICIONS_FOLDER)]
            assert suspects.count("s2") == 1, name

    def test_every_founding_site_sees_exactly_the_crashed_member_down(self):
        # The group is the sites fixed at construction: each survivor's
        # group_down names the crashed site and no stale member.
        kernel, names = make_horus_kernel()
        install_horus_guard_detection(kernel)
        kernel.loop.schedule(0.5, lambda: kernel.crash_site("s2"))
        kernel.run(until=2.0)
        for name in names:
            if name == "s2":
                continue
            cabinet = kernel.site(name).cabinet(REARGUARD_CABINET)
            assert list(cabinet.get("group_down") or []) == ["s2"], name

    def test_observers_do_not_share_membership_baselines(self):
        # Each site's observer must diff against its own last-seen view; a
        # shared baseline set let one site's update stand in for all.
        kernel, names = make_horus_kernel(sites=4)
        install_horus_guard_detection(kernel)
        kernel.loop.schedule(0.3, lambda: kernel.crash_site("s1"))
        kernel.loop.schedule(0.9, lambda: kernel.crash_site("s2"))
        kernel.run(until=3.0)
        for name in ("s0", "s3"):
            cabinet = kernel.site(name).cabinet(REARGUARD_CABINET)
            suspects = [record["site"] for record in cabinet.elements(SUSPICIONS_FOLDER)]
            assert suspects.count("s1") == 1, name
            assert suspects.count("s2") == 1, name
            assert sorted(cabinet.get("group_down") or []) == ["s1", "s2"], name

    def test_crash_is_recorded_as_a_suspicion_at_surviving_sites(self):
        kernel, names = make_horus_kernel()
        install_horus_guard_detection(kernel)
        kernel.loop.schedule(0.5, lambda: kernel.crash_site("s2"))
        kernel.run(until=2.0)
        survivors = [name for name in names if name != "s2"]
        for name in survivors:
            cabinet = kernel.site(name).cabinet(REARGUARD_CABINET)
            suspects = [record["site"] for record in cabinet.elements(SUSPICIONS_FOLDER)]
            assert "s2" in suspects
            assert "s2" in (cabinet.get("group_down") or [])

    def test_view_assisted_recovery_is_faster_than_timeout(self):
        def completion_time(view_assisted):
            kernel, names = make_horus_kernel()
            if view_assisted:
                install_horus_guard_detection(kernel)
            ft_id = launch_ft_computation(kernel, "s0", names[1:], per_hop=0.6,
                                          work_seconds=0.05, view_assisted=view_assisted)
            FailureSchedule().crash("s3", at=0.05).recover("s3", at=100.0).install(kernel)
            kernel.run(until=200.0)
            records = completions(kernel, names[-1], ft_id)
            assert len(records) == 1
            return records[0]["completed_at"]

        assert completion_time(True) < completion_time(False)

    def test_view_assistance_without_failures_changes_nothing(self):
        kernel, names = make_horus_kernel()
        install_horus_guard_detection(kernel)
        ft_id = launch_ft_computation(kernel, "s0", names[1:], per_hop=0.5,
                                      view_assisted=True)
        kernel.run(until=60.0)
        records = completions(kernel, names[-1], ft_id)
        assert len(records) == 1
        assert records[0]["relaunched"] is False


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
