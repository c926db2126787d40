"""Unit tests for the broker agent and its cabinet-backed state."""

from __future__ import annotations

import pytest

from repro.core import Briefcase, Folder, Kernel, KernelConfig
from repro.net import lan
from repro.scheduling import (BROKER_AGENT_NAME, BROKER_CABINET, BrokerState,
                              make_broker_behaviour)
from repro.scheduling.monitor import LOAD_REPORT_FOLDER


@pytest.fixture
def kernel():
    kernel = Kernel(lan(["brokerage", "s1", "s2"]), transport="tcp",
                    config=KernelConfig(rng_seed=8))
    kernel.install_agent("brokerage", BROKER_AGENT_NAME, make_broker_behaviour(),
                         replace=True)
    return kernel


def meet_broker(kernel, briefcase, site="brokerage"):
    """Meet the broker with *briefcase* and return (value, briefcase)."""
    box = {}

    def client(ctx, bc):
        result = yield ctx.meet(BROKER_AGENT_NAME, briefcase)
        box["value"] = result.value
        return result.value

    kernel.launch(site, client)
    kernel.run()
    return box["value"], briefcase


def register(kernel, site, capacity=1.0, service="compute"):
    request = Briefcase()
    request.set("OP", "register")
    request.set("SERVICE", service)
    request.set("SITE", site)
    request.set("AGENT", "compute")
    request.set("CAPACITY", capacity)
    return meet_broker(kernel, request)


def report(kernel, site, load, at):
    request = Briefcase()
    request.set("OP", "report")
    request.set("SITE", site)
    request.set("LOAD", load)
    request.set("AT", at)
    return meet_broker(kernel, request)


class TestBrokerOperations:
    def test_register_then_lookup(self, kernel):
        register(kernel, "s1")
        register(kernel, "s2", capacity=2.0)
        request = Briefcase()
        request.set("OP", "lookup")
        request.set("SERVICE", "compute")
        count, briefcase = meet_broker(kernel, request)
        assert count == 2
        sites = {entry["site"] for entry in briefcase.folder("PROVIDERS").elements()}
        assert sites == {"s1", "s2"}

    def test_lookup_of_unknown_service_returns_empty(self, kernel):
        request = Briefcase()
        request.set("OP", "lookup")
        request.set("SERVICE", "teleportation")
        count, briefcase = meet_broker(kernel, request)
        assert count == 0
        assert briefcase.folder("PROVIDERS").elements() == []

    def test_acquire_returns_a_provider_and_counts_assignment(self, kernel):
        register(kernel, "s1")
        request = Briefcase()
        request.set("OP", "acquire")
        request.set("SERVICE", "compute")
        provider, _ = meet_broker(kernel, request)
        assert provider["site"] == "s1"
        state = BrokerState(kernel.site("brokerage").cabinet(BROKER_CABINET))
        assert state.assignments() == {"s1": 1}

    def test_acquire_without_providers_reports_error(self, kernel):
        request = Briefcase()
        request.set("OP", "acquire")
        request.set("SERVICE", "compute")
        provider, briefcase = meet_broker(kernel, request)
        assert provider is None
        assert "no provider" in briefcase.get("ERROR")

    def test_acquire_prefers_less_loaded_provider(self, kernel):
        register(kernel, "s1")
        register(kernel, "s2")
        report(kernel, "s1", load=9.0, at=1.0)
        report(kernel, "s2", load=0.5, at=1.0)
        request = Briefcase()
        request.set("OP", "acquire")
        request.set("SERVICE", "compute")
        provider, _ = meet_broker(kernel, request)
        assert provider["site"] == "s2"

    def test_stale_report_is_ignored(self, kernel):
        report(kernel, "s1", load=1.0, at=5.0)
        fresh, _ = report(kernel, "s1", load=9.0, at=2.0)    # older timestamp
        assert fresh is False
        state = BrokerState(kernel.site("brokerage").cabinet(BROKER_CABINET))
        assert state.loads()["s1"].load == pytest.approx(1.0)

    def test_newer_report_replaces(self, kernel):
        report(kernel, "s1", load=1.0, at=1.0)
        report(kernel, "s1", load=3.0, at=2.0)
        state = BrokerState(kernel.site("brokerage").cabinet(BROKER_CABINET))
        assert state.loads()["s1"].load == pytest.approx(3.0)
        assert state.reports_seen() == 2

    def test_load_report_folder_from_courier_is_absorbed(self, kernel):
        """Monitors deliver LOAD_REPORT folders through the courier path."""
        delivery = Briefcase()
        delivery.add(Folder(LOAD_REPORT_FOLDER,
                            [{"site": "s1", "load": 2.5, "at": 4.0}]))
        absorbed, _ = meet_broker(kernel, delivery)
        assert absorbed == 1
        state = BrokerState(kernel.site("brokerage").cabinet(BROKER_CABINET))
        assert state.loads()["s1"].load == pytest.approx(2.5)

    def test_sync_merges_newer_rows_only(self, kernel):
        report(kernel, "s1", load=1.0, at=5.0)
        request = Briefcase()
        request.set("OP", "sync")
        request.set("LOADS", {
            "s1": {"site": "s1", "load": 9.0, "reported_at": 1.0,
                   "assigned_since_report": 0},
            "s2": {"site": "s2", "load": 2.0, "reported_at": 3.0,
                   "assigned_since_report": 0},
        })
        request.set("PROVIDERS_TABLE", {
            "compute@s2/compute": {"service": "compute", "site": "s2",
                                   "agent_name": "compute", "capacity": 1.0, "price": 0},
        })
        merged, briefcase = meet_broker(kernel, request)
        assert briefcase.get("MERGED") == {"loads": 1, "providers": 1}
        state = BrokerState(kernel.site("brokerage").cabinet(BROKER_CABINET))
        assert state.loads()["s1"].load == pytest.approx(1.0)   # newer local row kept
        assert state.loads()["s2"].load == pytest.approx(2.0)
        assert len(state.providers("compute")) == 1

    def test_dump_exposes_full_state(self, kernel):
        register(kernel, "s1")
        report(kernel, "s1", load=1.0, at=1.0)
        request = Briefcase()
        request.set("OP", "dump")
        export, briefcase = meet_broker(kernel, request)
        assert "providers" in export and "loads" in export
        assert briefcase.get("ASSIGNMENTS") == {}

    def test_unknown_operation_reports_error(self, kernel):
        request = Briefcase()
        request.set("OP", "levitate")
        value, briefcase = meet_broker(kernel, request)
        assert value is None
        assert "unknown broker operation" in briefcase.get("ERROR")


class TestBrokerState:
    def test_provider_rows_are_replaced_by_key(self, kernel):
        state = BrokerState(kernel.site("brokerage").cabinet(BROKER_CABINET))
        from repro.scheduling.policies import ProviderInfo
        state.add_provider(ProviderInfo("compute", "s1", "compute", capacity=1.0))
        state.add_provider(ProviderInfo("compute", "s1", "compute", capacity=4.0))
        providers = state.providers("compute")
        assert len(providers) == 1
        assert providers[0].capacity == 4.0

    def test_note_assignment_updates_effective_load(self, kernel):
        state = BrokerState(kernel.site("brokerage").cabinet(BROKER_CABINET))
        state.record_report("s1", 1.0, at=1.0)
        state.note_assignment("s1")
        state.note_assignment("s1")
        assert state.loads()["s1"].effective_load() == pytest.approx(3.0)
        assert state.assignments()["s1"] == 2

    def test_fresh_report_resets_assignment_counter(self, kernel):
        state = BrokerState(kernel.site("brokerage").cabinet(BROKER_CABINET))
        state.record_report("s1", 1.0, at=1.0)
        state.note_assignment("s1")
        state.record_report("s1", 2.0, at=2.0)
        assert state.loads()["s1"].effective_load() == pytest.approx(2.0)
