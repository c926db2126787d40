"""Unit tests for the client-server pull baseline of the gathering scenario."""

from __future__ import annotations

import pytest

from repro.core import Briefcase, Folder, Kernel, KernelConfig
from repro.net import FailureSchedule, lan
from scenarios import (DATA_CABINET, DATA_SERVER_NAME, GATHER_CABINET, HOME, RECORDS_FOLDER,
                       data_sites, gather_kernel, gather_summary, install_data_servers,
                       launch_pull_client)

PARAMS = dict(n_sites=3, records_per_site=20, record_bytes=100, selectivity=0.2, seed=9,
              topology="lan")


@pytest.fixture
def kernel():
    kernel = gather_kernel(**PARAMS)
    install_data_servers(kernel)
    return kernel


class TestDataServer:
    def test_request_without_home_is_ignored(self, kernel):
        def client(ctx, bc):
            result = yield ctx.meet(DATA_SERVER_NAME, Briefcase())
            return result.value

        agent_id = kernel.launch("data00", client)
        kernel.run()
        assert kernel.result_of(agent_id) == 0
        assert kernel.stats.messages_sent == 0

    def test_served_records_are_tagged_with_their_origin(self, kernel):
        request = Folder("REQUEST", [{"home": HOME}])

        def requester(ctx, bc):
            result = yield ctx.send_folder(request, "data01", DATA_SERVER_NAME)
            return result.value

        kernel.launch(HOME, requester)
        kernel.run()
        cabinet = kernel.site(HOME).cabinet(GATHER_CABINET)
        assert cabinet.elements("responded") == ["data01"]
        assert len(cabinet.elements("raw")) == PARAMS["records_per_site"]


class TestPullClient:
    def test_full_pull_gathers_everything(self, kernel):
        launch_pull_client(kernel)
        kernel.run(until=600.0)
        summary = gather_summary(kernel)
        assert summary["sites_covered"] == PARAMS["n_sites"]
        assert summary["records_total"] == PARAMS["n_sites"] * PARAMS["records_per_site"]
        assert summary["relevant_found"] > 0

    def test_pull_summary_empty_before_any_run(self):
        kernel = Kernel(lan([HOME]), config=KernelConfig(rng_seed=1))
        assert gather_summary(kernel) == {}

    def test_crashed_data_site_is_reported_as_missing(self, kernel):
        FailureSchedule().crash("data02", at=0.0).install(kernel)
        launch_pull_client(kernel, poll_interval=0.05, max_polls=20)
        kernel.run(until=600.0)
        summary = gather_summary(kernel)
        assert summary["sites_covered"] == PARAMS["n_sites"] - 1
        assert summary["records_total"] == (PARAMS["n_sites"] - 1) * PARAMS["records_per_site"]
        # The client burned its poll budget waiting for the dead site.
        assert summary["polls"] == 20

    def test_pull_does_not_modify_the_data_sites(self, kernel):
        def sizes():
            return {site: len(kernel.site(site).cabinet(DATA_CABINET).folder(RECORDS_FOLDER))
                    for site in data_sites(kernel)}

        before = sizes()
        launch_pull_client(kernel)
        kernel.run(until=600.0)
        assert sizes() == before
