"""Unit tests for the seeded scenarios: gathering, itineraries, couriers,
high population."""

from __future__ import annotations

import pytest

from scenarios import (DATA_CABINET, MAIL_CABINET, RECORDS_FOLDER, agent_gather,
                       client_server_gather, courier_fan_in, data_sites, gather_kernel,
                       gather_summary, high_population, itinerary, populate_data_sites,
                       sharded_churn)

SMALL = dict(n_sites=4, records_per_site=40, record_bytes=200, selectivity=0.1, seed=23)


def relevant_ids(kernel, site):
    return [record["id"] for record in
            kernel.site(site).cabinet(DATA_CABINET).elements(RECORDS_FOLDER)
            if record["relevant"]]


class TestPopulation:
    def test_populate_counts_relevant_records(self):
        kernel = gather_kernel(**SMALL)
        total = 0
        for site in data_sites(kernel):
            records = kernel.site(site).cabinet(DATA_CABINET).elements(RECORDS_FOLDER)
            assert len(records) == SMALL["records_per_site"]
            total += len(relevant_ids(kernel, site))
        assert 0 < total < SMALL["n_sites"] * SMALL["records_per_site"]

    def test_population_is_deterministic_per_seed(self):
        kernel_a, kernel_b = gather_kernel(**SMALL), gather_kernel(**SMALL)
        assert relevant_ids(kernel_a, "data00") == relevant_ids(kernel_b, "data00")

    def test_populate_returns_planted_count(self):
        kernel = gather_kernel(n_sites=2, records_per_site=10, selectivity=0.0, seed=1)
        planted = populate_data_sites(kernel, ["data00"], 50, 10, selectivity=1.0, seed=2)
        assert planted == 50


class TestTopologyKinds:
    @pytest.mark.parametrize("kind", ["star", "lan", "ring", "two_clusters"])
    def test_every_topology_kind_builds_and_runs(self, kind):
        kernel = agent_gather(n_sites=4, records_per_site=10, record_bytes=50,
                              selectivity=0.2, topology=kind, seed=5)
        assert gather_summary(kernel)["sites_covered"] == 4

    def test_unknown_topology_raises(self):
        with pytest.raises(ValueError):
            agent_gather(topology="moebius")


class TestGatherModes:
    def test_both_modes_find_the_same_relevant_records(self):
        agent = gather_summary(agent_gather(**SMALL))
        server = gather_summary(client_server_gather(**SMALL))
        assert agent["relevant_found"] == server["relevant_found"] > 0

    def test_agent_mode_moves_fewer_bytes(self):
        agent, server = agent_gather(**SMALL), client_server_gather(**SMALL)
        assert agent.stats.bytes_sent < server.stats.bytes_sent

    def test_agent_mode_migrates_client_server_does_not(self):
        assert agent_gather(**SMALL).stats.migrations > 0
        assert client_server_gather(**SMALL).stats.migrations == 0

    def test_record_counts_are_reported(self):
        total = SMALL["n_sites"] * SMALL["records_per_site"]
        assert gather_summary(agent_gather(**SMALL))["records_total"] == total
        assert gather_summary(client_server_gather(**SMALL))["records_total"] == total

    def test_zero_selectivity_yields_nothing_but_still_covers_sites(self):
        summary = gather_summary(agent_gather(n_sites=3, records_per_site=20,
                                              selectivity=0.0, seed=3))
        assert summary["relevant_found"] == 0
        assert summary["sites_covered"] == 3

    @pytest.mark.parametrize("record_bytes", [128, 512, 2048])
    def test_agent_advantage_falls_with_selectivity_to_a_crossover(self, record_bytes):
        """Paper section 1: moving the agent saves bandwidth when little of
        the data is relevant.  The advantage (server bytes / agent bytes) is
        large at 1% selectivity, shrinks as more records are relevant, and
        is gone when everything is: the agent then carries all it gathered
        from site to site."""
        def advantage(selectivity):
            params = dict(n_sites=8, records_per_site=100, record_bytes=record_bytes,
                          selectivity=selectivity, seed=13)
            return (client_server_gather(**params).stats.bytes_sent
                    / agent_gather(**params).stats.bytes_sent)

        factors = {selectivity: advantage(selectivity)
                   for selectivity in (0.01, 0.05, 0.5, 1.0)}
        assert factors[0.01] > 8
        if record_bytes >= 512:
            assert factors[0.05] > 3
        assert factors[0.01] > factors[0.05] > factors[0.5] > factors[1.0]
        assert factors[1.0] < 2.0


class TestItineraries:
    @pytest.mark.parametrize("transport", ["rsh", "tcp", "horus"])
    def test_itinerary_completes_on_every_transport(self, transport):
        kernel, mean_hop_time = itinerary(transport=transport, hops=5, payload_bytes=512,
                                          n_sites=6)
        assert kernel.stats.migrations == 5
        assert kernel.now > 0
        assert mean_hop_time > 0

    def test_rsh_hops_are_slowest(self):
        hop_time = {transport: itinerary(transport=transport, hops=6, payload_bytes=512)[1]
                    for transport in ("rsh", "tcp", "horus")}
        assert hop_time["rsh"] > hop_time["tcp"]
        assert hop_time["rsh"] > hop_time["horus"]

    def test_bigger_payload_means_more_bytes(self):
        small, small_hop = itinerary(hops=4, payload_bytes=100)
        large, large_hop = itinerary(hops=4, payload_bytes=50_000)
        assert large.stats.migration_bytes > small.stats.migration_bytes
        assert large_hop > small_hop

    def test_more_hops_take_longer(self):
        short, _ = itinerary(hops=3)
        long, _ = itinerary(hops=12)
        assert long.now > short.now
        assert long.stats.migrations == 12


class TestCouriers:
    def test_the_hub_sink_files_every_report_with_its_sender(self):
        kernel, events = courier_fan_in(n_senders=3, deliveries_per_sender=4,
                                        payload_bytes=32, link_latency=0.002)
        received = kernel.site("hub").cabinet(MAIL_CABINET).elements("received")
        assert sorted(report["from"] for report in received) == sorted(
            f"sender{index:02d}" for index in range(3) for _ in range(4))
        assert events > 0

    def test_sharded_churn_reports_cross_shards_and_all_arrive(self):
        kernel, _events = sharded_churn(shards=2, backend="inproc", n_sites=8,
                                        n_agents=24, wave_size=8, seed=5)
        filed = sum(len(kernel.site(name).cabinet(MAIL_CABINET).elements("received"))
                    for name in kernel.site_names())
        assert filed == 24
        assert kernel.stats.shard_handoffs > 0
        kernel.close()


class TestHighPopulation:
    SMALL = dict(n_sites=6, n_agents=300, wave_size=60, work_seconds=0.02, seed=9)

    def test_every_agent_completes(self):
        kernel, _spread, _peak, _probes = high_population(**self.SMALL)
        assert kernel.counters()["launched"] == 300
        assert kernel.counters()["completed"] == 300
        assert kernel.now > 0

    def test_balancer_spreads_the_population(self):
        _kernel, spread, _peak, probes = high_population(**self.SMALL)
        # Perfectly divisible workload on identical sites: near-even spread.
        assert spread <= 2
        assert probes == 300 * 6

    def test_index_is_clean_after_the_run(self):
        kernel, _spread, peak, _probes = high_population(**self.SMALL)
        for name in kernel.site_names():
            assert kernel.site(name).residents() == []
            assert kernel.site(name).resident_count() == 0
        assert peak > 0
