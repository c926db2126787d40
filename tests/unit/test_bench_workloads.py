"""Unit tests for the shared benchmark workloads (gathering and itineraries)."""

from __future__ import annotations

import pytest

from repro.bench import (DataGatherParams, HighPopulationParams, ItineraryParams,
                         build_gather_kernel, execute_high_population,
                         populate_data_sites, ratio, run_agent_gather,
                         run_client_server_gather, run_high_population, run_itinerary)
from repro.bench.workloads import DATA_CABINET, RECORDS_FOLDER


SMALL = DataGatherParams(n_sites=4, records_per_site=40, record_bytes=200,
                         selectivity=0.1, seed=23)


class TestPopulation:
    def test_populate_counts_relevant_records(self):
        kernel = build_gather_kernel(SMALL)
        total = 0
        for site in SMALL.data_site_names():
            records = kernel.site(site).cabinet(DATA_CABINET).elements(RECORDS_FOLDER)
            assert len(records) == SMALL.records_per_site
            total += sum(1 for record in records if record["relevant"])
        assert 0 < total < SMALL.n_sites * SMALL.records_per_site

    def test_population_is_deterministic_per_seed(self):
        kernel_a = build_gather_kernel(SMALL)
        kernel_b = build_gather_kernel(SMALL)
        site = SMALL.data_site_names()[0]
        ids_a = [record["id"] for record in
                 kernel_a.site(site).cabinet(DATA_CABINET).elements(RECORDS_FOLDER)
                 if record["relevant"]]
        ids_b = [record["id"] for record in
                 kernel_b.site(site).cabinet(DATA_CABINET).elements(RECORDS_FOLDER)
                 if record["relevant"]]
        assert ids_a == ids_b

    def test_populate_returns_planted_count(self):
        kernel = build_gather_kernel(DataGatherParams(n_sites=2, records_per_site=10,
                                                      selectivity=0.0, seed=1))
        planted = populate_data_sites(kernel, ["data00"], 50, 10, selectivity=1.0, seed=2)
        assert planted == 50


class TestTopologyKinds:
    @pytest.mark.parametrize("kind", ["star", "lan", "ring", "two_clusters"])
    def test_every_topology_kind_builds_and_runs(self, kind):
        params = DataGatherParams(n_sites=4, records_per_site=10, record_bytes=50,
                                  selectivity=0.2, topology=kind, seed=5)
        result = run_agent_gather(params)
        assert result.sites_covered == 4

    def test_unknown_topology_raises(self):
        with pytest.raises(ValueError):
            run_agent_gather(DataGatherParams(topology="moebius"))


class TestGatherModes:
    def test_both_modes_find_the_same_relevant_records(self):
        agent = run_agent_gather(SMALL)
        server = run_client_server_gather(SMALL)
        assert agent.relevant_found == server.relevant_found > 0

    def test_agent_mode_moves_fewer_bytes(self):
        agent = run_agent_gather(SMALL)
        server = run_client_server_gather(SMALL)
        assert agent.bytes_on_wire < server.bytes_on_wire

    def test_agent_mode_migrates_client_server_does_not(self):
        assert run_agent_gather(SMALL).migrations > 0
        assert run_client_server_gather(SMALL).migrations == 0

    def test_record_counts_are_reported(self):
        agent = run_agent_gather(SMALL)
        assert agent.records_total == SMALL.n_sites * SMALL.records_per_site
        server = run_client_server_gather(SMALL)
        assert server.records_total == SMALL.n_sites * SMALL.records_per_site

    def test_zero_selectivity_yields_nothing_but_still_covers_sites(self):
        params = DataGatherParams(n_sites=3, records_per_site=20, selectivity=0.0, seed=3)
        agent = run_agent_gather(params)
        assert agent.relevant_found == 0
        assert agent.sites_covered == 3

    @pytest.mark.parametrize("record_bytes", [128, 512, 2048])
    def test_agent_advantage_falls_with_selectivity_to_a_crossover(self, record_bytes):
        """Paper section 1: moving the agent saves bandwidth when little of
        the data is relevant.  The advantage (server bytes / agent bytes) is
        large at 1% selectivity, shrinks as more records are relevant, and
        is gone when everything is: the agent then carries all it gathered
        from site to site."""
        def advantage(selectivity):
            params = DataGatherParams(n_sites=8, records_per_site=100,
                                      record_bytes=record_bytes,
                                      selectivity=selectivity, seed=13)
            return ratio(run_client_server_gather(params).bytes_on_wire,
                         run_agent_gather(params).bytes_on_wire)

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
        result = run_itinerary(ItineraryParams(transport=transport, hops=5,
                                               payload_bytes=512, n_sites=6))
        assert result.hops_completed == 5
        assert result.duration > 0
        assert result.mean_hop_time > 0

    def test_rsh_hops_are_slowest(self):
        results = {transport: run_itinerary(ItineraryParams(transport=transport, hops=6,
                                                            payload_bytes=512))
                   for transport in ("rsh", "tcp", "horus")}
        assert results["rsh"].mean_hop_time > results["tcp"].mean_hop_time
        assert results["rsh"].mean_hop_time > results["horus"].mean_hop_time

    def test_bigger_payload_means_more_bytes(self):
        small = run_itinerary(ItineraryParams(transport="tcp", hops=4, payload_bytes=100))
        large = run_itinerary(ItineraryParams(transport="tcp", hops=4, payload_bytes=50_000))
        assert large.migration_bytes > small.migration_bytes
        assert large.mean_hop_time > small.mean_hop_time

    def test_more_hops_take_longer(self):
        short = run_itinerary(ItineraryParams(transport="tcp", hops=3))
        long = run_itinerary(ItineraryParams(transport="tcp", hops=12))
        assert long.duration > short.duration
        assert long.hops_completed == 12


class TestHighPopulation:
    SMALL = HighPopulationParams(n_sites=6, n_agents=300, wave_size=60,
                                 work_seconds=0.02, seed=9)

    def test_every_agent_completes(self):
        result = run_high_population(self.SMALL)
        assert result.agents_launched == 300
        assert result.agents_completed == 300
        assert result.sim_seconds > 0

    def test_balancer_spreads_the_population(self):
        result = run_high_population(self.SMALL)
        # Perfectly divisible workload on identical sites: near-even spread.
        assert result.placement_spread <= 2
        assert result.load_queries == 300 * 6

    def test_index_is_clean_after_the_run(self):
        kernel, result = execute_high_population(self.SMALL)
        for name in kernel.site_names():
            assert kernel.agents_at(name) == []
            assert kernel.site(name).resident_count() == 0
        assert result.peak_residents > 0
