"""Unit tests for repro.net.topology: site graphs, routing, partitions."""

from __future__ import annotations

import pickle

import pytest

import repro.net.topology as topology_module
from repro.core.errors import NoRouteError, UnknownSiteError
from repro.net.topology import (LinkSpec, Topology, lan, random_topology, ring, star,
                                switched_fabric, two_clusters)


class TestTopologyBasics:
    def test_add_site_and_contains(self):
        topo = Topology()
        topo.add_site("a")
        assert "a" in topo
        assert "b" not in topo
        assert len(topo) == 1

    def test_add_link_and_neighbors(self):
        topo = Topology()
        topo.add_site("a")
        topo.add_site("b")
        topo.add_link("a", "b", LinkSpec(latency=0.01))
        assert topo.neighbors("a") == ["b"]
        assert topo.link("a", "b").latency == 0.01

    def test_unknown_site_raises(self):
        topo = lan(["a", "b"])
        with pytest.raises(UnknownSiteError):
            topo.neighbors("ghost")
        with pytest.raises(UnknownSiteError):
            topo.path("a", "ghost")

    def test_link_missing_raises(self):
        topo = Topology()
        topo.add_site("a")
        topo.add_site("b")
        with pytest.raises(NoRouteError):
            topo.link("a", "b")

    def test_add_link_creates_sites_not_added_yet(self):
        topo = Topology()
        topo.add_site("a")
        topo.add_link("b", "c")
        assert topo.sites() == ["a", "b", "c"]
        assert topo.neighbors("b") == ["c"] and topo.neighbors("c") == ["b"]

    def test_readding_a_link_replaces_its_spec(self):
        topo = lan(["a", "b", "c"], latency=0.002)
        topo.add_link("b", "a", LinkSpec(latency=0.5))
        assert topo.link("a", "b").latency == topo.link("b", "a").latency == 0.5
        assert topo.neighbors("a") == ["b", "c"]
        assert [(a, b) for a, b, _ in topo.links()] == [("a", "b"), ("a", "c"), ("b", "c")]
        assert topo.path("a", "b") == ["a", "c", "b"]       # the direct link is now the slow way

    def test_links_yields_each_undirected_link_once_with_its_spec(self):
        topo = ring(["a", "b", "c", "d"], latency=0.007)
        listed = list(topo.links())
        assert [(a, b) for a, b, _ in listed] == [("a", "b"), ("a", "d"), ("b", "c"), ("c", "d")]
        assert all(spec is topo.link(a, b) for a, b, spec in listed)

    def test_len_contains_repr_and_insertion_order(self):
        topo = Topology()
        for name in ("zeta", "alpha", "mid"):
            topo.add_site(name)
        topo.add_site("alpha")                              # adding again changes nothing
        topo.add_link("mid", "zeta")
        topo.mark_down("zeta")
        assert topo.sites() == ["zeta", "alpha", "mid"]
        assert len(topo) == 3
        assert "alpha" in topo and "ghost" not in topo
        assert repr(topo) == "Topology(3 sites, 1 links, down=['zeta'])"

    def test_pickle_round_trip(self):
        # The process shard backend ships one Topology to every worker.
        topo = two_clusters(["t1", "t2", "t3"], ["c1", "c2"])
        topo.mark_down("t3")
        topo.set_partition([["t1"], ["c2"]])
        topo.path_cost("t2", "c1", 100)
        copy = pickle.loads(pickle.dumps(topo))
        assert copy.sites() == topo.sites()
        assert ([(a, b, vars(spec)) for a, b, spec in copy.links()]
                == [(a, b, vars(spec)) for a, b, spec in topo.links()])
        assert copy.is_down("t3") and copy.partitioned("t1", "c2")
        assert copy.path("t2", "c2") == topo.path("t2", "c2")
        assert copy.path_cost("t2", "c1", 100) == topo.path_cost("t2", "c1", 100)


class TestRouting:
    def test_path_to_self_is_trivial(self):
        topo = lan(["a", "b"])
        assert topo.path("a", "a") == ["a"]
        assert topo.path_cost("a", "a", 1000) == (0.0, 0, 0.0)

    def test_direct_path(self):
        topo = lan(["a", "b", "c"])
        assert topo.path("a", "b") == ["a", "b"]

    def test_multi_hop_path_on_ring(self):
        topo = ring(["a", "b", "c", "d"])
        path = topo.path("a", "c")
        assert path[0] == "a" and path[-1] == "c"
        assert len(path) == 3   # two hops either way round the ring

    def test_equal_latency_routes_resolve_by_construction_order(self):
        # a-b-c and a-d-c cost the same; the route goes by whichever of a's
        # links was added first, whatever the sites are called.
        for first, second in (("b", "d"), ("d", "b")):
            topo = Topology()
            for mid in (first, second):
                topo.add_link("a", mid)
                topo.add_link(mid, "c")
            assert topo.path("a", "c") == ["a", first, "c"]
            assert topo.path("c", "a") == ["c", first, "a"]

    def test_path_cost_scales_with_size(self):
        topo = lan(["a", "b"], latency=0.01, bandwidth=1000.0)
        small, hops_small, _ = topo.path_cost("a", "b", 100)
        large, hops_large, _ = topo.path_cost("a", "b", 10_000)
        assert hops_small == hops_large == 1
        assert large > small
        assert small == pytest.approx(0.01 + 100 / 1000.0)

    def test_path_cost_reports_worst_loss(self):
        topo = Topology()
        for name in ("a", "b", "c"):
            topo.add_site(name)
        topo.add_link("a", "b", LinkSpec(loss_rate=0.0))
        topo.add_link("b", "c", LinkSpec(loss_rate=0.25))
        _, hops, loss = topo.path_cost("a", "c", 10)
        assert hops == 2
        assert loss == 0.25

    def test_can_communicate(self):
        topo = lan(["a", "b"])
        assert topo.can_communicate("a", "b")
        topo.mark_down("b")
        assert not topo.can_communicate("a", "b")

    def test_a_miss_on_a_large_fabric_settles_a_small_share_of_the_sites(self, monkeypatch):
        # Counts, not time: a route miss must not visit the whole graph.  One
        # site is settled per heap pop, so counting pops bounds the settles.
        hosts = [f"h{i:04d}" for i in range(2000)]
        topo = switched_fabric(hosts)
        heappop = topology_module.heappop
        pops = []

        def counting_pop(heap):
            pops.append(1)
            return heappop(heap)

        monkeypatch.setattr(topology_module, "heappop", counting_pop)
        assert topo.path("h0017", "h1983") == ["h0017", "sw00", "sw39", "h1983"]
        assert 0 < len(pops) < len(topo) // 10

    def test_a_host_to_host_search_settles_switches_not_hosts(self, monkeypatch):
        # A host has one link, so no route passes through one: a search
        # pushes no host but its own two ends, and pops at most the switches
        # from each side plus the ends.  Searching host by host popped ~194.
        hosts = [f"h{i:04d}" for i in range(2000)]
        topo = switched_fabric(hosts, hosts_per_switch=100)
        switches = len(topo) - len(hosts)
        heappop = topology_module.heappop
        pops = []

        def counting_pop(heap):
            pops.append(1)
            return heappop(heap)

        monkeypatch.setattr(topology_module, "heappop", counting_pop)
        for a, b in (("h0000", "h0099"), ("h0000", "h0100"), ("h0517", "h1983"),
                     ("h1999", "h0042"), ("h1234", "h1235")):
            pops.clear()
            route = topo.path(a, b)
            assert route[0] == a and route[-1] == b and len(route) in (3, 4)
            assert len(pops) <= 2 * switches + 4, (a, b, len(pops))


class TestFailuresAndPartitions:
    def test_down_site_breaks_routes(self):
        topo = ring(["a", "b", "c", "d"])
        topo.mark_down("b")
        assert topo.is_down("b")
        path = topo.path("a", "c")          # still reachable the other way
        assert "b" not in path
        topo.mark_down("d")
        with pytest.raises(NoRouteError):
            topo.path("a", "c")

    def test_mark_up_restores(self):
        topo = lan(["a", "b"])
        topo.mark_down("b")
        topo.mark_up("b")
        assert topo.can_communicate("a", "b")

    def test_partition_blocks_cross_group_traffic(self):
        topo = lan(["a", "b", "c", "d"])
        topo.set_partition([["a", "b"], ["c", "d"]])
        assert topo.partitioned("a", "c")
        assert not topo.partitioned("a", "b")
        with pytest.raises(NoRouteError):
            topo.path("a", "d")
        assert topo.path("a", "b")

    def test_sites_outside_partition_groups_keep_connectivity(self):
        topo = lan(["a", "b", "c"])
        topo.set_partition([["a"], ["b"]])
        assert not topo.partitioned("a", "c")
        assert topo.can_communicate("a", "c")

    def test_heal_partition(self):
        topo = lan(["a", "b", "c", "d"])
        topo.set_partition([["a", "b"], ["c", "d"]])
        topo.heal_partition()
        assert topo.can_communicate("a", "c")


class TestCannedTopologies:
    def test_lan_is_fully_connected(self):
        topo = lan(["a", "b", "c", "d"])
        for site in topo.sites():
            assert len(topo.neighbors(site)) == 3

    def test_ring_has_two_neighbors_each(self):
        topo = ring([f"s{i}" for i in range(5)])
        for site in topo.sites():
            assert len(topo.neighbors(site)) == 2

    def test_ring_of_two_sites(self):
        topo = ring(["a", "b"])
        assert topo.neighbors("a") == ["b"]

    def test_star_hub_connects_to_all_leaves(self):
        topo = star("hub", ["l1", "l2", "l3"])
        assert sorted(topo.neighbors("hub")) == ["l1", "l2", "l3"]
        assert topo.neighbors("l1") == ["hub"]

    def test_two_clusters_has_single_wan_link(self):
        topo = two_clusters(["t1", "t2"], ["c1", "c2"], wan_latency=0.1)
        # The WAN link joins the first site of each cluster.
        assert topo.link("t1", "c1").latency == 0.1
        # Cross-cluster traffic from non-gateway sites routes through the gateways.
        path = topo.path("t2", "c2")
        assert path[0] == "t2" and path[-1] == "c2"
        assert "t1" in path and "c1" in path

    def test_random_topology_is_connected(self):
        for seed in range(5):
            topo = random_topology(12, edge_probability=0.1, seed=seed)
            sites = topo.sites()
            assert len(sites) == 12
            for destination in sites[1:]:
                assert topo.can_communicate(sites[0], destination)

    def test_random_topology_is_deterministic_per_seed(self):
        a = random_topology(10, edge_probability=0.3, seed=7)
        b = random_topology(10, edge_probability=0.3, seed=7)
        edges_a = {(u, v) for u in a.sites() for v in a.neighbors(u)}
        edges_b = {(u, v) for u in b.sites() for v in b.neighbors(u)}
        assert edges_a == edges_b
