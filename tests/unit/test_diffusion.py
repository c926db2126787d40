"""Unit tests for the diffusion (controlled flooding) agent and its naive cousin."""

from __future__ import annotations

import pytest

from repro.core import Briefcase, Kernel, KernelConfig
from repro.net import lan, random_topology, ring
from repro.sysagents.diffusion import DIFFUSION_CABINET, VISITED_FOLDER


def covered_sites(kernel, payload="payload"):
    """Sites whose diffusion cabinet received the payload."""
    return sorted(
        name for name in kernel.site_names()
        if kernel.site(name).cabinet(DIFFUSION_CABINET).get("PAYLOAD") == payload
    )


def launch_diffusion(kernel, origin, payload="payload", task=None):
    briefcase = Briefcase()
    briefcase.set("PAYLOAD", payload)
    if task is not None:
        briefcase.set("TASK", task)
    kernel.launch(origin, "diffusion", briefcase)


class TestDiffusion:
    def test_covers_a_fully_connected_lan(self):
        kernel = Kernel(lan([f"s{i}" for i in range(5)]), config=KernelConfig(rng_seed=1))
        launch_diffusion(kernel, "s0")
        kernel.run()
        assert covered_sites(kernel) == sorted(kernel.site_names())

    def test_covers_a_ring(self):
        kernel = Kernel(ring([f"s{i}" for i in range(8)]), config=KernelConfig(rng_seed=1))
        launch_diffusion(kernel, "s0")
        kernel.run()
        assert covered_sites(kernel) == sorted(kernel.site_names())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_covers_random_connected_topologies(self, seed):
        topo = random_topology(14, edge_probability=0.2, seed=seed)
        kernel = Kernel(topo, config=KernelConfig(rng_seed=seed))
        launch_diffusion(kernel, topo.sites()[0])
        kernel.run()
        assert covered_sites(kernel) == sorted(kernel.site_names())

    def test_population_is_bounded_by_visit_records(self):
        """The point of the site-local SITES folder: no unbounded cloning."""
        topo = random_topology(10, edge_probability=0.5, seed=4)
        kernel = Kernel(topo, config=KernelConfig(rng_seed=4))
        launch_diffusion(kernel, topo.sites()[0])
        kernel.run()
        n = len(topo.sites())
        # One delivery per site; migrations bounded well below the
        # exponential blow-up of unchecked flooding.
        assert kernel.stats.migrations <= n * n

    def test_visit_recorded_in_site_local_folder(self):
        kernel = Kernel(lan(["a", "b", "c"]), config=KernelConfig(rng_seed=1))
        launch_diffusion(kernel, "a")
        kernel.run()
        for name in kernel.site_names():
            cabinet = kernel.site(name).cabinet(DIFFUSION_CABINET)
            assert cabinet.contains_element(VISITED_FOLDER, name)

    def test_duplicate_arrival_terminates_quietly(self):
        kernel = Kernel(lan(["a", "b", "c"]), config=KernelConfig(rng_seed=1))
        # Pre-mark site b as visited; the wave must still cover a and c and
        # must not redeliver at b.
        kernel.site("b").cabinet(DIFFUSION_CABINET).put(VISITED_FOLDER, "b")
        launch_diffusion(kernel, "a")
        kernel.run()
        assert "b" not in covered_sites(kernel)
        assert "a" in covered_sites(kernel)
        assert "c" in covered_sites(kernel)

    def test_task_agent_runs_at_each_covered_site(self):
        kernel = Kernel(lan(["a", "b", "c"]), config=KernelConfig(rng_seed=1))

        def announce(ctx, bc):
            ctx.cabinet("announcements").put("seen", bc.get("PAYLOAD"))
            yield ctx.sleep(0)

        kernel.install_agent(None, "announce", announce, replace=True)
        launch_diffusion(kernel, "a", payload="storm", task="announce")
        kernel.run()
        for name in kernel.site_names():
            assert kernel.site(name).cabinet("announcements").get("seen") == "storm"

    def test_crashed_site_is_not_covered_but_wave_continues(self):
        kernel = Kernel(ring([f"s{i}" for i in range(6)]), config=KernelConfig(rng_seed=1))
        kernel.crash_site("s2")
        launch_diffusion(kernel, "s0")
        kernel.run()
        covered = covered_sites(kernel)
        assert "s2" not in covered
        # The ring is cut at s2, but the wave still reaches everything
        # reachable the other way round.
        assert set(covered) == {"s0", "s1", "s3", "s4", "s5"}


class TestNaiveFlood:
    def test_generates_more_transfers_than_diffusion(self):
        """Paper section 2: visit records bound the agent population."""
        topo = random_topology(8, edge_probability=0.6, seed=9)
        origin = topo.sites()[0]

        kernel_diffusion = Kernel(topo, config=KernelConfig(rng_seed=9))
        launch_diffusion(kernel_diffusion, origin)
        kernel_diffusion.run()

        kernel_naive = Kernel(random_topology(8, edge_probability=0.6, seed=9),
                              config=KernelConfig(rng_seed=9))
        briefcase = Briefcase()
        briefcase.set("PAYLOAD", "payload")
        briefcase.set("TTL", 4)
        kernel_naive.launch(origin, "naive_flood", briefcase)
        kernel_naive.run()

        assert kernel_naive.stats.migrations > kernel_diffusion.stats.migrations

    def test_ttl_zero_never_clones(self):
        kernel = Kernel(lan(["a", "b", "c"]), config=KernelConfig(rng_seed=1))
        briefcase = Briefcase()
        briefcase.set("PAYLOAD", "payload")
        briefcase.set("TTL", 0)
        kernel.launch("a", "naive_flood", briefcase)
        kernel.run()
        assert kernel.stats.migrations == 0

    def test_growth_with_ttl_is_superlinear_on_dense_graphs(self):
        def transfers_with_ttl(ttl):
            kernel = Kernel(lan([f"s{i}" for i in range(5)]), config=KernelConfig(rng_seed=2))
            briefcase = Briefcase()
            briefcase.set("PAYLOAD", "x")
            briefcase.set("TTL", ttl)
            kernel.launch("s0", "naive_flood", briefcase)
            kernel.run()
            return kernel.stats.migrations

        one, two, three = (transfers_with_ttl(ttl) for ttl in (1, 2, 3))
        assert one < two < three
        # Each extra TTL multiplies the clone population by ~(degree).
        assert three - two > two - one
