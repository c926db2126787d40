"""Integration test: the same agent workload over rsh, TCP and Horus (paper section 6)."""

from __future__ import annotations

import pytest

from repro.core import Briefcase, Kernel, KernelConfig
from repro.fault import completions, launch_ft_computation
from repro.net import FailureSchedule, lan
from scenarios import itinerary


TRANSPORTS = ("rsh", "tcp", "horus")


class TestTransportsEndToEnd:
    def test_itinerary_completes_identically_on_every_transport(self):
        kernels = [itinerary(transport=transport, hops=8, payload_bytes=2048, seed=3)[0]
                   for transport in TRANSPORTS]
        assert {kernel.stats.migrations for kernel in kernels} == {8}
        # Same logical workload, same bytes shipped per migration (modulo
        # framing), regardless of transport.
        byte_counts = [kernel.stats.migration_bytes for kernel in kernels]
        assert max(byte_counts) - min(byte_counts) < 0.05 * max(byte_counts)

    def test_transport_cost_ordering_matches_the_paper(self):
        """rsh (process start per hop) is the slow one; cached channels win."""
        runs = {transport: itinerary(transport=transport, hops=10, payload_bytes=1024,
                                     seed=4)
                for transport in TRANSPORTS}
        makespan = {transport: kernel.now for transport, (kernel, _) in runs.items()}
        hop_time = {transport: mean for transport, (_, mean) in runs.items()}
        assert makespan["rsh"] > makespan["tcp"]
        assert makespan["rsh"] > makespan["horus"]
        assert hop_time["rsh"] > 2 * hop_time["tcp"]

    @pytest.mark.one_engine(reason="pins one engine's clock: two engines draw "
                                   "rsh's jitter from two random streams")
    @pytest.mark.parametrize("transport, makespan", [
        ("rsh", 2.7493322230081283), ("tcp", 0.509736), ("horus", 0.42173600000000006)])
    def test_the_section_6_makespans_hold_to_the_last_bit(self, transport, makespan):
        """The prices and rsh's jitter draws reproduce these clocks exactly:
        a price, a rounding or a random draw that moves shows here."""
        kernel, _ = itinerary(transport=transport, hops=10, payload_bytes=1024, seed=3)
        assert kernel.now == makespan

    def test_rsh_penalty_does_not_amortise_with_hop_count(self):
        """A fresh remote interpreter per transfer is paid at every hop: the
        gap to the cached-connection transports is as wide at 16 hops as at 2."""
        for hops in (2, 16):
            hop_time = {transport: itinerary(transport=transport, hops=hops,
                                             payload_bytes=1024, seed=3)[1]
                        for transport in TRANSPORTS}
            assert hop_time["rsh"] > 3 * hop_time["tcp"], hops
            assert hop_time["rsh"] > 3 * hop_time["horus"], hops

    def test_bandwidth_dominates_as_the_agent_grows(self):
        """Per-hop time rises with the agent's size on every transport, and
        the two cached-connection transports converge: their fixed per-hop
        difference shrinks next to payload / bandwidth."""
        payloads = (256, 4_096, 65_536)
        hop_time = {(transport, payload): itinerary(
            transport=transport, hops=8, payload_bytes=payload, seed=3)[1]
            for transport in TRANSPORTS for payload in payloads}
        for transport in TRANSPORTS:
            times = [hop_time[transport, payload] for payload in payloads]
            assert times == sorted(times), transport

        def gap(payload):
            tcp, horus = hop_time["tcp", payload], hop_time["horus", payload]
            return abs(tcp - horus) / max(tcp, horus)

        assert gap(payloads[-1]) < gap(payloads[0])

    def test_repeated_traffic_amortises_connection_setup_on_tcp(self):
        _, first = itinerary(hops=2, payload_bytes=256, n_sites=3, seed=5)
        _, repeat = itinerary(hops=12, payload_bytes=256, n_sites=3, seed=5)
        # With only 3 sites, the 12-hop tour reuses established connections,
        # so the mean per-hop time drops below the 2-hop (all-cold) tour.
        assert repeat < first

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_guarded_computation_survives_a_mid_itinerary_crash(self, transport):
        """The rear guard's timeout notices the vanished agent on every
        transport: the site crashes while the agent works there, the guard
        behind it relaunches past the dead site, and the computation
        completes exactly once."""
        names = [f"s{i}" for i in range(5)]
        kernel = Kernel(lan(names), transport=transport, config=KernelConfig(rng_seed=9))
        # Two seconds of work per site: s2 is down mid-hop on every transport.
        ft_id = launch_ft_computation(kernel, "s0", names[1:], per_hop=1.0,
                                      work_seconds=2.0)
        FailureSchedule().crash("s2", at=5.5).recover("s2", at=100.0).install(kernel)
        kernel.run(until=200.0)
        [record] = completions(kernel, "s4", ft_id)
        assert record["relaunched"] is True
        assert record["skipped"] == ["s2"]
        assert [entry["site"] for entry in record["results"]] == ["s0", "s1", "s3", "s4"]

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_guarded_computation_without_a_crash_is_never_relaunched(self, transport):
        """A guard's timeout leaves a healthy computation alone on every
        transport, rsh's heavy per-hop setup included: it completes exactly
        once, in itinerary order, with no relaunch."""
        names = [f"s{i}" for i in range(5)]
        kernel = Kernel(lan(names), transport=transport, config=KernelConfig(rng_seed=9))
        ft_id = launch_ft_computation(kernel, "s0", names[1:], per_hop=1.0,
                                      work_seconds=2.0)
        kernel.run(until=200.0)
        [record] = completions(kernel, "s4", ft_id)
        assert record["relaunched"] is False
        assert record["skipped"] == []
        assert [entry["site"] for entry in record["results"]] == names

    def test_kernel_counters_are_consistent_across_transports(self):
        for transport in TRANSPORTS:
            kernel = Kernel(lan(["x", "y", "z"]), transport=transport,
                            config=KernelConfig(rng_seed=1))

            def hopper(ctx, bc):
                itinerary = bc.folder("ITINERARY", create=True)
                if itinerary:
                    yield ctx.jump(bc, itinerary.dequeue())
                    return "moved"
                yield ctx.sleep(0)
                return "done"

            from repro.core.registry import register_behaviour
            register_behaviour("counter_hopper", hopper, replace=True)
            briefcase = Briefcase()
            briefcase.folder("ITINERARY", create=True).extend(["y", "z"])
            kernel.launch("x", "counter_hopper", briefcase)
            kernel.run()
            counters = kernel.counters()
            assert counters["completed"] == counters["launched"]
            assert counters["arrivals"] == 2
            assert kernel.stats.migrations == 2
