"""Integration test: the same agent workload over rsh, TCP and Horus (paper section 6)."""

from __future__ import annotations

import pytest

from repro.bench import ItineraryParams, run_itinerary
from repro.core import Briefcase, Kernel, KernelConfig
from repro.net import HorusTransport, lan


TRANSPORTS = ("rsh", "tcp", "horus")


class TestTransportsEndToEnd:
    def test_itinerary_completes_identically_on_every_transport(self):
        results = {transport: run_itinerary(ItineraryParams(transport=transport, hops=8,
                                                            payload_bytes=2048, seed=3))
                   for transport in TRANSPORTS}
        hops = {result.hops_completed for result in results.values()}
        assert hops == {8}
        # Same logical workload, same bytes shipped per migration (modulo
        # framing), regardless of transport.
        byte_counts = [result.migration_bytes for result in results.values()]
        assert max(byte_counts) - min(byte_counts) < 0.05 * max(byte_counts)

    def test_transport_cost_ordering_matches_the_paper(self):
        """rsh (process start per hop) is the slow one; cached channels win."""
        results = {transport: run_itinerary(ItineraryParams(transport=transport, hops=10,
                                                            payload_bytes=1024, seed=4))
                   for transport in TRANSPORTS}
        assert results["rsh"].duration > results["tcp"].duration
        assert results["rsh"].duration > results["horus"].duration
        assert results["rsh"].mean_hop_time > 2 * results["tcp"].mean_hop_time

    def test_rsh_penalty_does_not_amortise_with_hop_count(self):
        """A fresh remote interpreter per transfer is paid at every hop: the
        gap to the cached-connection transports is as wide at 16 hops as at 2."""
        for hops in (2, 16):
            durations = {transport: run_itinerary(ItineraryParams(
                transport=transport, hops=hops, payload_bytes=1024, seed=3)).duration
                for transport in TRANSPORTS}
            assert durations["rsh"] > 3 * durations["tcp"], hops
            assert durations["rsh"] > 3 * durations["horus"], hops

    def test_bandwidth_dominates_as_the_agent_grows(self):
        """Per-hop time rises with the agent's size on every transport, and
        the two cached-connection transports converge: their fixed per-hop
        difference shrinks next to payload / bandwidth."""
        payloads = (256, 4_096, 65_536)
        hop_time = {(transport, payload): run_itinerary(ItineraryParams(
            transport=transport, hops=8, payload_bytes=payload, seed=3)).mean_hop_time
            for transport in TRANSPORTS for payload in payloads}
        for transport in TRANSPORTS:
            times = [hop_time[transport, payload] for payload in payloads]
            assert times == sorted(times), transport

        def gap(payload):
            tcp, horus = hop_time["tcp", payload], hop_time["horus", payload]
            return abs(tcp - horus) / max(tcp, horus)

        assert gap(payloads[-1]) < gap(payloads[0])

    def test_repeated_traffic_amortises_connection_setup_on_tcp(self):
        first = run_itinerary(ItineraryParams(transport="tcp", hops=2, payload_bytes=256,
                                              n_sites=3, seed=5))
        repeat = run_itinerary(ItineraryParams(transport="tcp", hops=12, payload_bytes=256,
                                               n_sites=3, seed=5))
        # With only 3 sites, the 12-hop tour reuses established connections,
        # so the mean per-hop time drops below the 2-hop (all-cold) tour.
        assert repeat.mean_hop_time < first.mean_hop_time

    def test_horus_group_survives_member_crash_during_agent_workload(self):
        kernel = Kernel(lan(["a", "b", "c", "d"]), transport="horus",
                        config=KernelConfig(rng_seed=9))
        transport = kernel.transport
        assert isinstance(transport, HorusTransport)
        transport.create_group("workers", ["a", "b", "c", "d"])

        def worker(ctx, bc):
            yield ctx.sleep(1.0)
            return "ok"

        for site in ("a", "b", "c", "d"):
            kernel.launch(site, worker)
        kernel.loop.schedule(0.4, lambda: kernel.crash_site("c"))
        kernel.run()

        view = transport.group_view("workers")
        assert "c" not in view.members
        assert set(view.members) == {"a", "b", "d"}
        # The surviving member's multicast reaches exactly the survivors.
        copies = transport.multicast("workers", "a", {"checkpoint": 1})
        assert copies == 3

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
