"""Unit tests for repro.shard: placement, clock sync, routing, the facade.

The sharded kernel's correctness argument has three legs, each covered
here: placement is deterministic and validated, the conservative clock
sync's lookahead matrix bounds every influence path (direct, relayed,
and reflected), and the facade delegates without changing semantics.
"""

from __future__ import annotations

import math
import zlib

import pytest

from repro.core import Briefcase, Kernel, KernelConfig
from repro.core.engine import STEP_COST
from repro.core.errors import KernelError, UnknownSiteError
from repro.core.folder import Folder
from repro.net import FailureSchedule, lan
from repro.net.message import MessageKind
from repro.net.topology import LinkSpec, Topology
from repro.net.tcp import TcpTransport
from repro.shard import MIN_LOOKAHEAD, ClockSync, resolve_placement


def sink(ctx, briefcase):
    """Contact that files whatever folder it was couriered."""
    payload_name = briefcase.get("PAYLOAD_NAME")
    elements = (briefcase.folder(payload_name).elements()
                if payload_name and briefcase.has(payload_name) else [])
    ctx.cabinet("mail").put("received", len(elements))
    yield ctx.sleep(0)
    return len(elements)


def courier(ctx, briefcase):
    """Send one report folder to PEER's sink contact, then finish."""
    yield ctx.sleep(float(briefcase.get("WORK", 0.01)))
    folder = Folder("REPORT", [{"from": ctx.site_name}])
    yield ctx.send_folder(folder, briefcase.get("PEER"), "sink")
    return ctx.site_name


def sharded_kernel(site_count=8, shards=4, placement=None, seed=7,
                   latency=0.002, backend="inproc"):
    names = [f"s{i}" for i in range(site_count)]
    kernel = Kernel(lan(names, latency=latency), transport="tcp",
                    config=KernelConfig(rng_seed=seed, shards=shards,
                                        shard_placement=placement,
                                        shard_backend=backend))
    kernel.install_agent(None, "sink", sink)
    return kernel, names


def shard_of(kernel, site_name):
    """The id of the engine hosting *site_name* (via the public engines)."""
    return next(engine.shard_id for engine in kernel.engines
                if site_name in engine.sites)


class TestPlacement:
    def test_default_shard_is_deterministic_and_in_range(self):
        names = ("alpha", "beta", "s000", "s199")
        placement = resolve_placement(names, 8)
        # The CRC-32 of the name: the same in every process, unlike hash().
        assert placement == {name: zlib.crc32(name.encode("utf-8")) % 8
                             for name in names}
        assert placement == resolve_placement(names, 8)
        assert set(placement.values()) <= set(range(8))

    def test_resolve_placement_covers_every_site(self):
        names = [f"s{i}" for i in range(20)]
        placement = resolve_placement(names, 4)
        assert set(placement) == set(names)
        assert set(placement.values()) <= set(range(4))

    def test_explicit_overrides_win(self):
        names = ["a", "b", "c"]
        placement = resolve_placement(names, 2, explicit={"a": 1, "b": 1})
        assert placement["a"] == 1 and placement["b"] == 1
        assert placement["c"] == resolve_placement(["c"], 2)["c"]



class TestClockSync:
    def _line_topology(self):
        # a --0.01-- b --0.02-- c   (no direct a--c link)
        topo = Topology()
        for name in ("a", "b", "c"):
            topo.add_site(name)
        topo.add_link("a", "b", LinkSpec(latency=0.01, bandwidth=0.0))
        topo.add_link("b", "c", LinkSpec(latency=0.02, bandwidth=0.0))
        return topo

    def test_lookahead_is_shortest_path_latency(self):
        sync = ClockSync(self._line_topology(), {"a": 0, "b": 1, "c": 2}, 3)
        assert sync.lookahead(0, 1) == pytest.approx(0.01)
        assert sync.lookahead(1, 2) == pytest.approx(0.02)
        # No direct link: the bound is the relayed path through b.
        assert sync.lookahead(0, 2) == pytest.approx(0.03)

    def test_relay_through_intermediate_shard_tightens_the_bound(self):
        # Direct a--c latency (1.0) is looser than the a--b--c relay
        # (0.03): a message can influence c through an event on b, so the
        # matrix must take the Floyd-Warshall minimum.
        topo = self._line_topology()
        topo.add_link("a", "c", LinkSpec(latency=1.0, bandwidth=0.0))
        sync = ClockSync(topo, {"a": 0, "b": 1, "c": 2}, 3)
        assert sync.lookahead(0, 2) == pytest.approx(0.03)

    def test_horizons_grant_min_neighbour_influence(self):
        sync = ClockSync(self._line_topology(), {"a": 0, "b": 1, "c": 2}, 3)
        horizons = sync.horizons({0: 1.0, 1: 5.0, 2: 9.0})
        # Shard 0's earliest outside influence: shard 1 at 5.0 + 0.01.
        # Its own reflection bound (1.0 + 2*0.01) is tighter.
        assert horizons[0] == pytest.approx(1.0 + 2 * 0.01)
        # The globally-min shard always gets a horizon beyond its T.
        assert horizons[0] > 1.0

    def test_empty_shard_is_bounded_by_others_not_itself(self):
        sync = ClockSync(self._line_topology(), {"a": 0, "b": 1, "c": 2}, 3)
        horizons = sync.horizons({0: None, 1: 2.0, 2: None})
        assert horizons[0] == pytest.approx(2.0 + 0.01)
        # A lone live shard with no one to hear from runs unconstrained
        # except for its own reflections.
        lone = sync.horizons({0: None, 1: 3.0, 2: None})
        assert lone[1] == pytest.approx(3.0 + min(2 * 0.01, 2 * 0.02))

    def test_all_queues_empty_means_unconstrained(self):
        sync = ClockSync(self._line_topology(), {"a": 0, "b": 1, "c": 2}, 3)
        assert sync.horizons({0: None, 1: None, 2: None}) == {
            0: None, 1: None, 2: None}

    def test_lookahead_floor_for_colocated_shards(self):
        topo = Topology()
        for name in ("a", "b"):
            topo.add_site(name)
        topo.add_link("a", "b", LinkSpec(latency=0.0, bandwidth=0.0))
        sync = ClockSync(topo, {"a": 0, "b": 1}, 2)
        assert sync.lookahead(0, 1) == pytest.approx(MIN_LOOKAHEAD)

    def test_unreachable_shards_never_constrain(self):
        topo = Topology()
        for name in ("a", "b"):
            topo.add_site(name)  # no links at all
        sync = ClockSync(topo, {"a": 0, "b": 1}, 2)
        assert sync.lookahead(0, 1) == math.inf
        horizons = sync.horizons({0: 1.0, 1: 50.0})
        assert horizons[0] is None and horizons[1] is None


class TestFacadeConstruction:
    # The facade is one code path for any engine count: the construction
    # cases that take the strategy fixture hold on one engine and on two.

    def test_sites_partition_exactly(self, strategy):
        built = [sharded_kernel(shards=1), sharded_kernel(shards=4)]
        assert [len(kernel.engines) for kernel, _ in built] == [strategy, 4]
        for kernel, names in built:
            owned = [set(engine.sites) for engine in kernel.engines]
            assert set().union(*owned) == set(names)
            for i, left in enumerate(owned):
                for right in owned[i + 1:]:
                    assert not (left & right)
            assert set(kernel.sites) == set(names)
            assert kernel.site_names() == names

    def test_explicit_placement_is_honoured(self, strategy):
        names = [f"s{i}" for i in range(4)]
        placement = {name: index % strategy for index, name in enumerate(names)}
        kernel, _ = sharded_kernel(site_count=4, shards=1, placement=placement)
        for name, shard_id in placement.items():
            assert name in kernel.engines[shard_id].sites

    def test_coordinator_rounds_reported_only_when_sharded(self):
        kernel, _ = sharded_kernel(shards=2)
        assert len(kernel.engines) == 2
        assert kernel.shard_summary()["rounds"] == 0
        classic = Kernel(lan(["a", "b"]), transport="tcp")
        assert len(classic.engines) == 1
        assert "rounds" not in classic.shard_summary()

    def test_engines_are_read_only(self, strategy):
        kernel, _ = sharded_kernel(shards=1)
        assert isinstance(kernel.engines, tuple)
        with pytest.raises(AttributeError):
            kernel.engines = ()

    def test_one_engine_views_are_the_engines_own(self):
        # "A merged view over one part is the part."
        kernel, _ = sharded_kernel(shards=1)
        engine, = kernel.engines
        for view in ("stats", "table", "sites", "stores", "obs",
                     "ring", "loop", "transport"):
            assert getattr(kernel, view) is getattr(engine, view), view
        assert engine.transport.boundary is None

    def test_zero_shards_rejected(self):
        with pytest.raises(KernelError):
            Kernel(lan(["a", "b"]), transport="tcp",
                   config=KernelConfig(shards=0))

    def test_constructed_transport_instance_rejected(self):
        donor = Kernel(lan(["a", "b"]), transport="tcp")
        assert isinstance(donor.transport, TcpTransport)
        with pytest.raises(KernelError):
            Kernel(lan(["a", "b"]), transport=donor.transport,
                   config=KernelConfig(shards=2))

    def test_launch_on_unknown_site_raises(self, strategy):
        kernel, _ = sharded_kernel(shards=1)
        with pytest.raises(UnknownSiteError):
            kernel.launch("nowhere", courier, Briefcase())
        with pytest.raises(UnknownSiteError):
            kernel.launch_many([("s0", courier), ("nowhere", courier)])
        assert kernel.counters()["launched"] == 0  # site names are checked up front


class TestCrossShardTraffic:
    def _run_couriers(self, kernel, names, pairs):
        for home, peer in pairs:
            briefcase = Briefcase()
            briefcase.set("PEER", peer)
            kernel.launch(home, courier, briefcase)
        kernel.run()

    def _cross_pairs(self, kernel, names, count=6):
        pairs = []
        for home in names:
            for peer in names:
                if shard_of(kernel, home) != shard_of(kernel, peer):
                    pairs.append((home, peer))
        assert len(pairs) >= count
        return pairs[:count]

    def test_folders_cross_shards_and_arrive(self):
        kernel, names = sharded_kernel()
        pairs = self._cross_pairs(kernel, names)
        self._run_couriers(kernel, names, pairs)
        assert kernel.counters()["completed"] == kernel.counters()["launched"]
        assert kernel.counters()["meets"] == len(pairs)
        assert kernel.stats.shard_handoffs == len(pairs)
        assert kernel.stats.shard_handoff_bytes > 0
        for _home, peer in pairs:
            assert kernel.site(peer).cabinet("mail").elements("received")

    def test_conservative_sync_never_clamps_arrivals(self):
        kernel, names = sharded_kernel()
        pairs = self._cross_pairs(kernel, names)
        self._run_couriers(kernel, names, pairs)
        assert kernel.stats.shard_late_arrivals == 0

    def test_facade_counters_sum_engines(self):
        kernel, names = sharded_kernel()
        pairs = self._cross_pairs(kernel, names)
        self._run_couriers(kernel, names, pairs)
        counters = kernel.counters()
        assert counters == {key: sum(engine.counters()[key] for engine in kernel.engines)
                            for key in counters}
        assert counters["meets"] == len(pairs)

    def test_event_log_merges_in_time_order(self):
        kernel, names = sharded_kernel()
        pairs = self._cross_pairs(kernel, names)
        self._run_couriers(kernel, names, pairs)
        for engine in kernel.engines:
            engine.log_event("probe", "-", f"shard {engine.shard_id}")
        log = kernel.event_log
        times = [entry[0] for entry in log]
        assert times == sorted(times)
        assert len(log) == sum(len(engine.event_log)
                               for engine in kernel.engines)
        assert len(log) >= len(kernel.engines)


class TestFacadeLifecycle:
    def test_crash_and_recover_cross_shard_site(self):
        kernel, names = sharded_kernel()
        victim = names[0]
        kernel.crash_site(victim)
        owner = kernel.engines[shard_of(kernel, victim)]
        assert not kernel.site(victim).alive
        # A courier from another shard finds the site down, then recovered.
        peer = next(name for name in names
                    if shard_of(kernel, name) != shard_of(kernel, victim))
        briefcase = Briefcase()
        briefcase.set("PEER", victim)
        briefcase.set("WORK", 0.2)
        kernel.launch(peer, courier, briefcase)
        kernel.run(until=0.1)
        kernel.recover_site(victim)
        kernel.run()
        assert kernel.site(victim).alive
        assert owner.site(victim).cabinet("mail").elements("received")

    def test_partition_blocks_cross_shard_traffic(self):
        kernel, names = sharded_kernel()
        victim = names[0]
        peer = next(name for name in names
                    if shard_of(kernel, name) != shard_of(kernel, victim))
        kernel.partition([[victim], [name for name in names
                                     if name != victim]])
        briefcase = Briefcase()
        briefcase.set("PEER", victim)
        kernel.launch(peer, courier, briefcase)
        kernel.run(until=5.0)
        assert not kernel.site(victim).cabinet("mail").elements("received")
        kernel.heal_partition()
        briefcase = Briefcase()
        briefcase.set("PEER", victim)
        kernel.launch(peer, courier, briefcase)
        kernel.run()
        assert kernel.site(victim).cabinet("mail").elements("received")

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1(c): a scheduled partition fires on engine 0's clock, "
        "and engine 0 runs its round burst, partition included, before "
        "engine 1 has run its earlier events, so on two engines a transmit "
        "just before the partition time is refused"))
    def test_a_scheduled_partition_cuts_traffic_when_it_does_on_one_engine(self):
        def transmit_before_the_partition(ctx, briefcase):
            yield ctx.sleep(0.995 - ctx.now)
            accepted = yield ctx.transmit("b", "sink", Briefcase())
            return ctx.now, bool(accepted)

        def run(shards, placement=None):
            kernel = Kernel(lan(["a", "b", "c"], latency=0.01), transport="tcp",
                            config=KernelConfig(shards=shards,
                                                shard_placement=placement))
            FailureSchedule().partition([["a"], ["b", "c"]], at=1.0).install(kernel)
            agent = kernel.launch("a", transmit_before_the_partition, system=True)
            kernel.run()
            return kernel.result_of(agent)

        at, accepted = run(1)
        assert at < 1.0 and accepted
        assert run(2, placement={"a": 1, "b": 1, "c": 0}) == (at, accepted)

    def test_every_site_lands_on_its_shard_and_is_reachable(self):
        kernel, names = sharded_kernel()
        placement = resolve_placement(names, 4)
        for name in names:
            assert name in kernel.engines[placement[name]].sites, name
            source = next(other for other in names
                          if placement[other] != placement[name])
            briefcase = Briefcase()
            briefcase.set("PEER", name)
            kernel.launch(source, courier, briefcase)
        kernel.run()
        for name in names:
            assert kernel.site(name).cabinet("mail").elements("received"), name

    def test_explicit_placement_pins_a_site_at_construction(self):
        kernel, names = sharded_kernel(placement={"s0": 3, "s1": 3})
        assert {"s0", "s1"} <= set(kernel.engines[3].sites)
        briefcase = Briefcase()
        briefcase.set("PEER", "s0")
        kernel.launch("s1", courier, briefcase)
        kernel.run()
        assert kernel.site("s0").cabinet("mail").elements("received")
        assert kernel.stats.shard_handoffs == 0   # both ends on engine 3


def traced_report(ctx, briefcase):
    """Transmit one report folder to PEER's sink contact on this agent's
    trace, so the arrival records a "delivery" span (a system agent: only
    those transmit)."""
    yield ctx.sleep(0.01)
    report = ctx.propagate_trace(Briefcase([Folder("REPORT", [{"from": ctx.site_name}])]))
    report.set("PAYLOAD_NAME", "REPORT")
    yield ctx.transmit(briefcase.get("PEER"), "sink", report,
                       kind=MessageKind.FOLDER_DELIVERY)


def headcount_at(ctx, briefcase):
    """How many agents are resident here the instant this one wakes."""
    yield ctx.sleep(briefcase.get("UNTIL"))
    return ctx.resident_count()


class TestSameTimestampOrder:
    """One handoff path: a tie between a local event and cross-shard mail
    breaks the same way wherever the engines execute."""

    # Tracing records the report's delivery span, whose end is the instant
    # the report reaches b (the report's bytes include its trace folders,
    # so every run traces).
    CONFIG = dict(rng_seed=3, shards=2, shard_placement={"a": 0, "b": 1},
                  obs_enabled=True)

    def _run(self, backend, sleep=None):
        """Send a report a -> b; optionally wake a head-counter on b.

        Returns the delivery instant and the head-counter's count.
        """
        with Kernel(lan(["a", "b"], latency=0.1), transport="tcp",
                    config=KernelConfig(shard_backend=backend,
                                        **self.CONFIG)) as kernel:
            kernel.install_agent(None, "sink", sink)
            briefcase = Briefcase()
            briefcase.set("PEER", "b")
            kernel.launch("a", traced_report, briefcase, system=True)
            if sleep is not None:
                briefcase = Briefcase()
                briefcase.set("UNTIL", sleep)
                kernel.launch("b", headcount_at, briefcase, name="probe")
            kernel.run()
            delivery, = [span for span in kernel.trace_spans()
                         if span["name"] == "delivery"]
            probe = kernel.agents_named("probe")
            return delivery["end"], (probe[0].result if probe else None)

    def test_local_event_and_cross_shard_arrival_at_the_same_instant(self, backend):
        arrival, _ = self._run("inproc")
        # The probe starts at 0 and wakes STEP_COST after its sleep: pick
        # the sleep that puts the wake-up on the delivery instant, to the bit.
        sleep = arrival - STEP_COST
        while sleep + STEP_COST < arrival:
            sleep = math.nextafter(sleep, math.inf)
        while sleep + STEP_COST > arrival:
            sleep = math.nextafter(sleep, -math.inf)
        assert sleep + STEP_COST == arrival
        # b schedules the probe's wake-up in the very round a sends the
        # report, for the very instant the report is due.  The report
        # reaches b's queue with b's next burst, so the wake-up was queued
        # first and fires first: the probe counts only itself, not yet the
        # sink agent the delivery creates.  (A backend that put the handoff
        # on b's loop at send time would reverse this.)
        assert self._run(backend, sleep=sleep) == (arrival, 1)
