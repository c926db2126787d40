"""Unit tests for repro.shard.backend: the shard execution backend seam.

Covers backend resolution, the engine protocol and the single handoff path
(spooled at send, routed by the coordinator, scheduled by the owner), the
ShardSet's fake-timer cost attribution (busy vs sync vs overhead — the
PR 6 busy-time fix), the ClockSync dirty-flag coalescing contract, budget
semantics across backends, the facade's ``shard_summary``/``close``
surface, and the serialisation plumbing the process backend rides on
(stats pickling, topology route caching).
"""

from __future__ import annotations

import functools
import pickle

import pytest

from repro.core import Briefcase, Folder, Kernel, KernelConfig
from repro.core.engine import ENGINE_PROTOCOL, Engine
from repro.core.errors import KernelError
from repro.core.timing import default_timer
from repro.net import lan
from repro.net.message import Message, MessageKind
from repro.net.stats import NetworkStats, StatsView
from repro.net.topology import LinkSpec, NoRouteError, switched_fabric
from repro.shard import (BACKENDS, ClockSync, InprocBackend, Shard, ShardSet,
                         process_backend_available)
from scenarios import COURIER_NAME, SINK_NAME, courier_briefcase, report_sink, sharded_churn


def sharded_kernel(backend, site_count=8, shards=4, seed=7):
    names = [f"s{i}" for i in range(site_count)]
    kernel = Kernel(lan(names, latency=0.002), transport="tcp",
                    config=KernelConfig(rng_seed=seed, shards=shards,
                                        shard_backend=backend))
    return kernel, names


#: the facade is one code path for any engine count: the surface cases
#: below run at N=1 and N=2 under the same assertions.  (Looped in the test
#: bodies rather than parametrised so the test ids stay stable.)
ENGINE_COUNTS = (1, 2)


# ---------------------------------------------------------------------------
# backend resolution
# ---------------------------------------------------------------------------

class TestBackendResolution:
    def test_kernel_config_validates_backend(self):
        with pytest.raises(KernelError, match=r"unknown shard_backend.*"
                           r"one of \('inproc', 'process'\)"):
            Kernel(lan(["a", "b"]),
                   config=KernelConfig(shards=2, shard_backend="fibers"))

    def test_bad_backend_rejected_even_unsharded(self):
        # shards=1 never builds a backend, but a typo must not lurk until
        # someone turns sharding on.
        with pytest.raises(KernelError):
            Kernel(lan(["a"]), config=KernelConfig(shard_backend="nope"))

    def test_every_declared_backend_is_a_string(self):
        assert BACKENDS == ("inproc", "process")


# ---------------------------------------------------------------------------
# the engine protocol
# ---------------------------------------------------------------------------

class _RecordingHandle:
    """Stands in for a worker pipe: records commands, replies at once."""

    def __init__(self):
        self.sent = []

    def send(self, command):
        self.sent.append(command)

    def recv(self):
        return (None, 0.0, None, 0.0)


class TestEngineProtocol:
    def test_every_protocol_name_is_an_engine_method(self):
        for name in ENGINE_PROTOCOL:
            assert callable(getattr(Engine, name)), name

    def test_process_proxy_forwards_exactly_the_protocol(self):
        from repro.shard.procworker import ProcessEngineProxy, WorkerSpec
        spec = WorkerSpec(shard_id=0, topology=None, transport="tcp",
                          config=KernelConfig(), install_system_agents=True,
                          retention=None, placement={"a": 0, "b": 1})
        handle = _RecordingHandle()
        proxy = ProcessEngineProxy(handle, spec, "tcp")
        assert set(proxy.sites) == {"a"}
        callbacks = ("on_site_added", "on_site_recovered")
        for name in ENGINE_PROTOCOL:
            if name in callbacks:  # a callable cannot cross the pipe
                with pytest.raises(KernelError, match="process boundary"):
                    getattr(proxy, name)(lambda site: None)
                continue
            getattr(proxy, name)("a")
            assert handle.sent[-1][:2] == ("call", name)
        assert len(handle.sent) == len(ENGINE_PROTOCOL) - len(callbacks)
        with pytest.raises(AttributeError):
            proxy.not_in_the_protocol

    def test_worker_refuses_calls_outside_the_protocol(self):
        from repro.shard.procworker import WorkerSpec, _Worker
        worker = _Worker(None, WorkerSpec(
            shard_id=0, topology=lan(["a", "b"]), transport="tcp",
            config=KernelConfig(), install_system_agents=False,
            retention=None, placement={"a": 0, "b": 1}))
        assert isinstance(worker.engine, Engine)
        assert worker.cmd_call("log_event", ("probe", "a", "hello"), {}) is None
        with pytest.raises(KernelError, match="engine protocol"):
            worker.cmd_call("close", (), {})


    def test_worker_digests_ship_rows_and_keep_markers_for_live_agents_only(self):
        from repro.core.lifecycle import AgentRecord
        from repro.shard.procworker import ShardTableMirror, WorkerSpec, _Worker

        def life(ctx, bc):
            yield ctx.sleep(bc.get("WORK"))
            return ctx.site_name

        def launch(work):
            briefcase = Briefcase()
            briefcase.set("WORK", work)
            return worker.engine.launch("a", life, briefcase, name="life")

        def digest_into_mirror():
            digest = worker.cmd_digest()
            assert all(type(row) is tuple for row in digest["table_new"])
            mirror.apply(digest["table_new"], digest["table_evicted"],
                         digest["table_counts"], digest["table_kinds"])
            return [row[0] for row in digest["table_new"]], digest["table_evicted"]

        def rows(table):
            return {agent_id: AgentRecord.row(entry)
                    for agent_id, entry in table.entries.items()}

        worker = _Worker(None, WorkerSpec(
            shard_id=0, topology=lan(["a", "b"]), transport="tcp",
            config=KernelConfig(retention="keep-counts:2"),
            install_system_agents=False, retention=None, placement={"a": 0, "b": 1}))
        mirror = ShardTableMirror("keep-counts:2")
        table = worker.engine.table
        sleeper, first = launch(10.0), launch(0.01)
        worker.engine.run_to(1.0)
        assert digest_into_mirror() == ([sleeper, first], [])
        # A terminal entry cannot change again: an id is all the worker keeps.
        assert worker._sent_markers == {sleeper: ("waiting", 1, "a"), first: None}
        # Rows, until somebody reads an entry; the length needs none built.
        assert len(mirror) == 2 and not mirror._entries and len(mirror._rows) == 2
        assert rows(mirror) == rows(table) and not mirror._rows
        assert [entry.agent_id for entry in mirror.named("life")] == [sleeper, first]
        assert digest_into_mirror() == ([], [])                  # nothing changed
        later = [launch(0.01) for _ in range(3)]
        worker.engine.run_to(2.0)                                # evicts first and later[0]
        assert digest_into_mirror() == (later[1:], [first])
        assert rows(mirror) == rows(table) and len(mirror) == len(table) == 3
        assert mirror.ledger_entry_kinds() == table.ledger_entry_kinds()
        worker.engine.run_to(20.0)                               # the sleeper ends
        assert digest_into_mirror() == ([sleeper], [later[1]])
        assert worker._sent_markers == {sleeper: None, later[2]: None}
        assert rows(mirror) == rows(table) and later[1] not in mirror
        assert ([entry.agent_id for entry in mirror.named("life")]
                == [entry.agent_id for entry in table.named("life")] == [sleeper, later[2]])


# ---------------------------------------------------------------------------
# the one handoff path: spooled at send, routed between rounds, scheduled by
# the owner (here driven by hand, on engines built directly)
# ---------------------------------------------------------------------------

def two_engine_set(timer=default_timer, latency=0.5):
    """Two directly-built engines ("a" on 0, "b" on 1) under a ShardSet."""
    topology = lan(["a", "b"], latency=latency)
    placement = {"a": 0, "b": 1}
    engines = [Engine(topology, KernelConfig(), install_system_agents=False,
                      shard_id=shard_id, placement=placement)
               for shard_id in range(2)]
    shards = [Shard(shard_id, engine) for shard_id, engine in enumerate(engines)]
    clock_sync = ClockSync(topology, placement, shards=2)
    return ShardSet(shards, clock_sync, backend=InprocBackend(timer),
                    timer=timer), engines


def _status(message_id):
    message = Message(source="a", destination="b", kind=MessageKind.STATUS,
                      payload={"id": message_id})
    message.sent_at = 0.0
    return message


class TestInboxRouter:
    def dispatch(self, engine, message_id, delay):
        return engine.transport.boundary.dispatch(_status(message_id), delay)

    def delivered(self, engine):
        return [payload["id"] for payload
                in engine.site("b").cabinet("_messages").elements(MessageKind.STATUS)]

    def test_dispatch_parks_in_owner_inbox(self):
        shard_set, engines = two_engine_set()
        assert engines[0].transport.boundary.is_remote("b")
        assert not engines[0].transport.boundary.is_remote("a")
        self.dispatch(engines[0], "m1", delay=0.5)
        _executed, outbound = engines[0].run_to(0.0)
        shard_set._route(outbound)
        assert engines[0].outbound == []
        assert [arrival for arrival, _ in shard_set.shards[1].pending] == [0.5]
        assert engines[1].loop.next_event_time() is None  # not scheduled yet
        assert shard_set.shards[1].next_event_time() == pytest.approx(0.5)
        assert engines[0].stats.shard_handoffs == 1
        assert engines[0].stats.shard_handoff_bytes > 0

    def test_a_handoff_is_the_snapshot_itself_and_only_a_pipe_copies_it(self):
        """What a process worker pickles is the message with its snapshot,
        once; engines in one process hand the stored elements over as is."""
        kept = []

        def keeper(ctx, bc):
            kept.append(bc)             # a finished agent's entry holds none
            yield ctx.sleep(0)

        def sender(ctx, bc):
            accepted = yield ctx.transmit("b", "keeper", bc)
            return accepted

        for through_a_pipe in (False, True):
            kept.clear()
            _shard_set, engines = two_engine_set()
            engines[1].install_agent("b", "keeper", keeper)
            carried = Briefcase([Folder("MANY", [1, "two"])])
            carried.set("ONE", b"x" * 100)
            engines[0].launch("a", sender, carried, system=True)
            _executed, outbound = engines[0].run_to(None)
            (_arrival, message), = outbound
            assert type(message.payload["briefcase"]) is Briefcase
            if through_a_pipe:
                outbound = pickle.loads(pickle.dumps(outbound))
            engines[1].run_to(None, None, outbound)
            assert engines[1].arrivals == 1 and engines[1].undeliverable == 0
            sent = carried.stored_items()           # the sender ran with this one
            (received,) = kept
            assert received.stored_items() == sent
            for (_name, elements), (_, kept_elements) in zip(
                    sent, received.stored_items()):
                assert all((a is b) is not through_a_pipe
                           for a, b in zip(elements, kept_elements))

    def test_drain_schedules_on_owner_loop(self):
        shard_set, engines = two_engine_set()
        self.dispatch(engines[0], "m1", delay=0.5)
        shard_set._route(engines[0].run_to(0.0)[1])
        handoffs = shard_set._take(shard_set.shards[1])
        assert len(handoffs) == shard_set.handoffs_drained == 1
        engines[1].advance_clock(0.0, handoffs)
        assert engines[1].loop.next_event_time() == pytest.approx(0.5)
        engines[1].run_to()
        assert self.delivered(engines[1]) == ["m1"]

    def test_same_timestamp_handoffs_drain_in_dispatch_order(self):
        # The deterministic total order: (arrival, origin, send order); an
        # earlier arrival sent later still goes first.
        shard_set, engines = two_engine_set()
        for index in range(4):
            self.dispatch(engines[0], f"m{index}", delay=0.25)
        self.dispatch(engines[0], "early", delay=0.125)
        shard_set._route(engines[0].run_to(0.0)[1])
        engines[1].run_to(None, None, shard_set._take(shard_set.shards[1]))
        assert self.delivered(engines[1]) == ["early", "m0", "m1", "m2", "m3"]

    def test_late_arrival_clamped_and_counted(self):
        shard_set, engines = two_engine_set()
        self.dispatch(engines[0], "late", delay=0.1)
        shard_set._route(engines[0].run_to(0.0)[1])
        engines[1].advance_clock(5.0)  # owner's round already passed
        engines[1].advance_clock(5.0, shard_set._take(shard_set.shards[1]))
        assert engines[1].stats.shard_late_arrivals == 1
        assert engines[0].stats.shard_late_arrivals == 0  # judged by the owner
        assert engines[1].loop.next_event_time() == pytest.approx(5.0)

    def test_coordinator_carries_mail_between_rounds(self):
        shard_set, engines = two_engine_set()
        engines[0].loop.schedule_at(
            0.1, lambda: self.dispatch(engines[0], "m1", delay=0.5))
        assert shard_set.run() == 2  # the send, then the delivery
        assert self.delivered(engines[1]) == ["m1"]
        assert shard_set.handoffs_drained == 1
        assert all(not shard.pending for shard in shard_set.shards)


# ---------------------------------------------------------------------------
# ShardSet cost attribution (the busy-time fix), with a fake timer
# ---------------------------------------------------------------------------

class _TickTimer:
    """Each call advances one fake second: attribution becomes countable."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def two_shard_set(timer):
    shard_set, _engines = two_engine_set(timer)
    return shard_set, shard_set.shards


class TestCostAttribution:
    def test_idle_shard_clock_advances_without_busy_charge(self):
        timer = _TickTimer()
        shard_set, shards = two_shard_set(timer)
        shards[0].engine.loop.schedule_at(0.1, lambda: None)
        shards[1].engine.loop.schedule_at(10.0, lambda: None)
        executed = shard_set.run(until=1.0)
        assert executed == 1
        # Shard 1 never ran an event: its clock moved (first to its granted
        # horizon, then the final until-clamp) but it was charged nothing.
        assert shards[1].busy_seconds == 0.0
        assert shards[1].engine.loop.clock.now == pytest.approx(1.0)
        # Shard 0's burst cost exactly one fake tick — the horizon
        # computation and plan building landed in sync_seconds instead
        # (the PR 6 accounting charged the whole bracket to busy).
        assert shards[0].busy_seconds == pytest.approx(1.0)
        assert shard_set.sync_seconds == pytest.approx(1.0)
        # Round wall-time minus the slowest burst: the two bracket ticks.
        assert shard_set.overhead_seconds == pytest.approx(2.0)
        assert shard_set.rounds == 1

    def test_busy_summary_reports_overhead(self):
        timer = _TickTimer()
        shard_set, shards = two_shard_set(timer)
        shards[0].engine.loop.schedule_at(0.1, lambda: None)
        shard_set.run()
        summary = shard_set.busy_summary()
        assert set(summary) >= {"max_busy", "total_busy", "sync_seconds",
                                "overhead_seconds"}
        assert summary["max_busy"] == shards[0].busy_seconds
        assert summary["overhead_seconds"] == shard_set.overhead_seconds


# ---------------------------------------------------------------------------
# ClockSync dirty-flag coalescing
# ---------------------------------------------------------------------------

class TestClockSyncDirtyFlag:
    def test_repeated_invalidations_cost_one_rebuild(self):
        topology = lan(["a", "b", "c", "d"], latency=0.01)
        clock_sync = ClockSync(topology, {"a": 0, "b": 1, "c": 0, "d": 1},
                               shards=2)
        assert clock_sync.rebuilds == 0
        clock_sync.lookahead(0, 1)
        assert clock_sync.rebuilds == 1  # lazy first build
        for _ in range(5):
            clock_sync.invalidate()  # five topology edits between rounds...
        clock_sync.horizons({0: 0.0, 1: 0.0})
        assert clock_sync.rebuilds == 2  # ...coalesce into one recompute
        clock_sync.horizons({0: 0.0, 1: 0.0})
        clock_sync.lookahead(1, 0)
        assert clock_sync.rebuilds == 2  # clean matrix is never rebuilt

    def test_facade_add_sites_coalesce_rebuilds(self):
        kernel, names = sharded_kernel("inproc")
        sync = kernel.shard_set.clock_sync
        kernel.launch(names[0], "courier")
        kernel.run()  # horizons computed: first lazy rebuild happens here
        before = sync.rebuilds
        assert before >= 1
        for index in range(3):
            kernel.add_site(f"late{index}", links=[names[0]])
        assert sync.rebuilds == before  # invalidated, not yet rebuilt
        kernel.launch(names[1], "courier")
        kernel.run()
        assert sync.rebuilds == before + 1
        kernel.close()


# ---------------------------------------------------------------------------
# budget semantics across backends
# ---------------------------------------------------------------------------

class TestBudgetStop:
    def test_budget_stops_at_same_point_and_resumes(self, backend):
        # Launch, stop after exactly 5 events, resume to quiescence.
        kernel, names = sharded_kernel(backend)
        kernel.install_agent(None, SINK_NAME, report_sink)
        for index in range(8):
            kernel.launch(names[index % len(names)], COURIER_NAME, courier_briefcase(
                names[(index + 5) % len(names)], work=0.01, payload_bytes=16))
        assert kernel.run(max_events=5) == 5
        assert kernel.run() > 0
        assert kernel.counters()["completed"] == 24  # couriers, transfers, sinks
        kernel.close()


# ---------------------------------------------------------------------------
# the facade surface: shard_summary, close, backend equivalence
# ---------------------------------------------------------------------------

class TestFacadeSurface:
    @pytest.mark.skipif(not process_backend_available(),
                        reason="multiprocessing spawn unavailable")
    def test_shard_summary_surfaces_coordination_ledger(self):
        kernel, _events = sharded_churn(n_sites=8, n_agents=16, wave_size=8, shards=4,
                                        seed=11, backend="process")
        summary = kernel.shard_summary()
        assert summary["shards"] == 4
        assert summary["backend"] == "process"
        assert summary["shard_handoffs"] > 0
        assert summary["shard_handoff_bytes"] > 0
        assert summary["shard_late_arrivals"] == 0
        assert summary["rounds"] > 0
        assert summary["clock_rebuilds"] >= 1
        assert summary["handoffs_drained"] == summary["shard_handoffs"]
        kernel.close()

    def test_shard_summary_on_classic_kernel(self):
        # One engine has nothing to coordinate, whatever backend is named.
        for backend in BACKENDS:
            kernel, _names = sharded_kernel(backend, shards=1)
            summary = kernel.shard_summary()
            assert summary == {"shards": 1, "backend": None,
                               "shard_handoffs": 0, "shard_handoff_bytes": 0,
                               "shard_late_arrivals": 0}
            assert kernel.shard_set is None
            kernel.close()

    def test_summary_keys_common_to_every_engine_count(self):
        for shards in ENGINE_COUNTS:
            kernel, names = sharded_kernel("inproc", shards=shards)
            kernel.launch(names[0], "courier")
            kernel.run()
            summary = kernel.shard_summary()
            assert summary["shards"] == shards == len(kernel.engines)
            assert summary["shard_late_arrivals"] == 0
            assert summary["shard_handoffs"] == kernel.stats.shard_handoffs
            kernel.close()

    def test_close_is_idempotent(self):
        for shards in ENGINE_COUNTS:
            kernel, _names = sharded_kernel("inproc", shards=shards)
            kernel.run(until=0.01)
            kernel.close()
            kernel.close()


# ---------------------------------------------------------------------------
# serialisation plumbing the process backend rides on
# ---------------------------------------------------------------------------

class TestStatsPortability:
    def test_stats_pickle_whole_and_refresh_a_mirror_in_place(self):
        # A process digest ships the worker's NetworkStats object itself.
        stats = NetworkStats()
        stats.record_shard_handoff(128)
        stats.record_shard_late_arrival()
        stats.record_send("a", "b", "FOLDER", 40)
        stats.record_flow("a", "b", window=0.1, message_rate=1.0, bytes_rate=2.0)
        for index in range(5000):  # past the reservoir: the RNG is in play
            stats.record_delivery(40, index * 1e-4)
        shipped = pickle.loads(pickle.dumps(stats))
        assert shipped.snapshot() == stats.snapshot()
        shipped.per_kind["NEW"] += 1  # defaultdict behaviour survives the pipe
        assert shipped.per_kind["NEW"] == 1 and "NEW" not in stats.per_kind
        for sketch in (stats.latencies, shipped.latencies):
            for _ in range(100):      # same RNG state: the same slots are replaced
                sketch.record(9.0)
        assert shipped.latencies.sample == stats.latencies.sample

        mirror = NetworkStats()
        view = StatsView([mirror])
        vars(mirror).update(vars(pickle.loads(pickle.dumps(stats))))
        assert view.snapshot() == stats.snapshot()


class TestRouteCacheAndFabric:
    def test_path_cost_is_cached_and_bit_identical(self):
        topology = lan(["a", "b", "c"], latency=0.003)
        first = topology.path_cost("a", "c", size_bytes=640)
        again = topology.path_cost("a", "c", size_bytes=640)
        assert first == again

    def test_cache_invalidated_by_topology_change(self):
        topology = lan(["a", "b", "c"], latency=0.003)
        before = topology.path_cost("a", "c", size_bytes=0)
        topology.add_site("d")
        topology.add_link("a", "d", LinkSpec(latency=0.0001))
        topology.add_link("d", "c", LinkSpec(latency=0.0001))
        after = topology.path_cost("a", "c", size_bytes=0)
        assert after[0] < before[0]  # the shortcut is visible, not cached over

    def test_cached_route_respects_site_down(self):
        topology = lan(["a", "b"], latency=0.003)
        topology.path_cost("a", "b", size_bytes=0)
        topology.mark_down("b")
        with pytest.raises(NoRouteError):
            topology.path_cost("a", "b", size_bytes=0)

    def test_switched_fabric_scales_linearly_in_edges(self):
        hosts = [f"h{i:03d}" for i in range(120)]
        topology = switched_fabric(hosts, hosts_per_switch=40)
        # 120 host uplinks + full mesh over 3 switches = 123 edges.
        assert len(list(topology.links())) == 123
        cost, hops, _loss = topology.path_cost("h000", "h119", size_bytes=0)
        assert hops == 3  # host -> switch -> switch -> host
        assert cost > 0


class TestWorkerHandle:
    @pytest.mark.parametrize("unread_command", [False, True], ids=["eof", "reset"])
    def test_a_dead_worker_pipe_raises_a_kernel_error(self, unread_command):
        # A worker that closed its end reads as EOF; one that died with a
        # command still unread in its end resets the connection instead.
        import multiprocessing
        from types import SimpleNamespace

        from repro.shard.procworker import _WorkerHandle

        coordinator, worker = multiprocessing.Pipe()
        if unread_command:
            coordinator.send(("call", "now"))
        worker.close()
        handle = _WorkerHandle(3, coordinator, SimpleNamespace(exitcode=1))
        with pytest.raises(KernelError, match=r"shard 3 worker died \(exitcode=1\)"):
            handle.recv()
        coordinator.close()


# ---------------------------------------------------------------------------
# crash and recovery, inproc vs process
# ---------------------------------------------------------------------------

def crash_kernel(backend, durability):
    """Four sites, "d" alone on shard 0 and "a".."c" on shard 1."""
    kernel = Kernel(lan(["a", "b", "c", "d"], latency=0.002), transport="tcp",
                    config=KernelConfig(rng_seed=7, shards=2, shard_backend=backend,
                                        shard_placement={"a": 1, "b": 1, "c": 1, "d": 0},
                                        durability=durability))
    kernel.install_agent(None, SINK_NAME, report_sink)
    return kernel


def test_facade_topology_follows_a_durable_recovery(backend):
    kernel = crash_kernel(backend, "wal-group-commit")
    kernel.crash_site("c")
    kernel.recover_site("c")
    assert kernel.topology.is_down("c") and not kernel.site("c").alive  # replaying
    kernel.run()
    assert kernel.site("c").alive and not kernel.topology.is_down("c")
    kernel.crash_site("c")
    assert kernel.topology.is_down("c")
    kernel.close()


#: the stats a crashed site on another shard moves when traffic is sent to it
PEER_CRASH_KEYS = ("shard_handoffs", "shard_handoff_bytes", "shard_late_arrivals")


@functools.lru_cache(maxsize=None)
def couriers_to_a_crashed_peer(backend):
    """``(counters(), PEER_CRASH_KEYS values)`` after couriers from shard 0
    reach "c" on shard 1 while it is down, then again after it recovers."""
    kernel = crash_kernel(backend, "none")
    kernel.crash_site("c")
    for _phase in range(2):
        kernel.launch("d", COURIER_NAME, courier_briefcase("c", work=0.01, payload_bytes=16))
        kernel.run()
        kernel.recover_site("c")
    snapshot = kernel.stats.snapshot()
    result = kernel.counters(), {key: snapshot[key] for key in PEER_CRASH_KEYS}
    kernel.close()
    return result


@pytest.mark.skipif(not process_backend_available(),
                    reason="multiprocessing spawn unavailable")
def test_couriers_to_a_crashed_peer_count_alike_on_both_backends():
    assert (couriers_to_a_crashed_peer("process")[0]
            == couriers_to_a_crashed_peer("inproc")[0])


@pytest.mark.skipif(not process_backend_available(),
                    reason="multiprocessing spawn unavailable")
@pytest.mark.xfail(strict=True, reason=(
    "a process worker's topology never learns that a site another worker "
    "hosts crashed, so traffic to it is handed off instead of dropped at "
    "send; the fix needs a recovery notice through the handoff path"))
def test_couriers_to_a_crashed_peer_move_the_same_shard_stats_on_both_backends():
    assert (couriers_to_a_crashed_peer("process")[1]
            == couriers_to_a_crashed_peer("inproc")[1])


# ---------------------------------------------------------------------------
# process backend odds and ends (gated on spawn availability)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not process_backend_available(),
                    reason="multiprocessing spawn unavailable")
class TestProcessFacade:
    def test_crash_and_recover_cross_worker(self):
        kernel, names = sharded_kernel("process", site_count=6, shards=3)
        kernel.install_agent(None, SINK_NAME, report_sink)
        kernel.crash_site(names[0])
        assert not kernel.sites[names[0]].alive
        kernel.recover_site(names[0])
        assert kernel.sites[names[0]].alive
        kernel.close()

    def test_digests_refresh_the_stats_the_facade_view_holds(self):
        kernel, names = sharded_kernel("process", site_count=4, shards=2)
        kernel.install_agent(None, SINK_NAME, report_sink)
        held = [engine.stats for engine in kernel.engines]
        sent = []
        for peer in names[1:3]:
            kernel.launch(names[0], COURIER_NAME, courier_briefcase(peer, payload_bytes=16))
            kernel.run()
            sent.append(kernel.stats.messages_sent)
        for engine, part, stats in zip(kernel.engines, kernel.stats._parts, held):
            assert engine.stats is part is stats
        assert 0 < sent[0] < sent[1] == sum(stats.messages_sent for stats in held)
        kernel.close()

    def test_loop_scheduling_raises_a_clear_error(self):
        kernel, _names = sharded_kernel("process", site_count=4, shards=2)
        with pytest.raises(KernelError, match="worker-side"):
            kernel.loop.schedule(0.1, lambda: None)
        kernel.close()

    def test_site_callbacks_refused(self):
        kernel, _names = sharded_kernel("process", site_count=4, shards=2)
        with pytest.raises(KernelError, match="process boundary"):
            kernel.on_site_added(lambda name: None)
        kernel.close()

    def test_preload_skips_path_loaded_modules(self):
        """A behaviour registered by a module loaded from an explicit file
        path (a test importing an example script) must not be shipped as a
        worker preload — the spawn child cannot import it by name and every
        process-backend kernel in the session would fail at startup."""
        from repro.core.registry import BehaviourRegistry
        from repro.shard.procworker import preload_module_names

        def stray(ctx, bc):
            yield ctx.sleep(0)

        stray.__module__ = "example_loaded_from_a_file_path"
        registry = BehaviourRegistry()
        registry.register("stray", stray)
        registry.register("sink", report_sink)
        modules = preload_module_names(registry)
        assert "example_loaded_from_a_file_path" not in modules
        assert "scenarios" in modules

    def test_digest_fed_log_and_spans_keep_the_configured_bounds(self):
        """``event_log_max`` and ``obs_ring`` bound what the coordinator
        retains per engine too: after repeated runs it holds what the
        in-process engines hold, not everything the digests ever shipped."""
        def retained(backend):
            names = [f"s{i}" for i in range(4)]
            kernel = Kernel(lan(names, latency=0.002), transport="tcp",
                            config=KernelConfig(
                                rng_seed=7, shards=2, shard_backend=backend,
                                shard_placement={"s0": 0, "s1": 0,
                                                 "s2": 1, "s3": 1},
                                event_log_max=3, obs_ring=4,
                                obs_enabled=True))
            kernel.install_agent(None, SINK_NAME, report_sink)
            for round_number in range(10):
                site = names[round_number % len(names)]
                for line in range(5):
                    kernel.log_event("operator", site,
                                     f"round {round_number} line {line}")
                kernel.launch(site, COURIER_NAME, courier_briefcase(
                    names[(round_number + 1) % len(names)], work=0.01, payload_bytes=16))
                if round_number == 5:
                    kernel.crash_site(names[3])
                    kernel.recover_site(names[3])
                kernel.run()
            logs = [list(engine.event_log) for engine in kernel.engines]
            spans = [engine.obs.export() for engine in kernel.engines]
            kernel.close()
            return logs, spans

        logs, spans = retained("process")
        assert [len(log) for log in logs] == [3, 3]
        assert [len(ring) for ring in spans] == [4, 4]
        assert (logs, spans) == retained("inproc")

    def test_unpicklable_behaviour_raises_a_kernel_error_and_the_pipe_survives(self):
        kernel, names = sharded_kernel("process", site_count=4, shards=2)
        with pytest.raises(KernelError, match=r"'launch'.*does not pickle"):
            kernel.launch(names[0], lambda ctx, bc: (yield ctx.sleep(0)))
        # Nothing was written for the failed call: the next command and its
        # reply still pair up, and the kernel runs.
        kernel.launch(names[0], "courier")
        assert kernel.run() > 0
        assert kernel.counters()["launched"] == 1
        kernel.close()
