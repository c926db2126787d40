"""Unit tests for repro.shard.backend: the shard execution backend seam.

Covers backend resolution, the engine protocol and the single handoff path
(spooled at send, routed by the coordinator, scheduled by the owner), the
ShardSet's fake-timer cost attribution (busy vs sync vs overhead — the
PR 6 busy-time fix), the ClockSync dirty-flag coalescing contract, budget
semantics across backends, the facade's ``shard_summary``/``close``
surface, every agent-ledger read compared across backends, and the
serialisation plumbing the process backend rides on (stats pickling,
topology route caching).
"""

from __future__ import annotations

import functools
import pickle
import re

import pytest

from repro.core import Briefcase, Folder, Kernel, KernelConfig
from repro.core.engine import ENGINE_PROTOCOL, Engine
from repro.core.lifecycle import AgentRecord
from repro.core.errors import KernelError
from repro.core.timing import default_timer
from repro.net import lan
from repro.net.message import Message, MessageKind
from repro.net.stats import NetworkStats, StatsView
from repro.net.topology import LinkSpec, NoRouteError, switched_fabric
from repro.shard import (BACKENDS, ClockSync, InprocBackend, Shard, ShardSet,
                         process_backend_available)
from repro.store.sitestore import SiteStore
from scenarios import (BAD_SLEEPER_NAME, COURIER_NAME, MAIL_CABINET, QUITTER_NAME,
                       SINK_NAME, UNPICKLABLE_RESULT_NAME, courier_briefcase,
                       report_sink, sharded_churn, worker)


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
                          placement={"a": 0, "b": 1})
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
            placement={"a": 0, "b": 1}))
        assert isinstance(worker.engine, Engine)
        assert worker.cmd_call("log_event", ("probe", "a", "hello"), {}) is None
        with pytest.raises(KernelError, match="engine protocol"):
            worker.cmd_call("close", (), {})


    def test_worker_digests_ship_rows_and_keep_markers_for_live_agents_only(self):
        from repro.core.lifecycle import AgentRecord, AgentTable
        from repro.shard.procworker import WorkerSpec, _Worker

        def life(ctx, bc):
            yield ctx.sleep(bc.get("WORK"))
            return ctx.site_name

        def launch(work):
            briefcase = Briefcase()
            briefcase.set("WORK", work)
            return worker.engine.launch("a", life, briefcase, name="life")

        def digest_into_mirror():
            new_rows, evicted, counters = worker.cmd_digest()["table"]
            assert all(type(row) is tuple for row in new_rows)
            mirror.absorb(new_rows, evicted, counters)
            assert mirror.state_counts() == table.state_counts()
            return [row[0] for row in new_rows], evicted

        def rows(table):
            return {agent_id: AgentRecord.row(entry)
                    for agent_id, entry in table.entries.items()}

        worker = _Worker(None, WorkerSpec(
            shard_id=0, topology=lan(["a", "b"]), transport="tcp",
            config=KernelConfig(retention=2),
            install_system_agents=False, placement={"a": 0, "b": 1}))
        mirror = AgentTable(2)
        table = worker.engine.table
        sleeper, first = launch(10.0), launch(0.01)
        worker.engine.run_to(1.0)
        assert digest_into_mirror() == ([sleeper, first], [])
        # A terminal entry cannot change again: an id is all the worker keeps.
        assert worker._sent_markers == {sleeper: ("waiting", 1, "a"), first: None}
        assert len(mirror) == 2 and rows(mirror) == rows(table)
        assert [entry.agent_id for entry in mirror.named("life")] == [sleeper, first]
        assert digest_into_mirror() == ([], [])                  # nothing changed
        later = [launch(0.01) for _ in range(3)]
        worker.engine.run_to(2.0)                                # evicts first and later[0]
        assert digest_into_mirror() == (later[1:], [first])
        assert rows(mirror) == rows(table) and len(mirror) == len(table) == 3
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
            counters = engines[1].counters()
            assert counters["arrivals"] == 1 and counters["undeliverable"] == 0
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
        # Shard 1 never ran an event: its clock moved once, landing on
        # until when the run ended, and it was charged nothing.
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
        sync = kernel._coordinator.clock_sync
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
                        reason="cannot fork shard workers on this host")
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
            assert "rounds" not in summary
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
        stats.shard_late_arrivals += 1
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
        handle = _WorkerHandle(3, coordinator, SimpleNamespace(
            exitcode=1, join=lambda timeout=None: None))
        with pytest.raises(KernelError, match=r"shard 3 worker died \(exitcode=1\)"):
            handle.recv()
        coordinator.close()

    def test_a_worker_dead_before_its_first_reply_fails_the_kernel_constructor(
            self, monkeypatch):
        """``Kernel(...)`` raises, naming the shard and its real exit code,
        instead of returning a kernel whose first call fails.  The forked
        worker inherits the patched ``Engine``."""
        import os

        from repro.shard import procworker
        if not process_backend_available():
            pytest.skip("cannot fork shard workers on this host")
        monkeypatch.setattr(procworker, "Engine", lambda *args, **kwargs: os._exit(3))
        with pytest.raises(KernelError, match=r"^shard 0 worker died \(exitcode=3\) "
                                              r"before its first reply$"):
            sharded_kernel("process", site_count=4, shards=2)


# ---------------------------------------------------------------------------
# crash and recovery, inproc vs process
# ---------------------------------------------------------------------------

def crash_kernel(backend, durability, shards=2, **config):
    """Four sites, "d" alone on shard 0 and "a".."c" on shard 1 (at shards=2)."""
    placement = {"a": 1, "b": 1, "c": 1, "d": 0} if shards == 2 else None
    kernel = Kernel(lan(["a", "b", "c", "d"], latency=0.002), transport="tcp",
                    config=KernelConfig(rng_seed=7, shards=shards, shard_backend=backend,
                                        shard_placement=placement,
                                        durability=durability, **config))
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
                    reason="cannot fork shard workers on this host")
def test_couriers_to_a_crashed_peer_count_alike_on_both_backends():
    assert (couriers_to_a_crashed_peer("process")[0]
            == couriers_to_a_crashed_peer("inproc")[0])


@pytest.mark.skipif(not process_backend_available(),
                    reason="cannot fork shard workers on this host")
@pytest.mark.xfail(strict=True, reason=(
    "a process worker's topology never learns that a site another worker "
    "hosts crashed, so traffic to it is handed off instead of dropped at "
    "send; the fix needs a recovery notice through the handoff path"))
def test_couriers_to_a_crashed_peer_move_the_same_shard_stats_on_both_backends():
    assert (couriers_to_a_crashed_peer("process")[1]
            == couriers_to_a_crashed_peer("inproc")[1])


# ---------------------------------------------------------------------------
# the agent ledger, inproc vs process
# ---------------------------------------------------------------------------

def work_briefcase(seconds):
    briefcase = Briefcase()
    briefcase.set("WORK", seconds)
    return briefcase


def test_agent_ids_are_unique_across_engines(backend):
    kernel = crash_kernel(backend, "none")
    at_d, at_a = (kernel.launch(site, worker, work_briefcase(1.0))
                  for site in ("d", "a"))
    kernel.run()
    assert at_d != at_a
    assert [kernel.agent(at_d).site_name, kernel.agent(at_a).site_name] == ["d", "a"]
    assert len(kernel.table.entries) == len(kernel.table) == 2
    kernel.close()


def test_a_durable_store_is_read_in_process_only(backend):
    kernel = crash_kernel(backend, "wal-group-commit")
    if backend == "inproc":
        assert isinstance(kernel.store("c"), SiteStore)
    else:
        # None would claim policy "none"; the store lives in the worker.
        with pytest.raises(KernelError, match="shard_backend='inproc'"):
            kernel.store("c")
    kernel.close()
    kernel = crash_kernel(backend, "none")
    assert kernel.store("c") is None
    kernel.close()


#: the launch names whose entries ``agents_named`` is compared by
LEDGER_NAMES = (COURIER_NAME, SINK_NAME, "itinerant", "doomed")


def ledger_reads(kernel):
    """What a caller reads of the ledger: every entry's row (errors by repr,
    as exceptions compare by identity), the type and public names of every
    finished entry, the table's counts and name index, each site's flags
    and load, each engine's event count, and the clock."""
    def rows(entries):
        return [row[:5] + (repr(row[5]),) + row[6:]
                for row in map(AgentRecord.row, entries)]

    return {
        "rows": rows(kernel.table.entries.values()),
        "finished": {(type(entry), tuple(name for name in dir(entry)
                                          if not name.startswith("_")))
                     for entry in kernel.table.entries.values() if entry.finished},
        "counts": kernel.table.state_counts(),
        "named": {name: rows(kernel.agents_named(name)) for name in LEDGER_NAMES},
        "sites": {name: (kernel.site(name).alive, kernel.site(name).resident_count(),
                         kernel.site(name).undeliverable, kernel.site_load(name))
                  for name in kernel.site_names()},
        "processed": [engine.loop.processed for engine in kernel.engines],
        "now": kernel.now,
    }


def ledger_script(backend, retention, shards=2, read=ledger_reads, durable=None):
    """*read* (by default :func:`ledger_reads`) mid-flight, then after "c"
    crashes and recovers and a final ``run()``: couriers and an itinerant
    cross the shards, one agent fails, one dies in the crash.  A *durable*
    cabinet is journaled everywhere."""
    kernel = crash_kernel(backend, "wal-group-commit", shards, retention=retention)
    if durable is not None:
        kernel.make_durable(durable)
    for site, peer in (("d", "c"), ("a", "d"), ("b", "c")):
        kernel.launch(site, COURIER_NAME, courier_briefcase(
            peer, work=0.05, count=2, payload_bytes=64))
    kernel.launch("c", worker, work_briefcase(5.0), name="doomed")
    kernel.launch("a", worker, Briefcase(), name="doomed")  # no WORK: fails
    tour = Briefcase()
    tour.folder("TOUR", create=True).extend(["a", "c", "d", "b"])
    kernel.launch("d", "itinerant", tour)
    kernel.run(until=0.1)
    reads = [read(kernel)]
    kernel.crash_site("c")
    kernel.recover_site("c")
    kernel.run()
    reads.append(read(kernel))
    kernel.close()
    return reads


@pytest.mark.skipif(not process_backend_available(),
                    reason="cannot fork shard workers on this host")
@pytest.mark.parametrize("retention", [None, 3])
def test_ledger_reads_match_across_backends(retention):
    process = ledger_script("process", retention)
    assert process == ledger_script("inproc", retention)
    mid_flight, final = process
    assert mid_flight["counts"]["active"] > 0
    assert final["counts"]["killed"] == 1 and final["counts"]["failed"] == 1
    # One engine: a finished agent has the same form, and the script's own
    # agents the same rows but for their ids (minted per engine).
    for reads, alone in zip(process, ledger_script("inproc", retention, shards=1)):
        assert reads["finished"] == alone["finished"] == {
            (AgentRecord, ("agent_id", "error", "finished", "finished_at", "name",
                           "ok", "parent_id", "result", "row", "site_name",
                           "started_at", "state", "steps", "visited"))}
        if retention is None:       # a bound is per engine: it evicts per shard count
            for name in ("itinerant", "doomed"):
                assert ([row[1:7] + row[8:] for row in reads["named"][name]]
                        == [row[1:7] + row[8:] for row in alone["named"][name]])


#: the kernel events ``counters()`` reports beside the agent-state counts
EVENT_COUNTERS = ("meets", "transmits", "arrivals", "undeliverable")


def counter_reads(kernel):
    """Each event counter as ``stats`` holds it, as ``counters()`` reports
    it and summed over the engines; the stats snapshot's durability keys,
    and ``store_summary()``."""
    durability = {key: value for key, value in kernel.stats.snapshot().items()
                  if key.startswith(("wal_", "store_", "recover", "durable_",
                                     "state_lost_"))}
    return {
        "events": {name: (getattr(kernel.stats, name), kernel.counters()[name],
                          sum(getattr(engine.stats, name) for engine in kernel.engines))
                   for name in EVENT_COUNTERS},
        "durability": durability,
        "store_summary": kernel.store_summary(),
    }


def test_every_counter_has_one_home(backend):
    """The four event counters live in ``NetworkStats`` on every engine and
    backend, and ``store_summary()`` is the snapshot's durability keys plus
    the policy, equal on one engine and on two."""
    alone = ledger_script("inproc", None, shards=1, read=counter_reads,
                          durable=MAIL_CABINET)
    sharded = ledger_script(backend, None, read=counter_reads, durable=MAIL_CABINET)
    for reads in (*alone, *sharded):
        for name, (in_stats, in_counters, summed) in reads["events"].items():
            assert in_stats == in_counters == summed, name
        assert reads["store_summary"] == {**reads["durability"],
                                          "policy": "wal-group-commit"}
    _, final = alone
    assert final["events"]["meets"][0] > 0 and final["events"]["arrivals"][0] > 0
    assert final["store_summary"]["wal_commits"] > 0
    assert final["store_summary"]["recoveries"] == 1
    assert [reads["store_summary"] for reads in sharded] == \
        [reads["store_summary"] for reads in alone]


def failed_burst_script(backend):
    """A round in which "d"'s burst (shard 0) raises while "a"'s (shard 1)
    runs; then a launch on shard 1 and a clean ``run()``."""
    kernel = crash_kernel(backend, "none")
    kernel.launch("a", COURIER_NAME, courier_briefcase("b", work=0.5))
    kernel.launch("d", BAD_SLEEPER_NAME)
    with pytest.raises(Exception, match="could not convert string to float: 'soon'"):
        kernel.run()
    agent_id = kernel.launch("c", COURIER_NAME, courier_briefcase("b"))
    assert isinstance(agent_id, str) and agent_id.startswith("agent-")
    kernel.run()
    outcome = (agent_id, kernel.counters(), kernel.result_of(agent_id))
    kernel.close()
    return outcome


def test_a_failed_burst_leaves_no_reply_unread(backend):
    """The healthy shard's reply to the failed round is read by that round,
    not by the next command sent to its worker."""
    outcome = failed_burst_script(backend)
    assert outcome == failed_burst_script("inproc")
    # Both couriers' reports were met; only the bad sleeper is left hanging.
    assert outcome[1]["meets"] == 2 and outcome[1]["active"] == 1
    assert outcome[2] == "c"


#: calls that raise inside an engine, through the facade
ENGINE_ERRORS = {
    "unknown-launch": lambda kernel: kernel.launch("a", "no_such_behaviour"),
    "unknown-launch_many": lambda kernel: kernel.launch_many(
        [("a", COURIER_NAME, courier_briefcase("b")), ("b", "no_such_behaviour")]),
    "negative-delay": lambda kernel: kernel.launch("a", COURIER_NAME, delay=-1.0),
    "bad-sleep": lambda kernel: (kernel.launch("d", BAD_SLEEPER_NAME), kernel.run()),
}


def engine_error(backend, case):
    kernel = crash_kernel(backend, "none")
    try:
        with pytest.raises(Exception) as caught:
            ENGINE_ERRORS[case](kernel)
    finally:
        kernel.close()
    return caught.value


@pytest.mark.parametrize("case", sorted(ENGINE_ERRORS))
def test_an_engine_error_keeps_its_type_and_message(backend, case):
    error = engine_error(backend, case)
    expected = engine_error("inproc", case)
    assert (type(error), str(error)) == (type(expected), str(expected))
    if backend == "process":
        # Where it was raised: the worker's traceback, as the cause.
        assert isinstance(error.__cause__, KernelError)
        assert re.match(r"shard [01] worker: Traceback", str(error.__cause__))


# ---------------------------------------------------------------------------
# process backend odds and ends (gated on fork availability)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not process_backend_available(),
                    reason="cannot fork shard workers on this host")
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

    def test_behaviours_from_a_scripts_main_and_a_path_loaded_module_run(self, tmp_path):
        """A forked worker holds whatever the coordinator registered before
        ``Kernel(...)``: a behaviour defined in an unguarded script's
        ``__main__`` and one from a module loaded by file path run there."""
        import os
        import subprocess
        import sys

        import repro
        module = tmp_path / "loaded_by_path.py"
        module.write_text(
            "from repro.core import register_behaviour\n"
            "def there(ctx, bc):\n"
            "    yield ctx.sleep(0.01)\n"
            "    return 'path:' + ctx.site_name\n"
            "register_behaviour('from_path', there)\n", encoding="utf-8")
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import importlib.util\n"
            "from repro.core import Kernel, KernelConfig, register_behaviour\n"
            "from repro.net import lan\n"
            "def here(ctx, bc):\n"
            "    yield ctx.sleep(0.01)\n"
            "    return 'main:' + ctx.site_name\n"
            "register_behaviour('from_main', here)\n"
            f"spec = importlib.util.spec_from_file_location('loaded_by_path', {str(module)!r})\n"
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
            "kernel = Kernel(lan(['a', 'b', 'c', 'd']), config=KernelConfig(\n"
            "    shards=2, shard_backend='process',\n"
            "    shard_placement={'a': 0, 'b': 0, 'c': 1, 'd': 1}))\n"
            "ids = [kernel.launch('a', 'from_main'), kernel.launch('c', 'from_path')]\n"
            "kernel.run()\n"
            "print([kernel.result_of(agent_id) for agent_id in ids])\n"
            "kernel.close()\n", encoding="utf-8")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "['main:a', 'path:c']", done.stdout

    def test_digest_fed_ring_keeps_the_configured_bound(self):
        """``obs_ring`` bounds what the coordinator retains per engine too:
        after repeated runs it holds what the in-process engines hold, log
        lines and spans alike, not everything the digests ever shipped."""
        def retained(backend):
            names = [f"s{i}" for i in range(4)]
            kernel = Kernel(lan(names, latency=0.002), transport="tcp",
                            config=KernelConfig(
                                rng_seed=7, shards=2, shard_backend=backend,
                                shard_placement={"s0": 0, "s1": 0,
                                                 "s2": 1, "s3": 1},
                                obs_ring=7, obs_enabled=True))
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
            rings = [(engine.ring.lines(), engine.ring.export())
                     for engine in kernel.engines]
            kernel.close()
            return rings

        rings = retained("process")
        assert [len(lines) + len(spans) for lines, spans in rings] == [7, 7]
        assert all(lines and spans for lines, spans in rings)
        assert rings == retained("inproc")

    def test_unpicklable_behaviour_raises_a_kernel_error_and_the_pipe_survives(self):
        kernel, names = sharded_kernel("process", site_count=4, shards=2)
        with pytest.raises(KernelError, match=r"'launch'.*does not pickle"):
            kernel.launch(names[0], lambda ctx, bc: (yield ctx.sleep(0)))
        # The worker dropped whatever frames of the failed call got out: the
        # next command and its reply still pair up, and the kernel runs.
        kernel.launch(names[0], "courier")
        assert kernel.run() > 0
        assert kernel.counters()["launched"] == 1
        kernel.close()

    def test_a_share_that_fails_after_its_first_frames_leaves_the_pipe_paired(self):
        """The lambda comes after more than 64 KiB of the share were written
        to the pipe: the abort marker tells the worker to drop them."""
        kernel = crash_kernel("process", "none")
        blob = Briefcase()
        blob.set("BLOB", bytes(200 * 1024))
        requests = [("a", COURIER_NAME, courier_briefcase("b")) for _ in range(500)]
        requests += [("a", "courier", blob), ("b", lambda ctx, bc: (yield ctx.sleep(0)))]
        with pytest.raises(KernelError, match=r"'launch_many'.*does not pickle"):
            kernel.launch_many(requests)
        # Its second "c" pickles as a reference into the first: a worker that
        # read the share's frames and this batch as one message would
        # resolve it against the share's memo.
        ids = kernel.launch_many([("c", COURIER_NAME, courier_briefcase("b"))
                                  for _ in range(2)])
        assert kernel.run() > 0
        assert [kernel.result_of(agent_id) for agent_id in ids] == ["c", "c"]
        assert len(kernel.agents_named(COURIER_NAME)) == 2  # none of the share
        kernel.close()

    def test_a_reply_that_fails_after_its_first_frames_leaves_the_pipe_paired(self):
        """Worker to coordinator: a digest that stops pickling after 200 KiB
        is dropped, the error said, and the next call answered."""
        kernel = crash_kernel("process", "none")
        kernel.launch("a", UNPICKLABLE_RESULT_NAME)
        with pytest.raises(KernelError, match=r"shard 1 worker failed: "
                                              r"unpicklable reply to 'digest'"):
            kernel.run()
        agent_id = kernel.launch("c", COURIER_NAME, courier_briefcase("b"))
        assert kernel.run() > 0
        assert kernel.result_of(agent_id) == "c"
        kernel.close()

    def test_a_worker_stopped_after_its_handshake_says_so(self):
        kernel = crash_kernel("process", "none")
        kernel.launch("a", QUITTER_NAME)
        with pytest.raises(KernelError, match=r"shard 1 worker failed: "
                                              r"worker stopped: SystemExit"):
            kernel.run()
        kernel.close()
