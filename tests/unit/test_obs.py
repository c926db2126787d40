"""Unit tests for repro.obs: spans, tracers, sinks, metrics, report.

The cross-backend span-tree parity and realtime wall-stamp invariants
live in ``tests/properties/test_obs_properties.py``; this file pins the
building blocks — deterministic identity, bounded sinks, the registry's
digest round-trip, and the report analyzer's reconstruction primitives.
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest

from repro.core import Briefcase, Kernel, KernelConfig
from repro.core.kernel import EventLog
from repro.net import lan
from repro.obs import (Counter, Gauge, Histogram, JsonlSink, MetricsRegistry,
                       MetricsView, RealtimeSink, RingSink, TeeSink, Tracer,
                       infra_trace_id, span_id)
from repro.obs.report import (breakdown, build_trees, hop_timeline, load_trace,
                              percentile, trace_ids)
from scenarios import COURIER_NAME, SINK_NAME, courier_briefcase, report_sink


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


# -- identity ---------------------------------------------------------------


def test_span_id_is_content_derived():
    assert span_id("t0:a:1", "ft-hop", "hop2") == "t0:a:1/ft-hop#hop2"


def test_infra_trace_ids_are_tilde_prefixed():
    assert infra_trace_id("store", "n3") == "~store:n3"


def test_next_key_counter_is_deterministic():
    first = Tracer(clock=FakeClock())
    second = Tracer(clock=FakeClock())
    keys = [first.next_key("s0") for _ in range(3)]
    assert keys == [second.next_key("s0") for _ in range(3)]
    assert keys == ["s0:1", "s0:2", "s0:3"]


# -- tracer lifecycle -------------------------------------------------------


def test_disabled_tracer_is_inert():
    tracer = Tracer.disabled()
    assert not tracer.active
    tracer.record("t", "noop", "k", start=0.0)
    assert tracer.export() == []


def test_begin_finish_stamps_clock_and_merges_attrs():
    clock = FakeClock(1.5)
    tracer = Tracer(clock=clock)
    span = tracer.begin("t", "work", "k", attrs={"a": 1})
    clock.now = 4.0
    tracer.finish(span, status="done")
    [exported] = tracer.export()
    assert exported["start"] == 1.5 and exported["end"] == 4.0
    assert exported["attrs"] == {"a": 1, "status": "done"}
    assert exported["span_id"] == "t/work#k"


def test_sampling_is_deterministic_and_roughly_proportional():
    tracer = Tracer(sample=0.25)
    ids = [f"t0:site{i}:{i}" for i in range(400)]
    kept = [tid for tid in ids if tracer.sampled(tid)]
    assert kept == [tid for tid in ids if tracer.sampled(tid)]
    assert 0.10 < len(kept) / len(ids) < 0.40
    assert all(Tracer(sample=1.0).sampled(tid) for tid in ids)
    assert not any(Tracer(sample=0.0).sampled(tid) for tid in ids)


def test_wall_timer_stamps_start_and_end():
    ticks = iter([10.0, 11.0])
    tracer = Tracer(clock=FakeClock(), wall_timer=lambda: next(ticks))
    span = tracer.begin("t", "work", "k")
    tracer.finish(span)
    [exported] = tracer.export()
    assert exported["wall_start"] == 10.0 and exported["wall_end"] == 11.0


# -- sinks ------------------------------------------------------------------


def test_ring_sink_bounds_and_since():
    ring = RingSink(capacity=3)
    for i in range(5):
        ring.emit({"i": i})
    assert ring.total == 5 and ring.dropped == 2 and len(ring) == 3
    assert [span["i"] for span in ring.export()] == [2, 3, 4]
    # A reader at seq 1 lost span 1 to the ring; it gets the retained tail.
    seq, fresh = ring.since(1)
    assert seq == 5 and [span["i"] for span in fresh] == [2, 3, 4]
    seq, fresh = ring.since(seq)
    assert fresh == []


def test_jsonl_sink_round_trips_through_load_trace():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        sink = JsonlSink(path)
        sink.emit({"span_id": "t/a#1", "trace_id": "t", "start": 0.0})
        sink.emit({"span_id": "t/b#2", "trace_id": "t", "start": 1.0})
        sink.close()
        assert sink.written == 2
        assert [span["span_id"] for span in load_trace(path)] == \
            ["t/a#1", "t/b#2"]


def test_realtime_sink_stamps_emit_time_and_tee_fans_out():
    left, right = RingSink(), RingSink()
    sink = RealtimeSink(TeeSink([left, right]), timer=lambda: 42.0)
    sink.emit({"span_id": "s"})
    for ring in (left, right):
        [span] = ring.export()
        assert span["wall_emitted"] == 42.0


# -- metrics ----------------------------------------------------------------


def test_counter_gauge_histogram_basics():
    counter = Counter("hops")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    gauge = Gauge("depth")
    gauge.set(7)
    assert gauge.value == 7
    assert Gauge("live", fn=lambda: 3.5).value == 3.5
    histogram = Histogram("lat")
    for value in (0.001, 0.002, 0.004, 10.0):
        histogram.observe(value)
    assert histogram.count == 4
    assert histogram.quantile(0.5) is not None
    assert histogram.summary()["count"] == 4


def test_histogram_merge_accumulates_buckets():
    left, right = Histogram("lat"), Histogram("lat")
    left.observe(0.01)
    right.observe(0.02)
    right.observe(100.0)
    left.merge_from(right)
    assert left.count == 3
    assert left.quantile(0.99) >= left.quantile(0.5)


def test_registry_get_or_create_and_sources():
    registry = MetricsRegistry()
    assert registry.counter("sends") is registry.counter("sends")
    registry.counter("sends").inc(3)
    registry.register("net", lambda: {"bytes_total": 128})
    collected = registry.collect()
    assert collected["sends"] == 3 and collected["bytes_total"] == 128
    assert "bytes_total" not in registry.collect_own()
    assert registry.collect(prefix="bytes_") == {"bytes_total": 128}
    registry.unregister("net")
    assert "bytes_total" not in registry.collect()


def test_registry_state_round_trip_excludes_sources():
    worker = MetricsRegistry()
    worker.counter("sends").inc(2)
    worker.gauge("depth").set(1.0)
    worker.histogram("lat").observe(0.005)
    worker.register("net", lambda: {"unpicklable": object()})
    mirror = MetricsRegistry()
    mirror.load_state(worker.export_state())
    assert mirror.collect_own()["sends"] == 2
    assert mirror.histogram("lat").count == 1
    assert "unpicklable" not in mirror.collect()
    # Digests are cumulative snapshots: reloading must not double-count.
    worker.counter("sends").inc()
    mirror.load_state(worker.export_state())
    assert mirror.collect_own()["sends"] == 3


def test_metrics_view_merges_shards():
    parts = [MetricsRegistry(), MetricsRegistry()]
    parts[0].counter("sends").inc(2)
    parts[1].counter("sends").inc(3)
    parts[0].histogram("lat").observe(0.001)
    parts[1].histogram("lat").observe(0.1)
    view = MetricsView(parts)
    collected = view.collect()
    assert collected["sends"] == 5
    assert collected["lat"]["count"] == 2


def _courier_metrics(shards, backend="inproc"):
    """``(kernel.metrics.collect(), [engine.metrics.collect(), ...])`` after
    six couriers crossed a 6-site LAN through the batching fabric."""
    names = [f"s{i}" for i in range(6)]
    kernel = Kernel(lan(names, latency=0.002), transport="tcp",
                    config=KernelConfig(rng_seed=7, shards=shards,
                                        shard_backend=backend,
                                        delivery_batch_window=0.01,
                                        flow_window_min=0.005,
                                        flow_window_max=0.05))
    kernel.install_agent(None, SINK_NAME, report_sink)
    for index, name in enumerate(names):
        kernel.launch(name, COURIER_NAME, courier_briefcase(
            names[(index + 3) % len(names)], work=0.01, payload_bytes=16))
    kernel.run()
    collected = kernel.metrics.collect()
    per_engine = [engine.metrics.collect() for engine in kernel.engines]
    kernel.close()
    return collected, per_engine


def test_metrics_collect_keeps_engine_sources_on_every_backend(backend):
    """The flow and transport sources each engine registers survive the
    merge: same keys as one engine, values summed over the engines."""
    single, _ = _courier_metrics(shards=1)
    merged, per_engine = _courier_metrics(shards=2, backend=backend)
    assert set(merged) == set(single)
    for key in ("flow_pairs_tracked", "flow_window_clamped_min",
                "flow_window_clamped_max", "tcp_connections_open",
                "tcp_connects_total"):
        assert merged[key] == sum(part[key] for part in per_engine), key
    assert merged["flow_pairs_tracked"] == single["flow_pairs_tracked"] > 0
    assert merged["tcp_connects_total"] > 0


# -- event log --------------------------------------------------------------


def test_event_log_bounds_and_since():
    log = EventLog(max_entries=3)
    for i in range(5):
        log.append((float(i), f"a{i}", "site", "msg"))
    assert len(log) == 3 and log.total == 5 and log.dropped == 2
    seq, fresh = log.since(0)
    assert seq == 5 and [entry[0] for entry in fresh] == [2.0, 3.0, 4.0]
    seq, fresh = log.since(4)
    assert [entry[0] for entry in fresh] == [4.0]
    assert log.since(seq) == (5, [])


def test_event_log_max_config_reaches_kernel():
    kernel = Kernel(lan(["a"]), config=KernelConfig(event_log_max=2))
    for i in range(4):
        kernel.log_event("agent", "a", f"line {i}")
    assert len(kernel.event_log) == 2
    assert kernel.event_log.total == 4
    kernel.close()


# -- report analyzer --------------------------------------------------------


def _span(trace, name, key, parent=None, start=0.0, end=None, **extra):
    base = {"trace_id": trace, "span_id": span_id(trace, name, key),
            "name": name, "parent_id": parent, "start": start,
            "end": start if end is None else end}
    base.update(extra)
    return base


def test_build_trees_links_children_and_promotes_orphans():
    root = _span("t", "launch", "root")
    child = _span("t", "run", "s:1", parent=root["span_id"], start=1.0)
    orphan = _span("t", "run", "s:9", parent="t/missing#x", start=2.0)
    trees = build_trees([child, orphan, root])
    roots = trees["t"]
    assert [node.span["name"] for node in roots] == ["launch", "run"]
    assert [node.span["span_id"] for node in roots[0].children] == \
        [child["span_id"]]


def test_hop_timeline_orders_and_indents():
    root = _span("t", "launch", "root")
    hop = _span("t", "ft-hop", "hop1", parent=root["span_id"],
                start=0.5, end=2.0)
    rows = hop_timeline([hop, root], "t")
    assert [(row["name"], row["depth"]) for row in rows] == \
        [("launch", 0), ("ft-hop", 1)]
    assert rows[1]["duration"] == 1.5


def test_trace_ids_hides_infra_pseudo_traces():
    spans = [_span("ft-1", "ft-hop", "hop1"),
             _span(infra_trace_id("store", "n0"), "wal-commit", "n0:1")]
    assert trace_ids(spans) == ["ft-1"]
    assert set(trace_ids(spans, include_infra=True)) == {"ft-1", "~store:n0"}


def test_percentile_and_breakdown():
    # Nearest-rank convention: rank = round(q * (n - 1)).
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(3.0)
    spans = [_span("t", "migration", f"k{i}", start=0.0, end=float(i + 1),
                   source="a", destination="b", kind="net")
             for i in range(4)]
    by_pair = breakdown(spans, by="pair")
    assert by_pair["a->b"]["count"] == 4
    assert by_pair["a->b"]["p50"] <= by_pair["a->b"]["p99"]


# -- kernel integration -----------------------------------------------------


def visitor(ctx, bc):
    dest = bc.get("DEST")
    if dest:
        bc.set("DEST", "")   # the shipped copy must not jump again
        yield ctx.jump(bc, dest)
        return "moved"
    yield ctx.sleep(0)
    return "arrived"


@pytest.fixture(autouse=True)
def _registered_visitor():
    from repro.core.registry import register_behaviour
    register_behaviour("obs_test_visitor", visitor, replace=True)


def test_kernel_obs_off_by_default_records_nothing():
    kernel = Kernel(lan(["a", "b"]))
    briefcase = Briefcase()
    briefcase.set("DEST", "b")
    kernel.launch("a", visitor, briefcase)
    kernel.run()
    assert not kernel.obs.active
    assert kernel.trace_spans() == []
    kernel.close()


def test_kernel_traces_one_migration_end_to_end():
    kernel = Kernel(lan(["a", "b"]),
                    config=KernelConfig(obs_enabled=True))
    briefcase = Briefcase()
    briefcase.set("DEST", "b")
    kernel.launch("a", visitor, briefcase)
    kernel.run()
    spans = kernel.trace_spans()
    names = [span["name"] for span in spans]
    assert names.count("launch") == 1
    assert names.count("migration") == 1
    # visitor at a, the rexec/ag_py system agents, and the shipped copy
    # at b all run inside the same trace
    assert names.count("run") >= 3
    run_sites = {span["site"] for span in spans if span["name"] == "run"}
    assert {"a", "b"} <= run_sites
    trees = build_trees(spans)
    [trace] = trace_ids(spans)
    [root] = trees[trace]
    assert root.span["name"] == "launch"
    migration = [span for span in spans if span["name"] == "migration"]
    assert migration[0]["source"] == "a"
    assert migration[0]["destination"] == "b"
    kernel.close()


def test_dump_trace_matches_live_jsonl(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    kernel = Kernel(lan(["a", "b"]),
                    config=KernelConfig(obs_enabled=True, obs_path=path))
    briefcase = Briefcase()
    briefcase.set("DEST", "b")
    kernel.launch("a", visitor, briefcase)
    kernel.run()
    live = kernel.trace_spans()
    kernel.close()
    with open(path, encoding="utf-8") as handle:
        written = [json.loads(line) for line in handle if line.strip()]
    assert [span["span_id"] for span in written] == \
        [span["span_id"] for span in live]


def test_ft_itinerary_reconstructs_from_one_jsonl_dump(tmp_path):
    """A rear-guarded itinerary on two shards with durable checkpoints: the
    whole journey — launch, one hop span per site, a migration between
    consecutive sites, checkpoint barrier waits, guard releases, delivery —
    reads back from the facade's single JSONL file, with the WAL commits
    beside it under their own pseudo-trace ids."""
    from repro.fault import launch_ft_computation
    path = str(tmp_path / "trace.jsonl")
    sites = ["alpha", "beta", "gamma", "delta"]
    kernel = Kernel(lan(sites), config=KernelConfig(
        shards=2, obs_enabled=True, obs_path=path,
        durability="wal-group-commit"))
    launch_ft_computation(kernel, sites[0], sites[1:], ft_id="ft-traced",
                          durable_checkpoints=True)
    kernel.run(until=120.0)
    live = kernel.trace_spans()
    kernel.close()

    dumped = load_trace(path)
    assert len(dumped) == len(live)
    assert "ft-traced" in trace_ids(dumped)
    rows = hop_timeline(dumped, "ft-traced")
    names = [row["name"] for row in rows]
    assert names[0] == "launch"
    assert names.count("ft-hop") == len(sites)
    assert names.count("migration") == len(sites) - 1
    assert "ft-ckpt" in names and "ft-release" in names
    last_hop = [row for row in rows if row["name"] == "ft-hop"][-1]
    assert last_hop["attrs"]["status"] == "delivered"
    assert any(span["name"] == "wal-commit" for span in dumped
               if span["trace_id"].startswith("~"))


def test_sharded_log_event_routes_to_owning_shard():
    kernel = Kernel(lan(["a", "b", "c", "d"]),
                    config=KernelConfig(shards=2))
    kernel.log_event("agent-1", "d", "note at d")
    owner = next(engine for engine in kernel.engines if "d" in engine.sites)
    assert any(entry[2] == "d" and entry[3] == "note at d"
               for entry in owner.event_log)
    assert any(entry[3] == "note at d" for entry in kernel.event_log)
    kernel.close()
