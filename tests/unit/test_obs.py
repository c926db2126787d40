"""Unit tests for repro.obs: spans, tracers, sinks, metrics, report.

The cross-backend span-tree parity invariants live in
``tests/properties/test_obs_properties.py``; this file pins the building
blocks — deterministic identity, bounded sinks, the registry's named
sources, and the report analyzer's reconstruction primitives and CLI.
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest

from repro.core import Briefcase, Kernel, KernelConfig
from repro.net import lan
from repro.obs import (JsonlSink, MetricsRegistry, RingSink, TeeSink, Tracer,
                       infra_trace_id, span_id)
from repro.obs.report import (breakdown, build_trees, format_timeline, hop_timeline,
                              load_trace, main, percentile, trace_ids)
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


# -- sinks ------------------------------------------------------------------


def test_ring_sink_bounds_and_since():
    # Log lines and spans share one ring, in the order they were emitted.
    ring = RingSink(capacity=4)
    for i in range(3):
        ring.emit((float(i), f"a{i}", "site", "msg"))
        ring.emit({"span_id": f"s{i}"})
    # Six records in, four kept: the oldest line and span went first.
    assert ring.total == 6 and ring.dropped == 2 and len(ring) == 4
    assert [line[0] for line in ring.lines()] == [1.0, 2.0]
    assert [span["span_id"] for span in ring.export()] == ["s1", "s2"]
    # A reader at seq 1 lost record 1 to the ring; it gets the retained tail.
    seq, fresh = ring.since(1)
    assert seq == 6 and fresh == [(1.0, "a1", "site", "msg"), {"span_id": "s1"},
                                  (2.0, "a2", "site", "msg"), {"span_id": "s2"}]
    seq, fresh = ring.since(5)
    assert fresh == [{"span_id": "s2"}]
    assert ring.since(seq) == (6, [])


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


def test_tee_sink_fans_out():
    left, right = RingSink(), RingSink()
    sink = TeeSink([left, right])
    sink.emit({"span_id": "s"})
    for ring in (left, right):
        assert ring.export() == [{"span_id": "s"}]
    assert sink.export() == [{"span_id": "s"}]


# -- metrics ----------------------------------------------------------------


def test_registry_collects_named_sources():
    registry = MetricsRegistry()
    registry.register("net", lambda: {"bytes_total": 128, "sends": 3})
    registry.register("flow", lambda: {"flow_pairs_tracked": 2})
    assert registry.collect() == {"bytes_total": 128, "sends": 3,
                                  "flow_pairs_tracked": 2}
    assert registry.collect(prefix="bytes_") == {"bytes_total": 128}
    assert registry.collect(skip=("net",)) == {"flow_pairs_tracked": 2}
    # Sources are re-read on every collect; registering a name replaces it.
    registry.register("flow", lambda: {"flow_pairs_tracked": 5})
    assert registry.collect()["flow_pairs_tracked"] == 5


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


# -- event log: log lines in the record ring ---------------------------------


def test_obs_ring_bounds_the_kernel_event_log():
    kernel = Kernel(lan(["a"]), config=KernelConfig(obs_ring=2))
    for i in range(4):
        kernel.log_event("agent", "a", f"line {i}")
    assert [line[3] for line in kernel.event_log] == ["line 2", "line 3"]
    assert kernel.ring.total == 4
    kernel.close()


def test_log_lines_stay_out_of_the_trace(tmp_path):
    """Lines and spans share the ring, but the trace (export, dump, the
    live JSONL file) holds spans only and the event log lines only."""
    path = str(tmp_path / "trace.jsonl")
    kernel = Kernel(lan(["a", "b"]),
                    config=KernelConfig(obs_enabled=True, obs_path=path))
    briefcase = Briefcase()
    briefcase.set("DEST", "b")
    kernel.launch("a", visitor, briefcase)
    kernel.log_event("operator", "a", "note")
    kernel.run()
    spans = kernel.trace_spans()
    kernel.close()
    assert spans and all(isinstance(span, dict) for span in spans)
    assert len(kernel.ring) == len(spans) + len(kernel.event_log)
    assert ("operator", "a", "note") in [line[1:] for line in kernel.event_log]
    assert len(load_trace(path)) == len(spans)
    dumped = str(tmp_path / "dump.jsonl")
    assert kernel.dump_trace(dumped) == len(spans)


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


def _migration_trace(tmp_path) -> str:
    """A JSONL trace of one traced migration, written live by a sim kernel."""
    path = str(tmp_path / "trace.jsonl")
    kernel = Kernel(lan(["a", "b"]),
                    config=KernelConfig(obs_enabled=True, obs_path=path))
    briefcase = Briefcase()
    briefcase.set("DEST", "b")
    kernel.launch("a", visitor, briefcase)
    kernel.run()
    kernel.close()
    return path


def test_report_cli_prints_timelines_and_breakdowns(tmp_path, capsys):
    path = _migration_trace(tmp_path)
    spans = load_trace(path)
    [trace] = trace_ids(spans)

    assert main([path]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{len(spans)} spans in {path}\n")
    assert f"== trace {trace} ({len(spans)} spans) ==" in out
    assert "== breakdown by subsystem (sim seconds) ==" in out

    assert main([path, "--by", "name"]) == 0
    out = capsys.readouterr().out
    assert "== breakdown by name (sim seconds) ==" in out
    for name in ("launch", "migration", "run"):
        assert any(line.startswith(name + " ") for line in out.splitlines()), name


def test_report_cli_rejects_an_unknown_breakdown_key_before_printing(tmp_path, capsys):
    path = _migration_trace(tmp_path)
    assert main([path, "--by", "bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'bogus'" in captured.err
    assert "name, pair, site, subsystem" in captured.err


def test_report_cli_without_arguments_prints_usage_and_fails(capsys):
    assert main([]) == 2
    assert capsys.readouterr().out.startswith("usage: python -m repro.obs.report")


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_report_cli_help_prints_usage_and_succeeds(flag, capsys):
    assert main([flag]) == 0
    assert capsys.readouterr().out.startswith("usage: python -m repro.obs.report")


@pytest.mark.parametrize("extra, bad", [
    (["--frobnicate"], "--frobnicate"),
    (["--by"], "--by"),          # a flag missing its value
    (["--trace"], "--trace"),
    (["other.jsonl"], "other.jsonl"),
], ids=["unknown-flag", "by-without-key", "trace-without-id", "second-path"])
def test_report_cli_rejects_malformed_arguments_before_reading(extra, bad, capsys):
    # The trace path does not exist: arguments are checked before it is read.
    assert main(["missing.jsonl", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown argument {bad!r}" in captured.err


@pytest.mark.parametrize("by", ["pair", "subsystem", "name", "site"])
def test_report_cli_prints_one_row_per_breakdown_key(by, tmp_path, capsys):
    path = _migration_trace(tmp_path)
    expected = breakdown(load_trace(path), by=by)
    assert expected, f"the migration trace has no {by!r} keys"
    assert main([path, "--by", by]) == 0
    section = capsys.readouterr().out.split(
        f"== breakdown by {by} (sim seconds) ==\n", 1)[1]
    rows = section.splitlines()
    assert [row.split()[0] for row in rows] == list(expected)
    for row, stats in zip(rows, expected.values()):
        assert f"n={stats['count']} " in row


def test_report_cli_trace_flag_prints_only_that_trace(tmp_path, capsys):
    path = _migration_trace(tmp_path)
    spans = load_trace(path)
    infra = sorted(set(trace_ids(spans, include_infra=True)) - set(trace_ids(spans)))
    [agent_trace] = trace_ids(spans)
    wanted = infra[0] if infra else agent_trace
    assert main([path, "--trace", wanted]) == 0
    out = capsys.readouterr().out
    headers = [line for line in out.splitlines() if line.startswith("== trace ")]
    count = sum(1 for span in spans if span["trace_id"] == wanted)
    assert headers == [f"== trace {wanted} ({count} spans) =="]


def test_report_cli_unknown_trace_prints_no_timeline(tmp_path, capsys):
    path = _migration_trace(tmp_path)
    assert main([path, "--trace", "no-such-trace"]) == 0
    out = capsys.readouterr().out
    assert "== trace " not in out
    assert "== breakdown by subsystem (sim seconds) ==" in out


def test_format_timeline_renders_depth_route_and_attrs():
    root = _span("t", "launch", "root", site="a")
    hop = _span("t", "migration", "m1", parent=root["span_id"], start=0.25,
                end=1.0, source="a", destination="b", attrs={"seq": 2, "bytes": 9})
    lines = format_timeline(hop_timeline([root, hop], "t")).splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("    0.000000s  launch")
    assert " a " in lines[0] and lines[0].endswith("+0.000000s")
    assert lines[1].startswith("      0.250000s  migration")   # indented one level
    assert "a->b" in lines[1]
    assert lines[1].endswith("+0.750000s bytes=9 seq=2")       # attrs sorted by key


def test_hop_timeline_rows_carry_only_sim_time_fields():
    root = _span("t", "launch", "root", site="a")
    hop = _span("t", "migration", "m1", parent=root["span_id"], start=0.5,
                end=2.0, source="a", destination="b", attrs={"seq": 1})
    base = {"depth", "name", "span_id", "parent_id", "site", "start", "end",
            "duration"}
    root_row, hop_row = hop_timeline([hop, root], "t")
    assert set(root_row) == base
    assert set(hop_row) == base | {"source", "destination", "attrs"}


def test_span_dicts_carry_only_sim_time_fields():
    tracer = Tracer(clock=FakeClock(3.0))
    span = tracer.begin("t", "work", "k", site="a")
    assert set(span.to_dict()) == {"trace_id", "span_id", "parent_id", "name",
                                   "kind", "site", "start", "end"}
    assert span.to_dict()["end"] == 3.0    # unfinished: end reads as start
    assert span.duration == 0.0


def test_kernel_metrics_read_only_simulated_sources():
    kernel = Kernel(lan(["a", "b"]), transport="tcp")
    engine, = kernel._engines
    assert list(engine.metrics._sources) == ["net", "flow", "transport"]
    kernel.close()


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
