"""Unit tests for repro.obs: spans, tracers, sinks, report.

The cross-backend span-tree parity invariants live in
``tests/properties/test_obs_properties.py``; this file pins the building
blocks — deterministic identity, bounded sinks, and the report analyzer's
reconstruction primitives and CLI.
"""

from __future__ import annotations

import pytest

from repro.core import Briefcase, Kernel, KernelConfig
from repro.net import lan
from repro.obs import RingSink, Tracer, infra_trace_id, span_id
from repro.obs.sinks import RING_CAPACITY
from repro.obs.report import (breakdown, build_trees, format_timeline, hop_timeline,
                              load_trace, main, percentile, trace_ids, write_trace)
from repro.shard import process_backend_available


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
    # Every disabled tracer shares one sink, which keeps nothing.
    assert tracer.sink is Tracer.disabled().sink
    assert type(tracer.sink).__slots__ == ()
    tracer.record("t", "noop", "k", start=0.0)


def test_begin_finish_stamps_clock_and_merges_attrs():
    clock = FakeClock(1.5)
    tracer = Tracer(clock=clock)
    span = tracer.begin("t", "work", "k", attrs={"a": 1})
    clock.now = 4.0
    tracer.finish(span, status="done")
    [exported] = tracer.sink.export()
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


def test_ring_sink_bounds_and_since(monkeypatch):
    # Log lines and spans share one ring, in the order they were emitted.
    monkeypatch.setattr("repro.obs.sinks.RING_CAPACITY", 4)
    ring = RingSink()
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


SPANS = [
    {"trace_id": "t", "span_id": "t/a#1", "parent_id": None, "name": "a",
     "start": 0.0, "end": 1.0},
    {"trace_id": "t", "span_id": "t/b#2", "parent_id": "t/a#1", "name": "b",
     "start": 0.5, "end": 0.75, "attrs": {"n": 1, "path": ["x", "y"]}},
    {"trace_id": "~store:n1", "span_id": "~store:n1/sync#1", "parent_id": None,
     "name": "sync", "start": 2.0, "end": 2.5},
]


class TestRingSink:
    """The one span sink: an engine's record ring."""

    def test_emitted_spans_are_recorded_in_order(self):
        sink = RingSink()
        for span in SPANS:
            sink.emit(span)
        assert sink.export() == SPANS

    def test_export_is_what_the_sink_keeps_in_memory(self):
        # Log lines share the ring in emission order; export reads the spans.
        sink = RingSink()
        sink.emit(SPANS[0])
        sink.emit((0.5, "agent-000001", "a", "note"))
        sink.emit(SPANS[1])
        assert sink.export() == SPANS[:2]
        assert len(sink) == 3

    def test_a_tracer_finishes_its_spans_into_the_sink(self):
        sink = RingSink()
        tracer = Tracer(clock=FakeClock(1.5), sink=sink)
        span = tracer.begin("t", "work", "k", attrs={"a": 1})
        tracer.finish(span, status="done")
        [finished] = sink.export()
        assert (finished["span_id"], finished["start"]) == ("t/work#k", 1.5)
        assert finished["attrs"] == {"a": 1, "status": "done"}


# -- the trace file ------------------------------------------------------------


def test_write_trace_round_trips_spans_and_replaces_the_file(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    assert write_trace(path, SPANS) == len(SPANS)
    assert load_trace(path) == SPANS
    assert write_trace(path, SPANS[:1]) == 1
    assert load_trace(path) == SPANS[:1]


def test_write_trace_encodes_attrs_json_has_no_type_for(tmp_path):
    # A set comes back as a sorted list, a tuple as a list, anything else
    # as its repr: one exotic attr value never loses the whole trace.
    class Opaque:
        def __repr__(self):
            return "<opaque>"

    span = dict(SPANS[0], attrs={"peers": {"c", "a", "b"}, "hop": ("a", 2),
                                 "state": Opaque()})
    path = str(tmp_path / "trace.jsonl")
    write_trace(path, [span])
    [loaded] = load_trace(path)
    assert loaded["attrs"] == {"peers": ["a", "b", "c"], "hop": ["a", 2],
                               "state": "<opaque>"}


def tagger(attrs):
    def behaviour(ctx, briefcase):
        ctx.obs.record("t-1", "tag", "k", ctx.now, attrs=attrs)
        yield ctx.sleep(0)
    return behaviour


def test_a_mixed_type_set_attr_round_trips_through_dump_trace(tmp_path):
    kernel = Kernel(lan(["a"]), config=KernelConfig(obs_enabled=True))
    kernel.launch("a", tagger({"peers": {"a", 1}}), Briefcase())
    kernel.run()
    path = str(tmp_path / "trace.jsonl")
    assert kernel.dump_trace(path) == len(kernel.trace_spans())
    [tag] = [span for span in load_trace(path) if span["name"] == "tag"]
    assert tag["attrs"] == {"peers": [1, "a"]}        # by type name, then value


def test_a_span_that_cannot_encode_leaves_the_earlier_dump(tmp_path):
    kernel = Kernel(lan(["a"]), config=KernelConfig(obs_enabled=True))
    kernel.launch("a", tagger({"peers": {"b", "a"}}), Briefcase())
    kernel.run()
    path = tmp_path / "trace.jsonl"
    kernel.dump_trace(str(path))
    before = path.read_bytes()
    kernel.launch("a", tagger({("a", 2): "a tuple key has no JSON form"}), Briefcase())
    kernel.run()
    with pytest.raises(TypeError):
        kernel.dump_trace(str(path))
    assert path.read_bytes() == before


# -- event log: log lines in the record ring ---------------------------------


def test_obs_ring_bounds_the_kernel_event_log(monkeypatch):
    monkeypatch.setattr("repro.obs.sinks.RING_CAPACITY", 2)
    kernel = Kernel(lan(["a"]))
    for i in range(4):
        kernel.log_event("agent", "a", f"line {i}")
    assert [line[3] for line in kernel.event_log] == ["line 2", "line 3"]
    assert kernel.ring.total == 4
    kernel.close()


def test_a_tracer_sink_holds_what_an_engine_ring_holds(strategy):
    # One capacity for every ring: a tracer built without a sink used to get
    # a quarter of an engine's.
    kernel = Kernel(lan(["a", "b"]))
    assert len(kernel.engines) == strategy
    assert {Tracer().sink.capacity} | {engine.ring.capacity
                                       for engine in kernel.engines} == {RING_CAPACITY}
    kernel.close()


def test_log_lines_stay_out_of_the_trace(tmp_path):
    """Lines and spans share the ring, but the trace (export and the dumped
    file) holds spans only and the event log lines only."""
    kernel = Kernel(lan(["a", "b"]), config=KernelConfig(obs_enabled=True))
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
    dumped = str(tmp_path / "dump.jsonl")
    assert kernel.dump_trace(dumped) == len(spans)
    assert load_trace(dumped) == spans


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


@pytest.mark.skipif(not process_backend_available(),
                    reason="cannot fork shard workers on this host")
def test_dump_trace_writes_what_process_workers_recorded(tmp_path):
    # The spans reach the coordinator in the workers' state digests; the
    # file holds exactly the merged stream trace_spans() reads.
    from repro.fault import launch_ft_computation
    path = str(tmp_path / "trace.jsonl")
    sites = ["a", "b", "c", "d"]
    with Kernel(lan(sites), config=KernelConfig(
            obs_enabled=True, shards=2, shard_backend="process")) as kernel:
        launch_ft_computation(kernel, sites[0], sites[1:], ft_id="ft-dumped")
        kernel.run(until=60.0)
        spans = kernel.trace_spans()
        assert kernel.dump_trace(path) == len(spans)
    assert {span["site"] for span in spans if span["name"] == "ft-hop"} == set(sites)
    assert load_trace(path) == spans


def _migration_trace(tmp_path) -> str:
    """A JSONL trace of one traced migration, dumped by a sim kernel."""
    path = str(tmp_path / "trace.jsonl")
    kernel = Kernel(lan(["a", "b"]), config=KernelConfig(obs_enabled=True))
    briefcase = Briefcase()
    briefcase.set("DEST", "b")
    kernel.launch("a", visitor, briefcase)
    kernel.run()
    kernel.dump_trace(path)
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


def test_ft_itinerary_reconstructs_from_one_jsonl_dump(tmp_path):
    """A rear-guarded itinerary on two shards with durable checkpoints: the
    whole journey — launch, one hop span per site, a migration between
    consecutive sites, checkpoint barrier waits, guard releases, delivery —
    reads back from the facade's single JSONL dump, with the WAL commits
    beside it under their own pseudo-trace ids."""
    from repro.fault import launch_ft_computation
    path = str(tmp_path / "trace.jsonl")
    sites = ["alpha", "beta", "gamma", "delta"]
    kernel = Kernel(lan(sites), config=KernelConfig(
        shards=2, obs_enabled=True, durability="wal-group-commit"))
    launch_ft_computation(kernel, sites[0], sites[1:], ft_id="ft-traced",
                          durable_checkpoints=True)
    kernel.run(until=120.0)
    kernel.close()
    kernel.dump_trace(path)

    dumped = load_trace(path)
    assert dumped == kernel.trace_spans()
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
