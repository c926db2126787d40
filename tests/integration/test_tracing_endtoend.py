"""Integration test: a kernel's trace, and its file (``kernel.dump_trace``)."""

from __future__ import annotations

from repro.core import Kernel, KernelConfig
from repro.core.folder import Folder
from repro.net import lan
from repro.obs.report import load_trace, trace_ids


def napper(ctx, briefcase):
    yield ctx.sleep(0.01)
    return "rested"


def traced_run(path, agents):
    """Run *agents* nappers on a traced kernel and dump it to *path*; its spans."""
    kernel = Kernel(lan(["a", "b"]), config=KernelConfig(obs_enabled=True))
    for index in range(agents):
        kernel.launch("ab"[index % 2], napper)
    kernel.run()
    kernel.close()
    kernel.dump_trace(path)
    return kernel.trace_spans()


def test_a_trace_file_holds_the_last_kernel_spans_only(tmp_path):
    # Every dump replaces the file, whatever an earlier kernel left there.
    path = str(tmp_path / "trace.jsonl")
    first = traced_run(path, agents=3)
    second = traced_run(path, agents=1)
    assert 0 < len(second) < len(first)
    assert load_trace(path) == second


def test_dump_trace_writes_what_trace_spans_returns_and_nothing_else_does(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    kernel = Kernel(lan(["a", "b"]), config=KernelConfig(obs_enabled=True))
    kernel.launch("a", napper)
    kernel.run()
    early = kernel.trace_spans()
    assert kernel.dump_trace(path) == len(early) > 0
    assert load_trace(path) == early
    kernel.launch("b", napper)
    kernel.run()
    kernel.close()
    # Neither running nor closing touches the file; the next dump replaces it.
    assert load_trace(path) == early
    late = kernel.trace_spans()
    assert kernel.dump_trace(path) == len(late) > len(early)
    assert load_trace(path) == late


def test_an_untraced_kernel_dumps_an_empty_trace_over_an_old_one(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    assert traced_run(path, agents=2)
    kernel = Kernel(lan(["a", "b"]))
    kernel.launch("a", napper)
    kernel.run()
    assert kernel.dump_trace(path) == 0
    assert load_trace(path) == []


def test_a_trace_file_is_bounded_by_obs_ring(tmp_path, monkeypatch):
    # The file holds what the rings kept: past the ring capacity, the oldest
    # records are gone from the trace and from its dump alike.
    whole = traced_run(str(tmp_path / "whole.jsonl"), agents=6)
    path = str(tmp_path / "bounded.jsonl")
    monkeypatch.setattr("repro.obs.sinks.RING_CAPACITY", 4)
    bounded = traced_run(path, agents=6)
    assert 0 < len(bounded) < len(whole)
    assert all(span in whole for span in bounded)
    assert load_trace(path) == bounded


SINK = "trace_sink"


def trace_sink(ctx, briefcase):
    """The contact: the trace id its delivered briefcase carries."""
    yield ctx.sleep(0)
    return ctx.trace_id


def reporter(ctx, briefcase):
    """Courier one folder to the sink at b; the trace parent it sent under."""
    sent = yield ctx.send_folder(Folder("REPORT", [b"x" * 64]), "b", SINK)
    return sent.value, ctx.trace_parent


def test_a_couriered_folder_stays_on_the_sender_trace():
    kernel = Kernel(lan(["a", "b"]), config=KernelConfig(obs_enabled=True))
    kernel.install_agent(None, SINK, trace_sink)
    sender = kernel.launch("a", reporter)
    kernel.run()
    accepted, parent = kernel.result_of(sender)
    assert accepted is True and parent is not None
    spans = kernel.trace_spans()
    [launch] = [span for span in spans if span["name"] == "launch"]
    [delivery] = [span for span in spans if span["name"] == "delivery"]
    assert delivery["trace_id"] == launch["trace_id"]
    assert delivery["parent_id"] == parent
    assert (delivery["source"], delivery["destination"]) == ("a", "b")
    [contact_run] = [span for span in spans
                     if span["name"] == "run" and span["site"] == "b"]
    assert contact_run["trace_id"] == launch["trace_id"]
    assert contact_run["parent_id"] == delivery["span_id"]
    [contact] = kernel.agents_named(SINK)
    assert contact.result == launch["trace_id"]


def test_an_untraced_couriered_folder_carries_no_trace_context():
    # Sampled out: the launch writes no trace folders, so the courier has
    # none to copy, and the network leg and the contact's run stay unrecorded.
    kernel = Kernel(lan(["a", "b"]), config=KernelConfig(obs_enabled=True,
                                                         obs_sample=0.0))
    kernel.install_agent(None, SINK, trace_sink)
    sender = kernel.launch("a", reporter)
    kernel.run()
    assert kernel.result_of(sender) == (True, None)
    [contact] = kernel.agents_named(SINK)
    assert contact.state == "done" and contact.result is None
    assert trace_ids(kernel.trace_spans()) == []     # infra spans only, if any
