"""Property-based tests: sharding never changes simulation semantics.

The sharded kernel is a performance structure — the same seed and
workload must produce identical counters and the same completed agents
whether the sites run on one event loop or are partitioned across many.
The process backend's pipe stream must deliver every message that pickled,
whole and in order, however many frames it took and whatever failed
part-way between them.
"""

from __future__ import annotations

import multiprocessing
import operator
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Briefcase, Kernel, KernelConfig
from repro.core.agent import AgentState
from repro.core.folder import Folder
from repro.net import lan
from repro.shard.procworker import _FrameStream
from scenarios import sharded_churn


def sink(ctx, bc):
    payload_name = bc.get("PAYLOAD_NAME")
    elements = (bc.folder(payload_name).elements()
                if payload_name and bc.has(payload_name) else [])
    ctx.cabinet("mail").put("received", len(elements))
    yield ctx.sleep(0)
    return len(elements)


def hopper(ctx, bc):
    """Visit the itinerary, couriering a report from each stop."""
    itinerary = bc.folder("ITINERARY", create=True)
    report = Folder("REPORT", [{"from": ctx.site_name}])
    yield ctx.send_folder(report, bc.get("SINK"), "sink")
    if itinerary:
        yield ctx.jump(bc, itinerary.dequeue())
        return "moved"
    return ctx.site_name


def run_workload(seed: int, n_sites: int, n_agents: int, hops: int,
                 shards: int, backend: str = "inproc"):
    names = [f"p{i}" for i in range(n_sites)]
    kernel = Kernel(lan(names), transport="tcp",
                    config=KernelConfig(rng_seed=seed, shards=shards,
                                        shard_backend=backend))
    kernel.install_agent(None, "sink", sink)
    for index in range(n_agents):
        briefcase = Briefcase()
        itinerary = briefcase.folder("ITINERARY", create=True)
        for hop in range(hops):
            itinerary.push(names[(index + hop + 1) % n_sites])
        briefcase.set("SINK", names[(index + n_sites // 2) % n_sites])
        kernel.launch(names[index % n_sites], hopper, briefcase)
    kernel.run()
    # An unnamed agent's name is its id, and ids depend on the shard count.
    completed = sorted(
        ("" if record.name == record.agent_id else record.name, record.site_name,
         repr(record.result))
        for record in kernel.table.entries.values()
        if record.state == AgentState.DONE)
    kernel.close()
    return kernel.counters(), completed


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       n_sites=st.integers(min_value=4, max_value=10),
       n_agents=st.integers(min_value=1, max_value=8),
       hops=st.integers(min_value=0, max_value=3),
       shards=st.integers(min_value=2, max_value=5))
def test_sharded_run_is_semantically_identical(seed, n_sites, n_agents,
                                               hops, shards):
    classic_counters, classic_done = run_workload(seed, n_sites, n_agents,
                                                  hops, shards=1)
    sharded_counters, sharded_done = run_workload(seed, n_sites, n_agents,
                                                  hops, shards=shards)
    assert sharded_counters == classic_counters
    assert sharded_done == classic_done


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       shards=st.integers(min_value=2, max_value=4))
def test_sharding_is_deterministic_across_repeats(seed, shards):
    first = run_workload(seed, 6, 4, 2, shards)
    second = run_workload(seed, 6, 4, 2, shards)
    assert first == second


def fingerprint_inputs(backend: str, seed: int):
    """What the ledger's ``sim_fingerprint`` hashes, for a seeded churn on
    three shards: events, counters, and every integer of the stats, store
    and shard summaries; plus the simulated end time."""
    kernel, events = sharded_churn(n_sites=12, n_agents=48, wave_size=16, shards=3,
                                   seed=seed, backend=backend)
    numbers = {"events": events, "counters": kernel.counters(), "now": kernel.now}
    for source in (kernel.stats.snapshot(), kernel.store_summary(),
                   kernel.shard_summary()):
        numbers.update((key, value) for key, value in source.items()
                       if type(value) is int)
    kernel.close()
    return numbers


def test_process_backend_matches_inproc():
    """Backends differ only in where a burst runs: process workers give the
    same simulation as the serial loop, down to every number the ledger
    fingerprints.

    Not hypothesis-driven (each example spawns real processes) and built
    on the behaviours ``tests/scenarios.py`` registers — spawn children
    re-import the registry's modules, so test-local closures cannot cross.
    """
    import pytest

    from repro.shard import process_backend_available

    if not process_backend_available():
        pytest.skip("multiprocessing spawn does not work on this host")
    for seed in (3, 41):
        reference = fingerprint_inputs("inproc", seed)
        assert fingerprint_inputs("process", seed) == reference, seed
        assert reference["handoffs_drained"] == reference["shard_handoffs"] > 0
        assert reference["shard_late_arrivals"] == 0
        counters = reference["counters"]
        assert counters["completed"] == counters["launched"]


# ---------------------------------------------------------------------------
# the process backend's pipe stream
# ---------------------------------------------------------------------------

KIB = 1024
#: how long the receiver waits for a message to start before giving up
READ_TIMEOUT_S = 10.0

#: plain data of 0-300 KiB, so a message can span several 64 KiB frames
#: and a large ``bytes`` element goes out as a frame of its own
PAYLOAD_LEAVES = st.one_of(
    st.integers(min_value=0, max_value=300 * KIB).map(bytes),
    st.builds(operator.mul, st.sampled_from("a\xe9\u20ac\U0001f600"),
              st.integers(min_value=0, max_value=75 * KIB)),
    st.integers(), st.none())
PAYLOADS = st.lists(st.recursive(
    PAYLOAD_LEAVES,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=4), max_size=3)


def exchange(messages):
    """Send *messages* through one stream of an in-process pipe while the
    other end reads: ``(what pickled, what was received)``."""
    sending, receiving = multiprocessing.Pipe()
    sender, receiver = _FrameStream(sending), _FrameStream(receiving)
    sent = []

    def send_all():
        try:
            for message in messages:
                try:
                    sender.send(message)
                except TypeError:  # the lock, after 64 KiB went out
                    continue
                except OSError:  # the receiver gave up
                    return
                sent.append(message)
        finally:
            sending.close()  # EOF ends the reading

    thread = threading.Thread(target=send_all, daemon=True)
    thread.start()
    received = []
    try:
        while receiving.poll(READ_TIMEOUT_S):
            received.append(receiver.recv())
    except EOFError:
        pass
    finally:
        receiving.close()
        thread.join(READ_TIMEOUT_S)
    assert not thread.is_alive()
    return sent, received


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(PAYLOADS, st.booleans()), min_size=1, max_size=5))
def test_the_stream_delivers_exactly_the_messages_that_pickled(drawn):
    """Each message holds its payload twice, so the second is a reference
    into the unpickler's memo: a receiver that read on from a dropped
    message into the next would resolve it against the wrong memo."""
    messages, expected = [], []
    for index, (payload, fails) in enumerate(drawn):
        if fails:
            payload = payload + [bytes(64 * KIB), threading.Lock()]
        message = (index, payload, payload)
        messages.append(message)
        if not fails:
            expected.append(message)
    sent, received = exchange(messages)
    assert sent == expected
    assert received == expected
