"""What an agent life leaves behind for the cyclic collector, held as counts.

The collector's cost is set by how many *tracked* objects a run creates and
keeps (every young collection walks the new ones, every full one walks them
all), and by default every finished agent's record stays for the life of the
kernel — its identity, site, result and times, none of the briefcase,
behaviour and CODE element retirement sheds.  Wall-clock cannot
be asserted in tier-1; these counts can, and they repeat exactly.  Public API
only — what is counted is whatever the library allocates, by any means, and
a briefcase whose elements are compared is one a test behaviour kept, not
one read back from a finished agent.
``tools/hot_functions.py <workload> --gc`` (tracked objects) and ``--mem``
(retained bytes, shared elements) print the same numbers for a ledger workload.
"""

from __future__ import annotations

import collections
import functools
import gc
import sys

import pytest

from repro.core import AgentRecord, Briefcase, Folder, Kernel, KernelConfig
from repro.net import switched_fabric
from repro.net.simclock import Event

SITES = [f"h{index:02d}" for index in range(8)]
LIVES_PER_COURIER = 3       # the courier behaviour, the courier system agent, the sink


def sink(ctx, briefcase):
    elements = briefcase.folder(briefcase.get("PAYLOAD_NAME")).elements()
    ctx.cabinet("mail").put("received", {"from": briefcase.get("SENDER_SITE"),
                                         "at": ctx.now})
    yield ctx.sleep(0)
    return len(elements)


def courier(ctx, briefcase):
    yield ctx.sleep(briefcase.get("WORK"))
    report = Folder("REPORT", [{"from": ctx.site_name,
                                "payload": briefcase.get("PAYLOAD")}])
    yield ctx.send_folder(report, briefcase.get("PEER"), "sink")
    return ctx.site_name


def fabric_kernel(sink_behaviour=sink, courier_behaviour=courier) -> Kernel:
    kernel = Kernel(switched_fabric(SITES, hosts_per_switch=4), transport="tcp",
                    config=KernelConfig(rng_seed=7))
    kernel.install_agent(None, "sink", sink_behaviour)
    # Launched by name, as populations are: unnamed agents each get a name
    # index entry of their own (one more dict per life).
    kernel.install_agent(None, "courier-life", courier_behaviour)
    return kernel


def launch_couriers(kernel: Kernel, count: int) -> None:
    requests = []
    for index in range(count):
        briefcase = Briefcase()
        briefcase.set("WORK", 0.005 + 0.0001 * index)
        briefcase.set("PEER", SITES[(index + 3) % len(SITES)])
        briefcase.set("PAYLOAD", b"\0" * 256)
        requests.append((SITES[index % len(SITES)], "courier-life", briefcase))
    kernel.launch_many(requests)


def tracked_by_type() -> collections.Counter:
    gc.collect()
    return collections.Counter(type(obj).__name__ for obj in gc.get_objects())


def test_an_agent_life_keeps_at_most_two_tracked_objects():
    kernel = fabric_kernel()
    launch_couriers(kernel, len(SITES))     # warm-up: routes, connections, cabinets
    kernel.run()
    lives_before = kernel.counters()["launched"]
    before = tracked_by_type()
    launch_couriers(kernel, 200)
    kernel.run()
    after = tracked_by_type()
    counters = kernel.counters()
    lives = counters["launched"] - lives_before
    assert lives == 200 * LIVES_PER_COURIER == counters["completed"] - lives_before
    assert counters["retained"] == counters["launched"]
    assert all(type(entry) is AgentRecord for entry in kernel.agents.values())
    after.subtract(before)
    growth = sum(after.values())
    # 12.7 per life when every folder was a Folder plus a list and every
    # instance carried a spec and two lists; 4.4 while a finished instance
    # kept its briefcase and the one folder somebody asked for as an object;
    # 1.36 while the ledger kept the instance and a courier its list of the
    # agents it met; 1.04 now: the record.
    assert growth <= 2 * lives, (
        f"{growth / lives:.2f} tracked survivors per agent life: "
        f"{[(kind, count) for kind, count in after.most_common(8) if count > 0]}")
    kernel.close()


def new_records(kernel: Kernel, couriers: int) -> list:
    """The records of the lives *couriers* more couriers start, after a
    warm-up round (routes, connections, cabinets)."""
    launch_couriers(kernel, len(SITES))
    kernel.run()
    before = set(kernel.agents)
    launch_couriers(kernel, couriers)
    kernel.run()
    records = [entry for agent_id, entry in kernel.agents.items() if agent_id not in before]
    assert len(records) == couriers * LIVES_PER_COURIER
    assert all(type(record) is AgentRecord for record in records)
    return records


def test_a_record_holds_no_container_of_its_own():
    # A jump starts a new agent, so a life runs at one site: a record keeps
    # that site's name, not a one-site itinerary tuple per life.
    kernel = fabric_kernel()
    records = new_records(kernel, 200)
    held = collections.Counter(type(referent).__name__ for record in records
                               for referent in gc.get_referents(record)
                               if isinstance(referent, (tuple, list, dict)))
    assert not held, held
    kernel.close()


def test_the_arrivals_of_one_contact_share_one_name():
    # Each delivery decodes its CONTACT afresh; the lives it starts are
    # named with one shared string, not one copy per message.
    kernel = fabric_kernel()
    new_records(kernel, 200)
    arrivals = kernel.agents_named("sink")
    assert len(arrivals) == 200 + len(SITES)
    assert len({id(record.name) for record in arrivals}) == 1
    kernel.close()


def test_a_finished_life_retains_its_record_id_and_two_times():
    kernel = fabric_kernel()
    records = new_records(kernel, 200)
    held = {}
    for record in records:
        held[id(record)] = record
        held.update((id(referent), referent) for referent in gc.get_referents(record)
                    if type(referent) is not type)      # the class itself
    retained = sum(sys.getsizeof(obj) for obj in held.values())
    # What one life may own: its record, its id and the start and finish
    # times.  Names, sites, states and results are shared, small ints cached.
    # On CPython 3.11: 269 B per life while each record held a one-site
    # tuple and every arrival its own copy of the contact's name, 196 now
    # (the bound reads 229 and 221).
    sample = records[0]
    per_life = (sys.getsizeof(sample) + sys.getsizeof(sample.agent_id)
                + 2 * sys.getsizeof(sample.started_at))
    assert retained <= per_life * len(records), (
        f"{retained / len(records):.1f} B per life, bound {per_life}")
    kernel.close()


def events_on(loop) -> list:
    """Every Event within reach of *loop*'s own state (its heap entries)."""
    found, frontier = [], [loop]
    for _ in range(4):                      # loop -> __dict__ -> heap -> entry -> event
        frontier = [referent for obj in frontier
                    for referent in gc.get_referents(obj)
                    if isinstance(referent, (dict, list, tuple, Event))]
        found.extend(obj for obj in frontier if isinstance(obj, Event))
    return found


@pytest.mark.one_engine(reason="reads kernel.loop (engine 0's loop): "
                        "events_on(kernel.loop), kernel.loop.pending")
def test_queued_events_carry_arguments_not_partials():
    kernel = fabric_kernel()
    launch_couriers(kernel, 40)
    seen = 0
    for horizon in (0.0, 0.006, 0.008, 0.010):   # starts, wakes, meets, deliveries
        kernel.run(until=horizon)
        queued = [event for event in events_on(kernel.loop) if not event.cancelled]
        assert len(queued) >= kernel.loop.pending > 0
        for event in queued:
            assert not isinstance(event.callback, functools.partial), event
            assert not any(isinstance(arg, functools.partial) for arg in event.args)
        seen += sum(bool(event.args) for event in queued)
    assert seen > 0                         # and the arguments really ride on the event
    kernel.run()
    assert kernel.counters()["completed"] == 40 * LIVES_PER_COURIER
    kernel.close()


def test_a_queried_cabinet_folder_answers_correctly_across_crash_and_recovery():
    # The element index is derived state: dropped with the rest of a crashed
    # site's volatile state, rebuilt from the restored bytes when next asked.
    kernel = Kernel(switched_fabric(SITES, hosts_per_switch=4), transport="tcp",
                    config=KernelConfig(rng_seed=7, durability="wal-group-commit",
                                        store_commit_window=0.05))
    kernel.make_durable("marks", sites=["h00"])
    marks = kernel.site("h00").cabinet("marks")
    for visitor in ("alpha", "beta"):
        marks.put("VISITED", visitor)
    assert marks.contains_element("VISITED", "alpha")
    assert not marks.contains_element("VISITED", "gamma")
    marks.put("VISITED", "gamma")           # kept up once somebody has asked
    assert marks.contains_element("VISITED", "gamma")
    kernel.run(until=1.0)                   # group commit
    marks.put("VISITED", "never-committed")
    kernel.crash_site("h00")
    kernel.recover_site("h00")
    kernel.run(until=30.0)
    assert kernel.site("h00").alive
    marks = kernel.site("h00").cabinet("marks")
    assert marks.elements("VISITED") == ["alpha", "beta", "gamma"]
    for visitor, expected in (("alpha", True), ("gamma", True),
                              ("never-committed", False), ("delta", False)):
        assert marks.contains_element("VISITED", visitor) is expected
    marks.put("VISITED", "delta")
    assert marks.contains_element("VISITED", "delta")
    kernel.close()


def retained_payload_bytes(kernel: Kernel) -> int:
    """Bytes of every distinct folder name, stored element and code reference
    the ledger's entries still reference (an object shared is counted once;
    a record holds none of them)."""
    held = {}
    for entry in kernel.agents.values():
        code = getattr(entry, "code", None)
        if code is not None:
            held[id(code)] = code
        briefcase = getattr(entry, "briefcase", None)
        for name, elements in (briefcase.stored_items()
                               if briefcase is not None else ()):
            held[id(name)] = name
            held.update((id(element), element) for element in elements)
    return sum(sys.getsizeof(obj) for obj in held.values())


def report_of(briefcase: Briefcase):
    return next((name, elements[0]) for name, elements in briefcase.stored_items()
                if name == "REPORT")


@pytest.mark.one_engine(reason="reads kernel.loop.pending (engine 0's loop)")
def test_a_delivery_moves_its_elements_and_a_name_has_one_code_element():
    handed_back, delivered = [], []

    def reporting_courier(ctx, briefcase):
        yield ctx.sleep(briefcase.get("WORK"))
        report = Folder("REPORT", [{"from": ctx.site_name,
                                    "payload": briefcase.get("PAYLOAD")}])
        met = yield ctx.send_folder(report, briefcase.get("PEER"), "sink")
        handed_back.append(met.briefcase)   # the courier system agent's own
        return ctx.site_name

    def keeping_sink(ctx, briefcase):
        delivered.append(briefcase)
        return (yield from sink(ctx, briefcase))

    kernel = fabric_kernel(keeping_sink, reporting_courier)
    launch_couriers(kernel, len(SITES))
    kernel.run()
    lives_before = kernel.counters()["launched"]
    launch_couriers(kernel, 200)             # every PEER is another site: all cross the wire
    # A life started by name holds that name as its code, no CODE dict (a
    # jump describes it): read off the running agents (a finished one holds
    # none), at every half millisecond.
    codes = collections.defaultdict(set)
    horizon = 0.0
    while kernel.loop.pending:
        horizon += 0.0005
        kernel.run(until=horizon)
        for name in ("courier-life", "courier", "sink"):
            codes[name].update(agent.code for agent in kernel.agents_named(name)
                               if not agent.finished)
    assert codes == {name: {name} for name in ("courier-life", "courier", "sink")}
    lives = kernel.counters()["launched"] - lives_before
    assert kernel.counters()["arrivals"] == 200 + len(SITES) and lives == 600

    # The sink holds the very element (and folder name) the courier system
    # agent was handed, not a second copy of the bits made for the wire.
    sent = {id(element): name for name, element in map(report_of, handed_back)}
    assert len(delivered) == 200 + len(SITES) == len(sent)
    for briefcase in delivered:
        name, element = report_of(briefcase)
        assert sent.pop(id(element)) is name
    # 657 B per life when every transmit was a pickle round trip (a second
    # REPORT, fresh names) and every instance had a CODE dict of its own, 303
    # while finished lives kept PAYLOAD, one REPORT and their small
    # arguments; none now: what they carried left with them.
    assert retained_payload_bytes(kernel) == 0
    kernel.close()
