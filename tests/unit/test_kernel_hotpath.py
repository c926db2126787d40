"""Regression and behaviour tests for the kernel hot-path overhaul.

Covers the per-site resident index, the batched launch path, the CODE
element described at the jump and nowhere else, and the bundled bugfixes: the undeliverable-message
ledger, generator ``finally:`` execution on every terminal path, and the
consistency of the index under crash/recover sequences; and the engine's
one arrival rule.
"""

from __future__ import annotations

import pytest

from repro.core import Briefcase, Folder, Kernel, KernelConfig
from repro.core.agent import AgentState
from repro.core.codec import code_element_of
from repro.core.engine import Engine
from repro.core.errors import UnknownBehaviourError
from repro.core.registry import default_registry, register_behaviour
from repro.net import lan
from repro.net.message import Message, MessageKind


@pytest.fixture
def kernel():
    return Kernel(lan(["a", "b", "c"], latency=0.05), transport="tcp",
                  config=KernelConfig(rng_seed=11))


@pytest.fixture
def engine():
    """An engine built directly: its internals are what these tests pin."""
    return Engine(lan(["a", "b", "c"], latency=0.05),
                  KernelConfig(rng_seed=11), transport="tcp")


def _agents_at_scan(ledger, site_name, active_only=True):
    """Brute-force O(all agents) scan: the reference the index is checked against."""
    return [agent for agent in ledger.agents.values()
            if agent.site_name == site_name and (not active_only or not agent.finished)]


def _assert_index_matches_scan(kernel):
    engine = kernel.engines[0] if isinstance(kernel, Kernel) else kernel
    for name in engine.site_names():
        indexed = {agent.agent_id for agent in engine.site(name).residents()}
        brute = {agent.agent_id for agent in _agents_at_scan(engine, name)}
        assert indexed == brute
        assert engine.site(name).resident_count() == len(brute)


class TestResidentIndex:
    def test_index_matches_scan_through_a_run(self, kernel):
        def worker(ctx, bc):
            yield ctx.sleep(0.05)
            return "ok"

        for index in range(9):
            kernel.launch("abc"[index % 3], worker)
        _assert_index_matches_scan(kernel)
        kernel.run(until=0.01)
        _assert_index_matches_scan(kernel)
        kernel.run()
        _assert_index_matches_scan(kernel)
        for name in kernel.site_names():
            assert kernel.site(name).residents() == []
            assert len(_agents_at_scan(kernel, name, active_only=False)) == 3

    def test_site_load_uses_resident_count(self, kernel):
        def sleeper(ctx, bc):
            yield ctx.sleep(10)

        for _ in range(4):
            kernel.launch("a", sleeper)
        kernel.run(until=0.1)
        assert kernel.site_load("a") == pytest.approx(4.0)
        assert kernel.site("a").resident_count() == 4

    def test_crash_empties_the_site_index_and_recover_keeps_it_empty(self, kernel):
        def sleeper(ctx, bc):
            yield ctx.sleep(10)

        for _ in range(3):
            kernel.launch("b", sleeper)
        kernel.run(until=0.1)
        assert kernel.site("b").resident_count() == 3
        kernel.crash_site("b")
        assert kernel.site("b").resident_count() == 0
        assert kernel.site("b").residents() == []
        assert kernel.counters()["killed"] == 3
        kernel.recover_site("b")
        assert kernel.site("b").resident_count() == 0
        _assert_index_matches_scan(kernel)

    def test_launch_many_starts_every_agent(self, kernel):
        def worker(ctx, bc):
            yield ctx.sleep(0.01)
            return bc.get("N")

        requests = []
        for index in range(12):
            briefcase = Briefcase()
            briefcase.set("N", index)
            requests.append(("abc"[index % 3], worker, briefcase))
        ids = kernel.launch_many(requests)
        assert len(ids) == 12
        _assert_index_matches_scan(kernel)
        kernel.run()
        assert [kernel.result_of(agent_id) for agent_id in ids] == list(range(12))
        assert kernel.counters()["launched"] == 12

    def test_launch_many_is_atomic_on_bad_entries(self, kernel):
        def worker(ctx, bc):
            yield ctx.sleep(0)

        from repro.core.errors import KernelError, UnknownSiteError
        with pytest.raises(UnknownSiteError):
            kernel.launch_many([("a", worker), ("ghost", worker)])
        with pytest.raises(KernelError):
            kernel.launch_many([("a", worker)], delay=-0.1)
        # A bad entry (or delay) must not leave earlier ones half-launched
        # (registered and indexed, but never scheduled to start).
        assert kernel.counters()["launched"] == 0
        assert kernel.agents == {}
        assert kernel.site("a").resident_count() == 0

    def test_meet_and_spawn_maintain_the_index(self, kernel):
        def child(ctx, bc):
            yield ctx.sleep(0.02)
            return "child"

        def helper(ctx, bc):
            yield ctx.end_meet("hello")
            return "helper"

        def parent(ctx, bc):
            kernel_ = ctx._kernel
            _assert_index_matches_scan(kernel_)
            yield ctx.spawn(child)
            result = yield ctx.meet("helper", Briefcase())
            _assert_index_matches_scan(kernel_)
            return result.value

        kernel.install_agent("a", "helper", helper)
        agent_id = kernel.launch("a", parent)
        kernel.run()
        assert kernel.result_of(agent_id) == "hello"
        _assert_index_matches_scan(kernel)


def _roamer(marks):
    """A behaviour that files where it runs and jumps once, to ``b``."""
    def roamer(ctx, bc):
        marks.append(ctx.site_name)
        if ctx.site_name == "a":
            yield ctx.jump(bc, "b")
        return ctx.site_name
    return roamer


class TestCodeIsDescribedAtTheJump:
    """An instance holds the reference it was started from; ``ctx.jump``
    derives the CODE element from it, once per jump, and nothing else does."""

    def test_a_callable_registered_after_launch_ships_its_name(self, kernel):
        marks = []
        roamer = _roamer(marks)
        agent_id = kernel.launch("a", roamer)
        register_behaviour("hotpath_late", roamer)
        try:
            kernel.run()
        finally:
            default_registry().unregister("hotpath_late")
        assert kernel.result_of(agent_id) == "a"
        assert marks == ["a", "b"] and kernel.stats.migrations == 1

    def test_a_callable_whose_name_was_rebound_cannot_jump(self, kernel):
        marks, impostor_marks = [], []
        roamer = _roamer(marks)
        register_behaviour("hotpath_swap", roamer)
        try:
            agent_id = kernel.launch("a", roamer)
            # The name now runs another callable: shipping it would start
            # the impostor at the destination, so the jump refuses instead.
            register_behaviour("hotpath_swap", _roamer(impostor_marks), replace=True)
            kernel.run()
        finally:
            default_registry().unregister("hotpath_swap")
        record = kernel.agent(agent_id)
        assert record.state == AgentState.FAILED
        assert isinstance(record.error, UnknownBehaviourError)
        assert marks == ["a"] and impostor_marks == []
        assert kernel.stats.migrations == 0 and kernel.counters()["arrivals"] == 0

    def test_only_a_jump_describes_code_and_once_per_jump(self, kernel, monkeypatch):
        calls = []

        def counting(behaviour, registry=None):
            calls.append(behaviour)
            return code_element_of(behaviour, registry)

        monkeypatch.setattr("repro.core.codec.code_element_of", counting)
        monkeypatch.setattr("repro.core.context.code_element_of", counting)

        def service(ctx, bc):
            yield ctx.end_meet("served")

        def visitor(ctx, bc):
            itinerary = bc.folder("ITINERARY", create=True)
            if itinerary:
                yield ctx.jump(bc, itinerary.dequeue())
            result = yield ctx.meet("service", Briefcase())
            return result.value

        kernel.install_agent("c", "service", service)
        register_behaviour("hotpath_visitor", visitor)
        try:
            itinerary = Briefcase()
            for site in ("b", "c"):
                itinerary.put("ITINERARY", site)
            kernel.launch_many([("a", "hotpath_visitor", itinerary),
                                ("b", "hotpath_visitor")])
            kernel.run()
        finally:
            default_registry().unregister("hotpath_visitor")
        counters = kernel.counters()
        assert counters["arrivals"] == kernel.stats.migrations == 2
        assert counters["launched"] > 2 + 2 * 2   # + rexec, ag_py and the meets
        # The launched life holds its name; the one ag_py started at b, the
        # element it was built from.
        assert calls == ["hotpath_visitor", {"kind": "registered", "name": "hotpath_visitor"}]


class TestUndeliverableLedger:
    def test_message_to_kernel_crashed_site_is_counted(self, kernel):
        """A site whose kernel died mid-flight (network link still up)."""

        def sender(ctx, bc):
            payload = Briefcase()
            payload.set("X", 1)
            accepted = yield ctx.transmit("b", "ag_py", payload)
            return accepted

        kernel.launch("a", sender, system=True)
        kernel.run(until=0.01)          # transmit done, delivery in flight
        assert kernel.counters()["undeliverable"] == 0
        # The kernel at b stops serving while the network keeps routing to
        # it (crash_site would also partition the topology, which makes the
        # transport drop the message before it ever reaches the site).
        kernel.site("b").mark_crashed()
        kernel.run()
        assert kernel.counters()["undeliverable"] == 1
        assert kernel.site("b").undeliverable == 1

    def test_message_to_unregistered_site_is_counted(self, engine):
        message = Message(source="a", destination="nowhere",
                          kind=MessageKind.STATUS, payload={})
        engine._on_message("nowhere", message)
        assert engine.counters()["undeliverable"] == 1

    def test_malformed_briefcase_payloads_are_counted_not_raised(self, engine):
        import pickle
        malformed = Briefcase([Folder("X", [1, 2])]).snapshot()
        malformed.folder("X")._elements.append("not-bytes")   # past push()'s check
        bad_payloads = [
            malformed,                                    # non-bytes element
            pickle.dumps(Briefcase([Folder("X", [1])]).stored_items()),  # bytes
            {"folders": []},                              # not a briefcase
        ]
        for carried in bad_payloads:
            engine._on_message("b", Message(
                source="a", destination="b", kind=MessageKind.AGENT_TRANSFER,
                payload={"contact": "ag_py", "briefcase": carried}))
        assert engine.counters()["undeliverable"] == engine.site("b").undeliverable == 3
        assert engine.counters()["arrivals"] == 0 and engine.counters()["launched"] == 0

    def test_smuggled_element_travels_the_wire_and_lands_undeliverable(self):
        # Not a stored element: a str, a mutable buffer, a bytes subclass —
        # beside a good element or (the inline candidate) alone in its folder.
        tagged = type("TaggedBytes", (bytes,), {})(b"a subclass")
        for smuggled in ("smuggled past push()", bytearray(b"mutable"), tagged):
            for beside in ([b"fine"], []):
                def sender(ctx, bc):
                    payload = Briefcase([Folder("X", beside)])
                    payload.folder("X")._elements.append(smuggled)
                    accepted = yield ctx.transmit("b", "ag_py", payload)
                    return accepted

                kernel = Kernel(lan(["a", "b"], latency=0.05), transport="tcp")
                agent_id = kernel.launch("a", sender, system=True)
                kernel.run()
                assert kernel.result_of(agent_id) is True   # the network took it
                counters = kernel.counters()
                assert counters["undeliverable"] == 1 and counters["arrivals"] == 0
                assert kernel.stats.messages_delivered == 1

    def test_healthy_delivery_is_not_counted(self, kernel):
        def sender(ctx, bc):
            payload = Briefcase()
            payload.set("X", 1)
            yield ctx.transmit("b", "ag_py", payload)
            return "sent"

        kernel.launch("a", sender, system=True)
        kernel.run()
        assert kernel.counters()["undeliverable"] == 0
        assert kernel.counters()["arrivals"] == 1


def _to_b(kind, payload):
    return Message(source="a", destination="b", kind=kind, payload=payload)


def _addressed(contact, value):
    """A contact-addressed payload carrying one folder ``X`` = [value]."""
    return {"contact": contact,
            "briefcase": Briefcase([Folder("X", [value])]).snapshot()}


class TestArrivalRouting:
    """The engine has one arrival rule: a batch envelope fans out, and every
    other message, whatever its kind, starts the contact it names or is
    counted undeliverable."""

    @pytest.fixture
    def seen(self, engine):
        seen = []

        def listener(ctx, bc):
            seen.append(bc.get("X"))
            yield ctx.sleep(0)

        engine.install_agent("b", "listener", listener)
        return seen

    def test_a_message_without_a_contact_is_undeliverable(self, engine):
        engine._on_message("b", _to_b(MessageKind.STATUS, {"load": 0.5}))
        counters = engine.counters()
        assert counters["undeliverable"] == engine.site("b").undeliverable == 1
        assert counters["arrivals"] == 0
        assert not engine.site("b").has_cabinet("_messages")

    @pytest.mark.parametrize("kind", [MessageKind.STATUS, MessageKind.FOLDER_DELIVERY,
                                      "control", "my-app-data"])
    def test_every_contact_addressed_kind_runs_its_contact(self, engine, seen, kind):
        engine._on_message("b", _to_b(kind, _addressed("listener", 7)))
        engine.run_to()
        assert seen == [7]
        assert engine.counters()["arrivals"] == 1

    def test_a_batch_sends_each_message_to_its_own_contact(self, engine, seen):
        envelope = _to_b(MessageKind.BATCH, {"messages": [
            _to_b("control", _addressed("listener", 1)),
            _to_b(MessageKind.FOLDER_DELIVERY, _addressed("listener", 2)),
            _to_b(MessageKind.STATUS, {"n": 3})]})
        envelope.delivered_at, envelope.hops = 0.25, 2
        engine._on_message("b", envelope)
        engine.run_to()
        assert seen == [1, 2]
        assert [(sub.delivered_at, sub.hops) for sub in envelope.payload["messages"]] == [
            (0.25, 2)] * 3
        assert engine.counters()["arrivals"] == 2
        assert engine.counters()["undeliverable"] == 1

    def test_a_batch_to_a_crashed_site_loses_every_message_it_carries(self, engine):
        engine.site("b").mark_crashed()
        engine._on_message("b", _to_b(MessageKind.BATCH, {"messages": [
            _to_b(MessageKind.STATUS, {"n": n}) for n in range(3)]}))
        assert engine.counters()["undeliverable"] == engine.site("b").undeliverable == 3

    def test_an_arrival_for_an_uninstalled_contact_is_dropped_and_counted(self, engine):
        engine._on_message("b", _to_b(MessageKind.FOLDER_DELIVERY, _addressed("ghost", 1)))
        engine.run_to()
        counters = engine.counters()
        assert counters["undeliverable"] == engine.site("b").undeliverable == 1
        assert counters["arrivals"] == 0 and counters["launched"] == 0


class TestGeneratorCleanup:
    def test_crash_site_runs_finally_blocks(self, kernel):
        cleaned = []

        def holder(ctx, bc):
            try:
                yield ctx.sleep(100)
            finally:
                cleaned.append(ctx.agent_id)

        agent_id = kernel.launch("a", holder)
        instance = kernel.agent(agent_id)       # the ledger keeps a record once it ends
        kernel.run(until=0.1)
        assert cleaned == []
        kernel.crash_site("a")
        assert cleaned == [agent_id]
        assert kernel.agent(agent_id).state == AgentState.KILLED
        assert instance.generator is None

    def test_runaway_kill_runs_finally_blocks(self, monkeypatch):
        monkeypatch.setattr("repro.core.engine.MAX_AGENT_STEPS", 5)
        kernel = Kernel(lan(["a", "b"]), transport="tcp",
                        config=KernelConfig(rng_seed=5))
        cleaned = []

        def runaway(ctx, bc):
            try:
                while True:
                    yield ctx.sleep(0)
            finally:
                cleaned.append(True)

        agent_id = kernel.launch("a", runaway)
        kernel.run()
        assert kernel.agent(agent_id).state == AgentState.KILLED
        assert cleaned == [True]

    def test_terminate_syscall_runs_finally_blocks(self, kernel):
        cleaned = []

        def early_exit(ctx, bc):
            try:
                yield ctx.terminate("early")
                yield ctx.sleep(1)  # pragma: no cover - never reached
            finally:
                cleaned.append(True)

        agent_id = kernel.launch("a", early_exit)
        instance = kernel.agent(agent_id)
        kernel.run()
        assert kernel.result_of(agent_id) == "early"
        assert cleaned == [True]
        assert instance.generator is None

    def test_start_at_dead_site_kills_cleanly(self, kernel):
        def worker(ctx, bc):
            yield ctx.sleep(0.01)

        kernel.crash_site("c")
        agent_id = kernel.launch("c", worker)
        kernel.run()
        assert kernel.agent(agent_id).state == AgentState.KILLED
        assert kernel.site("c").resident_count() == 0
        counters = kernel.counters()
        assert counters["completed"] + counters["failed"] + counters["killed"] == \
            counters["launched"]
