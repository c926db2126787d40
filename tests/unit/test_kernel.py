"""Unit tests for the kernel: launching, syscalls, failure handling, ledgers."""

from __future__ import annotations

import math
import multiprocessing

import pytest

from repro.core import Briefcase, Kernel, KernelConfig
from repro.core.agent import AgentState
from repro.core.engine import SPAWN_OVERHEAD, STEP_COST, TRANSMIT_OVERHEAD
from repro.core.errors import (KernelError, MeetError, SyscallError, UnknownAgentError,
                               UnknownSiteError)
from repro.core.syscalls import Meet, Sleep, Syscall, Terminate
from repro.net import RshTransport, TcpTransport, lan


@pytest.fixture
def kernel():
    return Kernel(lan(["a", "b", "c"]), transport="tcp", config=KernelConfig(rng_seed=3))


class TestConstruction:
    def test_default_topology_and_transport(self):
        kernel = Kernel()
        assert len(kernel.site_names()) == 3
        assert kernel.transport.name == "tcp"

    def test_transport_by_name(self):
        assert Kernel(lan(["a", "b"]), transport="rsh").transport.name == "rsh"

    def test_transport_by_class(self):
        assert isinstance(Kernel(lan(["a", "b"]), transport=RshTransport).transport,
                          RshTransport)

    def test_a_built_transport_is_refused(self, strategy):
        # A transport built for another kernel stays bound to that kernel's
        # loop, stats and topology: an agent's jump would queue there.
        donor = Kernel(lan(["a", "b"]))
        with pytest.raises(KernelError, match="pass a transport name .* or a "
                                              "Transport subclass"):
            Kernel(lan(["a", "b"]), transport=donor.transport)

    @pytest.mark.parametrize("placement, error", [
        ({"zz": 0}, UnknownSiteError), ({"a": 5}, KernelError)])
    def test_shard_placement_follows_one_rule_on_every_engine_count(
            self, strategy, placement, error):
        # One engine used to accept both maps without reading them.
        with pytest.raises(error, match="shard_placement"):
            Kernel(lan(["a", "b"]), config=KernelConfig(shard_placement=placement))

    def test_unknown_transport_name_raises(self):
        with pytest.raises(KernelError):
            Kernel(lan(["a", "b"]), transport="carrier-pigeon")

    def test_invalid_transport_object_raises(self):
        with pytest.raises(KernelError):
            Kernel(lan(["a", "b"]), transport=42)

    def test_system_agents_installed_everywhere_by_default(self, kernel):
        for site_name in kernel.site_names():
            assert kernel.site(site_name).is_installed("rexec")
            assert kernel.site(site_name).is_installed("ag_py")

    def test_system_agents_can_be_skipped(self):
        kernel = Kernel(lan(["a", "b"]), install_system_agents=False)
        assert not kernel.site("a").is_installed("rexec")

    def test_unknown_site_lookup_raises(self, kernel):
        with pytest.raises(UnknownSiteError):
            kernel.site("ghost")

    @pytest.mark.parametrize("knob", ["store_commit_window"])
    def test_a_negative_cost_is_rejected_naming_the_knob(self, knob):
        # The commit window is a delay the engine schedules: a negative one
        # used to build a kernel that failed mid-run with "an event in the
        # past".
        config = KernelConfig(durability="wal-group-commit", **{knob: -1.0})
        with pytest.raises(KernelError, match=f"{knob} must be >= 0"):
            Kernel(lan(["a", "b"]), config=config)

    @pytest.mark.parametrize("knob, value", [
        ("durability", "wal"), ("durability", None),
        ("flow_target_batch", 2.5), ("rng_seed", "x"),
        ("store_commit_window", math.nan), ("store_commit_window", math.inf),
        ("store_commit_window", "0.1"), ("delivery_batch_window", math.nan),
        ("delivery_batch_window", -1.0), ("flow_window_min", -1.0),
        ("flow_window_max", -1.0), ("obs_sample", "0.5"), ("obs_sample", True),
        ("obs_enabled", "yes"), ("shard_placement", ["a"]),
        ("shard_placement", {"a": True}), ("shard_placement", {"a": "1"})])
    def test_a_mis_set_policy_knob_fails_before_any_engine_exists(
            self, knob, value, backend):
        # These used to surface as a ValueError or TypeError from inside an
        # engine (after process workers had spawned), as a value silently
        # truncated or accepted (obs_sample True, shard_placement "1"), as
        # "an event in the past" mid-run (a NaN delay) or as a clock run to
        # infinity (store_commit_window inf).
        workers = set(multiprocessing.active_children())
        config = KernelConfig(shards=2, shard_backend=backend, **{knob: value})
        with pytest.raises(KernelError, match=knob):
            Kernel(lan(["a", "b"]), config=config)
        assert set(multiprocessing.active_children()) <= workers

    @pytest.mark.parametrize("value", [True, 2.0, 0, "2"])
    def test_a_mis_set_shard_count_fails_before_any_engine_exists(
            self, value, backend):
        # shards=True used to run one engine, shards=2.0 to raise a bare
        # TypeError.
        workers = set(multiprocessing.active_children())
        config = KernelConfig(shards=value, shard_backend=backend)
        with pytest.raises(KernelError, match="shards"):
            Kernel(lan(["a", "b"]), config=config)
        assert set(multiprocessing.active_children()) <= workers


class TestConfigValidation:
    def test_flow_knobs_without_a_window_are_rejected(self):
        # Flow bounds size per-pair windows of a fabric that must be on
        # for any outbox to exist.
        from repro.net import lan
        for knobs in ({"flow_window_min": 0.05},
                      {"flow_window_max": 1.0},
                      {"flow_window_min": 0.05, "flow_window_max": 1.0}):
            with pytest.raises(KernelError):
                Kernel(lan(["a", "b"]), config=KernelConfig(**knobs))
        # With the fabric on they are accepted and reach the transport.
        kernel = Kernel(lan(["a", "b"]), config=KernelConfig(
            delivery_batch_window=0.1, flow_window_min=0.05,
            flow_window_max=1.0, flow_target_batch=4))
        assert kernel.transport.flow.adaptive
        assert kernel.transport.flow.window_min == 0.05
        assert kernel.transport.flow.window_max == 1.0
        assert kernel.transport.flow.target_batch == 4

    def test_inverted_flow_window_bounds_are_rejected(self):
        from repro.net import lan
        with pytest.raises(KernelError):
            Kernel(lan(["a", "b"]), config=KernelConfig(
                delivery_batch_window=0.1, flow_window_min=2.0,
                flow_window_max=1.0))

    def test_flow_floor_without_a_ceiling_is_rejected(self):
        # flow_window_min alone is silently inert (adaptive mode keys on
        # flow_window_max > 0): refuse it instead of ignoring it.
        from repro.net import lan
        with pytest.raises(KernelError):
            Kernel(lan(["a", "b"]), config=KernelConfig(
                delivery_batch_window=0.1, flow_window_min=0.05))

    def test_flow_tuning_typos_are_caught_even_with_the_fabric_off(self):
        # target_batch is validated unconditionally — a typo must not lie
        # dormant until someone later enables the window.
        from repro.net import lan
        with pytest.raises(KernelError):
            Kernel(lan(["a", "b"]), config=KernelConfig(flow_target_batch=0))

    def test_negative_flow_bounds_are_rejected(self):
        # Refused by validate(), naming the field, before any engine exists.
        from repro.net import lan
        with pytest.raises(KernelError, match="flow_window_min"):
            Kernel(lan(["a", "b"]), config=KernelConfig(
                delivery_batch_window=0.1, flow_window_min=-0.5))
        with pytest.raises(KernelError, match="flow_window_max"):
            Kernel(lan(["a", "b"]), config=KernelConfig(
                delivery_batch_window=0.1, flow_window_max=-1.0))
        with pytest.raises(KernelError, match="delivery_batch_window"):
            Kernel(lan(["a", "b"]), config=KernelConfig(delivery_batch_window=-1.0))


class TestLaunchingAndResults:
    @pytest.mark.parametrize("delay", [-1.0, math.nan, math.inf])
    def test_a_refused_launch_delay_leaves_no_agent(self, strategy, delay):
        # A NaN delay used to register the agents and then fail to schedule
        # their starts (launch_many's atomicity broken, agents counted
        # active forever), and an infinite one put kernel.now at inf.
        kernel = Kernel(lan(["a", "b"]), config=KernelConfig(rng_seed=3))
        before = kernel.counters()
        with pytest.raises(KernelError, match="delay"):
            kernel.launch("a", _noop_behaviour, delay=delay)
        assert kernel.counters() == before
        with pytest.raises(KernelError, match="delay"):
            kernel.launch_many([("a", _noop_behaviour), ("b", _noop_behaviour)],
                               delay=delay)
        assert kernel.counters() == before
        kernel.run()
        assert kernel.counters() == before
        assert math.isfinite(kernel.now)

    def test_launch_callable_and_read_result(self, kernel):
        def agent(ctx, bc):
            yield ctx.sleep(0.01)
            return "value"

        agent_id = kernel.launch("a", agent)
        kernel.run()
        assert kernel.result_of(agent_id) == "value"
        assert kernel.agent(agent_id).ok

    def test_plain_function_behaviour_runs_to_completion(self, kernel):
        def plain(ctx, bc):
            return 99

        agent_id = kernel.launch("a", plain)
        kernel.run()
        assert kernel.result_of(agent_id) == 99

    def test_launch_by_installed_name(self, kernel):
        def named(ctx, bc):
            yield ctx.sleep(0)
            return "installed"

        kernel.install_agent("a", "named", named)
        agent_id = kernel.launch("a", "named")
        kernel.run()
        assert kernel.result_of(agent_id) == "installed"

    def test_launch_unknown_name_raises(self, kernel):
        with pytest.raises(UnknownAgentError):
            kernel.launch("a", "no-such-behaviour-anywhere")

    def test_launch_garbage_behaviour_raises(self, kernel):
        with pytest.raises(KernelError):
            kernel.launch("a", 123)

    def test_launch_at_unknown_site_raises(self, kernel):
        with pytest.raises(UnknownSiteError):
            kernel.launch("ghost", lambda ctx, bc: None)

    def test_result_of_unfinished_agent_raises(self, kernel):
        def sleeper(ctx, bc):
            yield ctx.sleep(100)

        agent_id = kernel.launch("a", sleeper)
        kernel.run(until=0.1)
        with pytest.raises(KernelError):
            kernel.result_of(agent_id)

    def test_result_of_failed_agent_raises(self, kernel):
        def broken(ctx, bc):
            yield ctx.sleep(0)
            raise RuntimeError("exploded")

        agent_id = kernel.launch("a", broken)
        kernel.run()
        assert kernel.agent(agent_id).state == AgentState.FAILED
        with pytest.raises(KernelError):
            kernel.result_of(agent_id)

    def test_failure_before_first_yield_is_recorded(self, kernel):
        def immediately_broken(ctx, bc):
            raise ValueError("bad agent")
            yield  # pragma: no cover

        agent_id = kernel.launch("a", immediately_broken)
        kernel.run()
        assert kernel.agent(agent_id).state == AgentState.FAILED
        assert kernel.counters()["failed"] == 1

    def test_unknown_agent_id_raises(self, kernel):
        with pytest.raises(UnknownAgentError):
            kernel.agent("agent-999999")

    def test_agents_named(self, kernel):
        def agent(ctx, bc):
            yield ctx.sleep(0)

        kernel.launch("a", agent, name="worker")
        kernel.launch("b", agent, name="worker")
        kernel.run()
        assert len(kernel.agents_named("worker")) == 2

    def test_launch_delay_defers_start(self, kernel):
        started = []

        def agent(ctx, bc):
            started.append(ctx.now)
            yield ctx.sleep(0)

        kernel.launch("a", agent, delay=0.75)
        kernel.run()
        assert started[0] == pytest.approx(0.75)

    def test_counters_snapshot(self, kernel):
        def agent(ctx, bc):
            yield ctx.sleep(0)
            return 1

        kernel.launch("a", agent)
        kernel.run()
        counters = kernel.counters()
        assert counters["launched"] == 1
        assert counters["completed"] == 1
        assert counters["failed"] == 0


class TestSyscalls:
    def test_sleep_advances_simulated_time(self, kernel):
        times = []

        def agent(ctx, bc):
            times.append(ctx.now)
            yield ctx.sleep(2.5)
            times.append(ctx.now)

        kernel.launch("a", agent)
        kernel.run()
        assert times[1] - times[0] >= 2.5

    def test_spawn_creates_independent_child(self, kernel):
        child_results = []

        def child(ctx, bc):
            yield ctx.sleep(0.01)
            child_results.append(bc.get("N"))
            return "child-done"

        def parent(ctx, bc):
            payload = Briefcase()
            payload.set("N", 7)
            child_id = yield ctx.spawn(child, payload)
            return child_id

        parent_id = kernel.launch("a", parent)
        kernel.run()
        child_id = kernel.result_of(parent_id)
        assert kernel.result_of(child_id) == "child-done"
        assert child_results == [7]
        assert kernel.agent(child_id).parent_id == parent_id

    def test_spawned_child_starts_spawn_overhead_after_the_request(self, kernel):
        marks = {}

        def child(ctx, bc):
            marks["child"] = ctx.now
            yield ctx.sleep(0)

        def parent(ctx, bc):
            marks["asked"] = ctx.now
            yield ctx.spawn(child)
            marks["resumed"] = ctx.now

        kernel.launch("a", parent)
        kernel.run()
        assert marks["child"] - marks["asked"] == pytest.approx(SPAWN_OVERHEAD)
        assert marks["resumed"] - marks["asked"] == pytest.approx(STEP_COST)

    def test_transmit_resumes_the_sender_after_transmit_overhead(self, kernel):
        marks = {}

        def receiver(ctx, bc):
            yield ctx.sleep(0)

        def sender(ctx, bc):
            marks["asked"] = ctx.now
            accepted = yield ctx.transmit("b", "receiver", Briefcase())
            marks["resumed"] = ctx.now
            return accepted

        kernel.install_agent("b", "receiver", receiver)
        sender_id = kernel.launch("a", sender, system=True)
        kernel.run()
        assert kernel.result_of(sender_id)
        assert marks["resumed"] - marks["asked"] == pytest.approx(
            TRANSMIT_OVERHEAD + STEP_COST)

    def test_spawn_by_unknown_name_delivers_error_to_parent(self, kernel):
        def parent(ctx, bc):
            try:
                yield ctx.spawn("missing-behaviour")
            except UnknownAgentError:
                return "caught"
            return "not-caught"

        parent_id = kernel.launch("a", parent)
        kernel.run()
        assert kernel.result_of(parent_id) == "caught"

    def test_terminate_syscall_finishes_agent(self, kernel):
        def agent(ctx, bc):
            yield ctx.terminate("early-exit")
            return "never-reached"    # pragma: no cover

        agent_id = kernel.launch("a", agent)
        kernel.run()
        assert kernel.result_of(agent_id) == "early-exit"

    def test_transmit_denied_for_ordinary_agents(self, kernel):
        def ordinary(ctx, bc):
            try:
                yield ctx.transmit("b", "ag_py", Briefcase())
            except SyscallError:
                return "denied"
            return "allowed"

        agent_id = kernel.launch("a", ordinary)
        kernel.run()
        assert kernel.result_of(agent_id) == "denied"

    def test_transmit_to_unknown_site_errors_for_system_agent(self, kernel):
        def system_agent(ctx, bc):
            try:
                yield ctx.transmit("ghost", "ag_py", Briefcase())
            except SyscallError:
                return "no-route"
            return "sent"

        agent_id = kernel.launch("a", system_agent, system=True)
        kernel.run()
        assert kernel.result_of(agent_id) == "no-route"

    def test_yielding_non_syscall_delivers_error(self, kernel):
        def confused(ctx, bc):
            try:
                yield "not a syscall"
            except SyscallError:
                return "told-off"
            return "accepted"

        agent_id = kernel.launch("a", confused)
        kernel.run()
        assert kernel.result_of(agent_id) == "told-off"

    def test_yielding_unknown_syscall_subclass_delivers_error(self, kernel):
        class Mystery(Syscall):
            pass

        def agent(ctx, bc):
            try:
                yield Mystery()
            except SyscallError:
                return "unsupported"
            return "supported"

        agent_id = kernel.launch("a", agent)
        kernel.run()
        assert kernel.result_of(agent_id) == "unsupported"

    def test_subclassed_syscalls_dispatch_as_their_base(self, kernel):
        # Dispatch is keyed on the exact type first; a subclass must still
        # reach its base's handler (and the most derived handled base wins).
        class Nap(Sleep):
            pass

        class PoliteMeet(Meet):
            pass

        class LastWords(Terminate):
            pass

        def service(ctx, bc):
            yield ctx.end_meet("served")

        kernel.install_agent("a", "service", service)

        def agent(ctx, bc):
            before = ctx.now
            yield Nap(0.25)
            slept = ctx.now - before
            result = yield PoliteMeet("service", Briefcase())
            yield LastWords((slept, result.value))
            return "unreachable"

        agent_id = kernel.launch("a", agent)
        kernel.run()
        slept, served = kernel.result_of(agent_id)
        assert slept >= 0.25 and served == "served"
        assert kernel.counters()["meets"] == 1

    def test_runaway_agent_is_killed(self, monkeypatch):
        monkeypatch.setattr("repro.core.engine.MAX_AGENT_STEPS", 50)
        kernel = Kernel(lan(["a"]), config=KernelConfig(rng_seed=1))

        def runaway(ctx, bc):
            while True:
                yield ctx.sleep(0)

        agent_id = kernel.launch("a", runaway)
        kernel.run(max_events=5000)
        assert kernel.agent(agent_id).state == AgentState.KILLED
        assert kernel.counters()["killed"] == 1

    def test_the_step_budget_is_read_on_each_step(self, strategy, monkeypatch):
        # A budget lowered mid-run binds the agents already running: the
        # engine reads the constant on every step, not once at construction.
        kernel = Kernel(lan(["a", "b"]), config=KernelConfig(rng_seed=1))

        def runaway(ctx, bc):
            while True:
                yield ctx.sleep(0.001)

        agent_id = kernel.launch("b", runaway)
        kernel.run(until=0.05)
        assert kernel.agent(agent_id).state == AgentState.WAITING
        taken = kernel.agent(agent_id).steps
        monkeypatch.setattr("repro.core.engine.MAX_AGENT_STEPS", taken + 10)
        kernel.run(until=1.0)
        record = kernel.agent(agent_id)
        assert (record.state, record.steps) == (AgentState.KILLED, taken + 11)
        assert kernel.counters()["killed"] == 1


class TestMeetSemantics:
    def test_meet_returns_callee_value_and_briefcase(self, kernel):
        def service(ctx, bc):
            bc.set("ANSWER", 42)
            yield ctx.end_meet("ok")

        kernel.install_agent("a", "service", service)

        def client(ctx, bc):
            request = Briefcase()
            result = yield ctx.meet("service", request)
            return (result.value, request.get("ANSWER"))

        agent_id = kernel.launch("a", client)
        kernel.run()
        assert kernel.result_of(agent_id) == ("ok", 42)

    def test_meet_implicit_end_on_return(self, kernel):
        def service(ctx, bc):
            yield ctx.sleep(0.01)
            return "implicit"

        kernel.install_agent("a", "service", service)

        def client(ctx, bc):
            result = yield ctx.meet("service")
            return result.value

        agent_id = kernel.launch("a", client)
        kernel.run()
        assert kernel.result_of(agent_id) == "implicit"

    def test_meet_unknown_agent_raises_in_caller(self, kernel):
        def client(ctx, bc):
            try:
                yield ctx.meet("nonexistent")
            except MeetError:
                return "missing"
            return "found"

        agent_id = kernel.launch("a", client)
        kernel.run()
        assert kernel.result_of(agent_id) == "missing"

    def test_meet_callee_failure_propagates_as_meet_error(self, kernel):
        def broken_service(ctx, bc):
            yield ctx.sleep(0)
            raise RuntimeError("service blew up")

        kernel.install_agent("a", "broken", broken_service)

        def client(ctx, bc):
            try:
                yield ctx.meet("broken")
            except MeetError:
                return "callee-failed"
            return "fine"

        agent_id = kernel.launch("a", client)
        kernel.run()
        assert kernel.result_of(agent_id) == "callee-failed"
        assert kernel.counters()["failed"] == 1

    def test_callee_continues_after_end_meet(self, kernel):
        def service(ctx, bc):
            yield ctx.end_meet("early-answer")
            yield ctx.sleep(0.5)
            ctx.cabinet("after").put("done", ctx.now)
            return "late-finish"

        kernel.install_agent("a", "service", service)

        def client(ctx, bc):
            result = yield ctx.meet("service")
            return (result.value, ctx.now)

        agent_id = kernel.launch("a", client)
        kernel.run()
        value, client_resumed_at = kernel.result_of(agent_id)
        assert value == "early-answer"
        # The caller resumed long before the callee finished.
        assert kernel.site("a").cabinet("after").get("done") > client_resumed_at

    def test_nested_meets(self, kernel):
        def inner(ctx, bc):
            bc.set("TRACE", "inner")
            yield ctx.end_meet("inner-value")

        def outer(ctx, bc):
            nested = Briefcase()
            result = yield ctx.meet("inner", nested)
            bc.set("TRACE", f"outer({result.value})")
            yield ctx.end_meet("outer-value")

        kernel.install_agent("a", "inner", inner)
        kernel.install_agent("a", "outer", outer)

        def client(ctx, bc):
            request = Briefcase()
            result = yield ctx.meet("outer", request)
            return (result.value, request.get("TRACE"))

        agent_id = kernel.launch("a", client)
        kernel.run()
        assert kernel.result_of(agent_id) == ("outer-value", "outer(inner-value)")

    def test_meets_counter(self, kernel):
        def service(ctx, bc):
            yield ctx.end_meet(None)

        kernel.install_agent("a", "service", service)

        def client(ctx, bc):
            yield ctx.meet("service")
            yield ctx.meet("service")
            return "done"

        kernel.launch("a", client)
        kernel.run()
        assert kernel.counters()["meets"] == 2


class TestFailureInjection:
    def test_crash_kills_resident_agents(self, kernel):
        def sleeper(ctx, bc):
            yield ctx.sleep(10)

        victim = kernel.launch("b", sleeper)
        survivor = kernel.launch("a", sleeper)
        kernel.loop.schedule(1.0, lambda: kernel.crash_site("b"))
        kernel.run()
        assert kernel.agent(victim).state == AgentState.KILLED
        assert kernel.agent(survivor).state == AgentState.DONE

    def test_crash_is_idempotent(self, kernel):
        kernel.crash_site("b")
        kernel.crash_site("b")
        assert kernel.site("b").crash_count == 1

    def test_recover_is_idempotent(self, kernel):
        kernel.crash_site("b")
        kernel.recover_site("b")
        kernel.recover_site("b")
        assert kernel.site("b").alive

    def test_launch_on_crashed_site_kills_agent(self, kernel):
        kernel.crash_site("b")

        def agent(ctx, bc):
            yield ctx.sleep(0)

        agent_id = kernel.launch("b", agent)
        kernel.run()
        assert kernel.agent(agent_id).state == AgentState.KILLED

    def test_partition_blocks_migration(self, kernel):
        from repro.core.codec import code_for

        kernel.partition([["a"], ["b", "c"]])

        def mover(ctx, bc):
            request = Briefcase()
            request.set("HOST", "b")
            request.set("CONTACT", "ag_py")
            request.set("CODE", code_for("shell"))
            result = yield ctx.meet("rexec", request)
            return result.value

        agent_id = kernel.launch("a", mover)
        kernel.run()
        assert kernel.result_of(agent_id) is False
        kernel.heal_partition()

    def test_site_load_counts_active_agents(self, kernel):
        def sleeper(ctx, bc):
            yield ctx.sleep(5)

        kernel.launch("a", sleeper)
        kernel.launch("a", sleeper)
        kernel.run(until=1.0)
        assert kernel.site_load("a") == pytest.approx(2.0)
        assert len(kernel.site("a").residents()) == 2

    def test_event_log_records_agent_messages(self, kernel):
        def chatty(ctx, bc):
            ctx.log("hello log")
            yield ctx.sleep(0)

        kernel.launch("a", chatty)
        kernel.run()
        assert any("hello log" in entry[3] for entry in kernel.event_log)


def fixed_site_hopper(ctx, bc):
    """Jump from the launch site to DEST and mark the arrival there."""
    if ctx.site_name == bc.get("DEST"):
        ctx.cabinet("visits").put("arrived", ctx.site_name)
        yield ctx.sleep(0)
        return "arrived"
    yield ctx.jump(bc, bc.get("DEST"))
    return "moved"


class TestFixedSites:
    """A kernel's sites are the topology's sites when ``Kernel(...)`` returns."""

    def test_every_construction_site_is_wired_and_reachable(self, strategy):
        from repro.core.registry import register_behaviour
        from repro.net import lan
        kernel = Kernel(lan(["a", "b", "c", "d"]), transport="tcp",
                        config=KernelConfig(rng_seed=3))
        assert kernel.site_names() == kernel.topology.sites()
        register_behaviour("fixed_site_hopper", fixed_site_hopper, replace=True)
        for dest in ("b", "c", "d"):
            briefcase = Briefcase()
            briefcase.set("DEST", dest)
            kernel.launch("a", "fixed_site_hopper", briefcase)
        kernel.run()
        assert kernel.counters()["arrivals"] == 3
        for dest in ("b", "c", "d"):
            assert kernel.site(dest).cabinet("visits").get("arrived") == dest

    def test_a_site_added_to_the_topology_later_is_not_placed(self, strategy):
        # The placement map is fixed at construction: a site the topology
        # gains afterwards belongs to no engine, so the kernel refuses it
        # instead of half-registering it.
        from repro.net import lan
        kernel = Kernel(lan(["a", "b"]), transport="tcp")
        kernel.topology.add_link("late", "a")
        assert "late" not in kernel.sites
        with pytest.raises(UnknownSiteError):
            kernel.site("late")
        with pytest.raises(UnknownSiteError):
            kernel.launch("late", _noop_behaviour)
        assert kernel.counters()["launched"] == 0

    def test_skipping_system_agents_holds_on_every_site(self, strategy):
        from repro.net import lan
        kernel = Kernel(lan(["a", "b", "c"]), install_system_agents=False)
        for name in kernel.site_names():
            assert not kernel.site(name).is_installed("rexec"), name
            assert not kernel.site(name).is_installed("ag_py"), name


class TestShardedRunSemantics:
    """run(until=...) / run(max_events=...) keep their meaning under shards."""

    def _build(self, shards=4, n_agents=12):
        names = [f"s{i}" for i in range(8)]
        kernel = Kernel(lan(names), transport="tcp",
                        config=KernelConfig(rng_seed=3, shards=shards))

        def ticker(ctx, bc):
            for _ in range(int(bc.get("TICKS", 5))):
                yield ctx.sleep(0.1)
            return ctx.site_name

        for index in range(n_agents):
            kernel.launch(names[index % len(names)], ticker, Briefcase())
        return kernel

    def test_until_is_global_every_shard_clock_lands_on_it(self):
        kernel = self._build()
        kernel.run(until=0.25)
        assert kernel.now == pytest.approx(0.25)
        for engine in kernel.engines:
            # No shard's clock passes the target, and on a clean finish
            # every one of them lands exactly on it.
            assert engine.loop.now == pytest.approx(0.25)
        assert kernel.counters()["completed"] == 0  # the tickers need 0.5s
        kernel.run()
        assert kernel.counters()["completed"] == kernel.counters()["launched"]

    def test_until_never_overshoots_even_mid_burst(self):
        kernel = self._build()
        kernel.run(until=0.123)
        for engine in kernel.engines:
            assert engine.loop.now <= 0.123 + 1e-9

    def test_max_events_is_one_global_budget(self):
        budgeted = self._build()
        executed = budgeted.run(max_events=10)
        assert executed == 10
        free = self._build()
        total = free.run()
        # The same system without a budget runs far more than 10 events:
        # the cap genuinely limited the cluster, not one shard.
        assert total > 10
        # Resuming after the budget finishes the run with the remainder.
        assert budgeted.run() == total - 10
        assert budgeted.counters()["completed"] == budgeted.counters()["launched"]

    def test_budget_exhaustion_leaves_clocks_on_their_last_event(self):
        kernel = self._build()
        kernel.run(max_events=7)
        # At least one shard is mid-stream; nobody was advanced past the
        # events it still has queued (resuming would otherwise raise).
        assert kernel.run() > 0
        assert kernel.counters()["completed"] == kernel.counters()["launched"]

    def test_sharded_run_matches_classic_run_exactly(self):
        sharded = self._build(shards=4)
        classic = self._build(shards=1)
        assert sharded.run(until=0.35) == classic.run(until=0.35)
        assert sharded.counters() == classic.counters()
        assert sharded.run() == classic.run()
        assert sharded.counters() == classic.counters()
        assert sharded.now == classic.now

    def test_idle_engines_land_on_the_drains_last_event(self):
        # Five of eight sites on engine 0 and one on each other engine:
        # waves of sleepers on engine 0 leave engines 1-3 idle, and every
        # run() still lands all four clocks where one loop's run() would.
        names = [f"s{i}" for i in range(8)]
        placement = {name: max(0, index - 4) for index, name in enumerate(names)}
        kernel = Kernel(lan(names), transport="tcp",
                        config=KernelConfig(rng_seed=3, shards=4,
                                            shard_placement=placement))

        def sleeper(ctx, bc):
            yield ctx.sleep(0.035)
            return ctx.now

        for wave_end in (0.0355, 0.071, 0.1065):
            agent_ids = [kernel.launch(name, sleeper) for name in names[:5]]
            kernel.run()
            assert kernel.now == pytest.approx(wave_end, abs=1e-12)
            assert {engine.loop.now for engine in kernel.engines} == {kernel.now}
            assert {kernel.result_of(agent_id)
                    for agent_id in agent_ids} == {kernel.now}


class TestKernelContextManager:
    """`with Kernel(...)` calls close() on exit; close is idempotent."""

    def test_classic_kernel_context_manager(self):
        with Kernel(lan(["a", "b"]), config=KernelConfig(rng_seed=3)) as kernel:
            agent_id = kernel.launch("a", _noop_behaviour)
            kernel.run()
        assert kernel.counters()["completed"] == 1
        assert kernel.result_of(agent_id) == "done"
        kernel.close()  # idempotent after __exit__

    def test_enter_returns_the_kernel_itself(self):
        kernel = Kernel(lan(["a"]), install_system_agents=False)
        try:
            assert kernel.__enter__() is kernel
        finally:
            kernel.close()

    def test_sharded_kernel_context_manager_closes_backend(self):
        from repro.shard import process_backend_available
        if not process_backend_available():
            pytest.skip("cannot fork shard workers on this host")
        config = KernelConfig(rng_seed=5, shards=2, shard_backend="process")
        with Kernel(lan(["a", "b", "c", "d"]), config=config) as kernel:
            kernel.launch("a", "courier")
            kernel.run()
            assert kernel.counters()["completed"] == 1
        # close() stopped every worker; closing again is a no-op.
        assert not any(handle.process.is_alive()
                       for handle in kernel._coordinator.backend._handles)
        kernel.close()

    # shards=1 never builds a backend, so only one classic case.
    @pytest.mark.parametrize("shards, backend", [
        (1, "inproc"), (2, "inproc"), (2, "process"),
    ], ids=["classic", "inproc", "process"], indirect=["backend"])
    def test_use_after_close_fails_the_same_way_everywhere(self, shards, backend):
        kernel = Kernel(lan(["a", "b", "c", "d"]),
                        config=KernelConfig(rng_seed=5, shards=shards,
                                            shard_backend=backend))
        kernel.launch("a", "courier", name="before")
        kernel.run()
        spans = kernel.trace_spans()
        kernel.close()
        for call in (lambda: kernel.run(),
                     lambda: kernel.launch("a", "courier"),
                     lambda: kernel.launch_many([("a", "courier")]),
                     lambda: kernel.install_agent("a", "noop", _noop_behaviour),
                     lambda: kernel.crash_site("a"),
                     lambda: kernel.recover_site("a"),
                     lambda: kernel.partition([["a"], ["b", "c", "d"]]),
                     lambda: kernel.heal_partition(),
                     lambda: kernel.make_durable("m")):
            with pytest.raises(KernelError, match="kernel is closed"):
                call()
        # Reads keep working on a closed kernel.
        before, = kernel.agents_named("before")
        assert before.ok
        assert kernel.counters()["launched"] == kernel.counters()["launched"] >= 1
        assert kernel.stats.snapshot()["messages_sent"] >= 0
        assert kernel.trace_spans() == spans
        assert "e" not in kernel.sites
        assert not kernel.topology.partitioned("a", "b")

    def test_close_propagates_exceptions_but_still_closes(self):
        kernel = Kernel(lan(["a"]), install_system_agents=False,
                        config=KernelConfig(durability="wal-group-commit"))
        with pytest.raises(RuntimeError, match="boom"):
            with kernel:
                raise RuntimeError("boom")
        with pytest.raises(KernelError, match="kernel is closed"):
            kernel.run()


def _noop_behaviour(ctx, briefcase):
    yield ctx.sleep(0)
    return "done"
