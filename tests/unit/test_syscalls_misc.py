"""Unit tests for the syscall dataclasses and assorted kernel behaviours
not covered elsewhere (custom registries, run horizons, meet briefcase defaults)."""

from __future__ import annotations

import pytest

from repro.core import Briefcase, Kernel, KernelConfig
from repro.core.registry import BehaviourRegistry
from repro.core.syscalls import (EndMeet, Meet, MeetResult, Sleep, Spawn, Syscall,
                                 Terminate, Transmit)
from repro.net import lan


class TestSyscallDataclasses:
    def test_every_syscall_is_a_syscall(self):
        briefcase = Briefcase()
        for syscall in (Meet("rexec"), EndMeet(), Sleep(1.0), Spawn("rexec"),
                        Transmit("b", "ag_py", briefcase), Terminate()):
            assert isinstance(syscall, Syscall)

    def test_meet_defaults_to_a_fresh_briefcase(self):
        first = Meet("rexec")
        second = Meet("rexec")
        assert isinstance(first.briefcase, Briefcase)
        assert first.briefcase is not second.briefcase

    def test_spawn_defaults(self):
        spawn = Spawn("worker")
        assert spawn.name is None
        assert spawn.code_element is None
        assert isinstance(spawn.briefcase, Briefcase)

    def test_transmit_defaults_to_agent_transfer_kind(self):
        transmit = Transmit("b", "ag_py", Briefcase())
        assert transmit.kind == "agent-transfer"

    def test_end_meet_and_terminate_defaults(self):
        assert EndMeet().value is None
        assert Terminate().result is None
        assert Sleep().duration == 0.0

    def test_meet_result_carries_the_callee_briefcase(self):
        briefcase = Briefcase()
        result = MeetResult(value=1, briefcase=briefcase, agent_id="agent-000001")
        assert result.briefcase is briefcase


class TestKernelWithCustomRegistry:
    def test_private_registry_resolves_launch_names(self):
        registry = BehaviourRegistry()

        def private_worker(ctx, bc):
            yield ctx.sleep(0)
            return "private"

        registry.register("private_worker", private_worker)
        kernel = Kernel(lan(["a", "b"]), registry=registry,
                        config=KernelConfig(rng_seed=1))
        agent_id = kernel.launch("a", "private_worker")
        kernel.run()
        assert kernel.result_of(agent_id) == "private"

    def test_default_registry_names_do_not_leak_into_private_registry(self):
        registry = BehaviourRegistry()
        kernel = Kernel(lan(["a"]), registry=registry, config=KernelConfig(rng_seed=1))
        # "rexec" is installed at the site (so launching it works), but the
        # private registry itself stays empty of the global names.
        assert "rexec" not in registry
        assert kernel.site("a").is_installed("rexec")


@pytest.mark.usefixtures("strategy")
class TestRunHorizons:
    def test_run_until_leaves_future_events_queued(self):
        kernel = Kernel(lan(["a"]), config=KernelConfig(rng_seed=1))
        fired = []

        def late_agent(ctx, bc):
            yield ctx.sleep(5.0)
            fired.append(ctx.now)
            return "late"

        kernel.launch("a", late_agent)
        kernel.run(until=1.0)
        assert fired == []
        assert kernel.now == pytest.approx(1.0)
        kernel.run()
        assert len(fired) == 1

    @pytest.mark.one_engine(reason="reads kernel.loop.pending (engine 0's loop)")
    def test_run_max_events_bounds_work(self):
        kernel = Kernel(lan(["a"]), config=KernelConfig(rng_seed=1))

        def ticker(ctx, bc):
            for _ in range(100):
                yield ctx.sleep(0.01)
            return "done"

        kernel.launch("a", ticker)
        executed = kernel.run(max_events=10)
        assert executed == 10
        assert kernel.loop.pending > 0

    def test_now_property_tracks_loop_time(self):
        kernel = Kernel(lan(["a"]), config=KernelConfig(rng_seed=1))
        assert kernel.now == 0.0

        def sleeper(ctx, bc):
            yield ctx.sleep(2.0)

        kernel.launch("a", sleeper)
        kernel.run()
        assert kernel.now >= 2.0

    def test_repr_mentions_sites_and_transport(self):
        kernel = Kernel(lan(["a", "b"]), transport="rsh", config=KernelConfig(rng_seed=1))
        text = repr(kernel)
        assert "2 sites" in text and "rsh" in text


class TestMeetBriefcaseSharing:
    def test_meet_shares_the_briefcase_by_reference(self):
        """The paper's argument-list semantics: callee writes are visible to the caller."""
        kernel = Kernel(lan(["a"]), config=KernelConfig(rng_seed=1))

        def service(ctx, bc):
            bc.put("SHARED", "written-by-callee")
            yield ctx.end_meet(None)

        kernel.install_agent("a", "service", service)

        def client(ctx, bc):
            request = Briefcase()
            yield ctx.meet("service", request)
            return request.get("SHARED")

        agent_id = kernel.launch("a", client)
        kernel.run()
        assert kernel.result_of(agent_id) == "written-by-callee"

    def test_migrated_briefcase_is_a_copy_not_a_reference(self):
        """Migration serialises the briefcase: later local edits do not travel."""
        kernel = Kernel(lan(["a", "b"]), config=KernelConfig(rng_seed=1))
        from repro.core.codec import code_for

        def remote_probe(ctx, bc):
            ctx.cabinet("probe").put("SEEN", bc.get("MARKER"))
            yield ctx.sleep(0)

        from repro.core.registry import register_behaviour
        register_behaviour("remote_probe", remote_probe, replace=True)
        kernel.install_agent("b", "remote_probe", remote_probe)

        def sender(ctx, bc):
            shipment = Briefcase()
            shipment.set("MARKER", "original")
            shipment.set("HOST", "b")
            shipment.set("CONTACT", "remote_probe")
            shipment.set("CODE", code_for("remote_probe"))
            yield ctx.meet("rexec", shipment)
            # Mutating after the transfer was handed over must not affect
            # what arrives at b (the wire copy was already taken).
            shipment.set("MARKER", "mutated-after-send")
            yield ctx.sleep(1.0)
            return "sent"

        kernel.launch("a", sender)
        kernel.run()
        assert kernel.site("b").cabinet("probe").get("SEEN") == "original"
