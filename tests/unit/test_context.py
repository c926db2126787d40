"""Unit tests for AgentContext: the agent's view of its current site."""

from __future__ import annotations

import pytest

from repro.core import Briefcase, Kernel, KernelConfig
from repro.core.briefcase import CODE_FOLDER, CONTACT_FOLDER, HOST_FOLDER
from repro.core.syscalls import EndMeet, Meet, Sleep, Spawn, Terminate, Transmit
from repro.net import lan


@pytest.fixture
def kernel():
    return Kernel(lan(["a", "b", "c"]), transport="tcp", config=KernelConfig(rng_seed=5))


def run_probe(kernel, probe, site="a", briefcase=None, **launch_kwargs):
    """Launch *probe*, run the kernel, and return the probe's result."""
    agent_id = kernel.launch(site, probe, briefcase, **launch_kwargs)
    kernel.run()
    return kernel.result_of(agent_id)


class TestEnvironment:
    def test_identity_properties(self, kernel):
        def probe(ctx, bc):
            yield ctx.sleep(0)
            return {
                "site": ctx.site_name,
                "agent_id": ctx.agent_id,
                "name": ctx.agent_name,
                "system": ctx.is_system_agent,
                "briefcase_is_same": ctx.briefcase is bc,
            }

        briefcase = Briefcase()
        result = run_probe(kernel, probe, briefcase=briefcase, name="probe")
        assert result["site"] == "a"
        assert result["name"] == "probe"
        assert result["agent_id"].startswith("agent-")
        assert result["system"] is False
        assert result["briefcase_is_same"] is True

    def test_sites_and_neighbors(self, kernel):
        def probe(ctx, bc):
            yield ctx.sleep(0)
            return (sorted(ctx.sites()), sorted(ctx.neighbors()))

        sites, neighbors = run_probe(kernel, probe)
        assert sites == ["a", "b", "c"]
        assert neighbors == ["b", "c"]

    def test_now_tracks_simulated_time(self, kernel):
        def probe(ctx, bc):
            before = ctx.now
            yield ctx.sleep(1.0)
            return ctx.now - before

        assert run_probe(kernel, probe) >= 1.0

    def test_site_load_defaults_to_local_site(self, kernel):
        def probe(ctx, bc):
            yield ctx.sleep(0)
            return ctx.site_load()

        assert run_probe(kernel, probe) >= 0.0

    def test_rng_is_deterministic_per_seed(self):
        def probe(ctx, bc):
            yield ctx.sleep(0)
            return [ctx.rng.random() for _ in range(3)]

        first = run_probe(Kernel(lan(["a"]), config=KernelConfig(rng_seed=9)), probe)
        # A fresh kernel with the same seed produces an agent with the same
        # id sequence only if the global counter aligns, so compare two
        # draws inside a single kernel instead: same agent id -> same stream.
        assert len(first) == 3
        assert all(0.0 <= value < 1.0 for value in first)

    def test_rng_stream_is_seeded_from_kernel_seed_and_agent_id(self):
        import random

        def probe(ctx, bc):
            yield ctx.sleep(0)
            return ctx.agent_id, [ctx.rng.random() for _ in range(3)], ctx.rng.getrandbits(64)

        agent_id, floats, bits = run_probe(
            Kernel(lan(["a"]), config=KernelConfig(rng_seed=9)), probe)
        reference = random.Random(f"9:{agent_id}")
        assert floats == [reference.random() for _ in range(3)]
        assert bits == reference.getrandbits(64)

    def test_rng_is_not_built_until_a_behaviour_draws(self, kernel, monkeypatch):
        import random
        built = []

        class CountingRandom(random.Random):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr("repro.core.context.random.Random", CountingRandom)

        def abstainer(ctx, bc):
            yield ctx.sleep(0)
            return "no draw"

        def gambler(ctx, bc):
            yield ctx.sleep(0)
            return ctx.rng.random() + ctx.rng.random()

        assert run_probe(kernel, abstainer) == "no draw"
        assert built == []
        run_probe(kernel, gambler)
        assert len(built) == 1  # one stream per agent, built on first access

    def test_cabinet_access_creates_on_demand(self, kernel):
        def probe(ctx, bc):
            assert not ctx.has_cabinet("fresh")
            ctx.cabinet("fresh").put("X", 1)
            yield ctx.sleep(0)
            return ctx.has_cabinet("fresh")

        assert run_probe(kernel, probe) is True
        assert kernel.site("a").cabinet("fresh").get("X") == 1


class TestSyscallConstructors:
    def test_constructors_build_expected_syscalls(self, kernel):
        def probe(ctx, bc):
            yield ctx.sleep(0)
            return {
                "meet": ctx.meet("rexec"),
                "end_meet": ctx.end_meet("v"),
                "sleep": ctx.sleep(1.5),
                "spawn": ctx.spawn("rexec"),
                "terminate": ctx.terminate("bye"),
                "transmit": ctx.transmit("b", "ag_py", Briefcase()),
            }

        result = run_probe(kernel, probe)
        assert isinstance(result["meet"], Meet) and result["meet"].agent_name == "rexec"
        assert isinstance(result["end_meet"], EndMeet) and result["end_meet"].value == "v"
        assert isinstance(result["sleep"], Sleep) and result["sleep"].duration == 1.5
        assert isinstance(result["spawn"], Spawn)
        assert isinstance(result["terminate"], Terminate) and result["terminate"].result == "bye"
        assert isinstance(result["transmit"], Transmit) and result["transmit"].destination == "b"

    def test_meet_gets_fresh_briefcase_by_default(self, kernel):
        def probe(ctx, bc):
            yield ctx.sleep(0)
            first = ctx.meet("rexec")
            second = ctx.meet("rexec")
            return first.briefcase is not second.briefcase

        assert run_probe(kernel, probe) is True


class TestJumpIdiom:
    def test_jump_attaches_host_contact_and_code(self, kernel):
        def probe(ctx, bc):
            yield ctx.sleep(0)
            travel = Briefcase()
            syscall = ctx.jump(travel, "b")
            return {
                "target": syscall.agent_name,
                "host": travel.get(HOST_FOLDER),
                "contact": travel.get(CONTACT_FOLDER),
                "has_code": travel.has(CODE_FOLDER),
            }

        from repro.core.registry import register_behaviour
        register_behaviour("ctx_probe", probe, replace=True)
        result = run_probe(kernel, "ctx_probe")
        assert result["target"] == "rexec"
        assert result["host"] == "b"
        assert result["contact"] == "ag_py"
        assert result["has_code"] is True

    def test_jump_with_custom_contact(self, kernel):
        def probe(ctx, bc):
            yield ctx.sleep(0)
            travel = Briefcase()
            ctx.jump(travel, "c", contact="shell")
            return travel.get(CONTACT_FOLDER)

        from repro.core.registry import register_behaviour
        register_behaviour("ctx_probe2", probe, replace=True)
        assert run_probe(kernel, "ctx_probe2") == "shell"

    def test_send_folder_builds_courier_meet(self, kernel):
        from repro.core import Folder

        def probe(ctx, bc):
            yield ctx.sleep(0)
            syscall = ctx.send_folder(Folder("PAYLOAD", ["data"]), "b", "mailbox")
            return {
                "agent": syscall.agent_name,
                "host": syscall.briefcase.get(HOST_FOLDER),
                "contact": syscall.briefcase.get(CONTACT_FOLDER),
                "payload_name": syscall.briefcase.get("PAYLOAD_NAME"),
                "has_payload": syscall.briefcase.has("PAYLOAD"),
            }

        result = run_probe(kernel, probe)
        assert result["agent"] == "courier"
        assert result["host"] == "b"
        assert result["contact"] == "mailbox"
        assert result["payload_name"] == "PAYLOAD"
        assert result["has_payload"] is True
