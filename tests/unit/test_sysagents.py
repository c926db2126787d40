"""Unit tests for the standard system agents: rexec, ag_py, courier, shell."""

from __future__ import annotations

import pytest

from repro.core import AgentState, Briefcase, Folder, Kernel, KernelConfig
from repro.core.codec import code_for, code_from_source
from repro.net import lan
from repro.sysagents import STANDARD_AGENTS, install_standard_agents


@pytest.fixture
def kernel():
    return Kernel(lan(["a", "b", "c"]), transport="tcp", config=KernelConfig(rng_seed=2))


def run_client(kernel, behaviour, site="a"):
    agent_id = kernel.launch(site, behaviour)
    kernel.run()
    return kernel.result_of(agent_id)


class TestInstallation:
    def test_standard_agents_table(self):
        for name in ("ag_py", "rexec", "courier", "diffusion", "shell"):
            assert name in STANDARD_AGENTS

    def test_install_standard_agents_is_idempotent(self, kernel):
        site = kernel.site("a")
        install_standard_agents(site)
        install_standard_agents(site)
        assert site.is_installed("rexec")

    def test_rexec_and_agpy_are_system_agents(self, kernel):
        for name in ("rexec", "ag_py", "courier"):
            _, is_system = kernel.site("a").resolve(name)
            assert is_system, f"{name} should be a system agent"


class TestRexec:
    def test_missing_host_folder_ends_meet_with_false(self, kernel):
        def client(ctx, bc):
            request = Briefcase()
            request.set("CONTACT", "ag_py")
            result = yield ctx.meet("rexec", request)
            return result.value

        assert run_client(kernel, client) is False

    def test_jump_to_current_site_is_a_local_meet(self, kernel):
        def local_service(ctx, bc):
            bc.set("SERVED_AT", ctx.site_name)
            yield ctx.end_meet("served")

        kernel.install_agent("a", "local_service", local_service)

        def client(ctx, bc):
            request = Briefcase()
            request.set("HOST", "a")
            request.set("CONTACT", "local_service")
            result = yield ctx.meet("rexec", request)
            return (result.value, request.get("SERVED_AT"))

        value, served_at = run_client(kernel, client)
        assert value is True
        assert served_at == "a"
        assert kernel.stats.migrations == 0   # no network involved

    def test_application_kind_folder_travels_untouched(self, kernel):
        # An agent's own "KIND" folder is ordinary luggage: rexec only
        # consumes it when it names a supported transfer kind (the rear
        # guard relaunch override); anything else ships along unmodified
        # as a plain agent transfer.
        from repro.net.message import MessageKind

        def client(ctx, bc):
            request = Briefcase()
            request.set("HOST", "b")
            request.set("CONTACT", "ag_py")
            request.set("KIND", "priority")         # app-defined folder
            request.set("CODE", code_for("shell"))
            result = yield ctx.meet("rexec", request)
            return (result.value, request.has("KIND"))

        value, kind_kept = run_client(kernel, client)
        assert value is True
        assert kind_kept is True
        assert kernel.stats.per_kind[MessageKind.AGENT_TRANSFER] == 1
        assert kernel.stats.per_kind.get(MessageKind.FT_RELAUNCH, 0) == 0

    def test_ft_relaunch_kind_folder_is_consumed_and_used(self, kernel):
        from repro.net.message import MessageKind

        def client(ctx, bc):
            request = Briefcase()
            request.set("HOST", "b")
            request.set("CONTACT", "ag_py")
            request.set("KIND", MessageKind.FT_RELAUNCH)
            request.set("CODE", code_for("shell"))
            result = yield ctx.meet("rexec", request)
            return (result.value, request.has("KIND"))

        value, kind_kept = run_client(kernel, client)
        assert value is True
        assert kind_kept is False                  # consumed per shipment
        assert kernel.stats.per_kind[MessageKind.FT_RELAUNCH] == 1

    def test_transfer_to_down_site_ends_meet_with_false(self, kernel):
        kernel.crash_site("b")

        def client(ctx, bc):
            request = Briefcase()
            request.set("HOST", "b")
            request.set("CONTACT", "ag_py")
            request.set("CODE", code_for("shell"))
            result = yield ctx.meet("rexec", request)
            return result.value

        assert run_client(kernel, client) is False
        assert kernel.counters()["undeliverable"] == 0     # refused at the source, never sent

    def test_successful_transfer_starts_contact_at_destination(self, kernel):
        def remote_task(ctx, bc):
            ctx.cabinet("proof").put("ran_at", ctx.site_name)
            yield ctx.sleep(0)

        from repro.core.registry import register_behaviour
        register_behaviour("remote_task", remote_task, replace=True)
        kernel.install_agent("b", "remote_task", remote_task)

        def client(ctx, bc):
            request = Briefcase()
            request.set("HOST", "b")
            request.set("CONTACT", "remote_task")
            result = yield ctx.meet("rexec", request)
            return result.value

        assert run_client(kernel, client) is True
        assert kernel.site("b").cabinet("proof").get("ran_at") == "b"
        assert kernel.counters()["arrivals"] == 1

    def test_arrival_for_unknown_contact_is_undeliverable(self, kernel):
        def client(ctx, bc):
            request = Briefcase()
            request.set("HOST", "b")
            request.set("CONTACT", "not-installed-anywhere")
            result = yield ctx.meet("rexec", request)
            return result.value

        assert run_client(kernel, client) is True     # handed to the network fine
        assert kernel.counters()["undeliverable"] == 1
        assert kernel.site("b").undeliverable == 1


class TestAgPy:
    def test_runs_registered_code(self, kernel):
        def payload(ctx, bc):
            ctx.cabinet("proof").put("ran", True)
            yield ctx.sleep(0)

        from repro.core.registry import register_behaviour
        register_behaviour("agpy_payload", payload, replace=True)

        def client(ctx, bc):
            request = Briefcase()
            request.set("CODE", code_for("agpy_payload"))
            result = yield ctx.meet("ag_py", request)
            return result.value

        spawned_id = run_client(kernel, client)
        assert spawned_id is not None
        kernel.run()
        assert kernel.site("a").cabinet("proof").get("ran") is True

    def test_runs_shipped_source(self, kernel):
        source = """
def agent_main(ctx, bc):
    ctx.cabinet("proof").put("source_ran", ctx.site_name)
    yield ctx.sleep(0)
    return "source-done"
"""

        def client(ctx, bc):
            request = Briefcase()
            request.set("CODE", code_from_source(source))
            result = yield ctx.meet("ag_py", request)
            return result.value

        assert run_client(kernel, client) is not None
        assert kernel.site("a").cabinet("proof").get("source_ran") == "a"

    def test_missing_code_folder_is_recorded_not_raised(self, kernel):
        def client(ctx, bc):
            result = yield ctx.meet("ag_py", Briefcase())
            return result.value

        assert run_client(kernel, client) is None
        errors = kernel.site("a").cabinet("_errors").elements("ag_py")
        assert errors and "CODE" in errors[0]

    def test_unusable_code_is_recorded_not_raised(self, kernel):
        def client(ctx, bc):
            request = Briefcase()
            request.set("CODE", {"kind": "registered", "name": "never-registered-xyz"})
            result = yield ctx.meet("ag_py", request)
            return result.value

        assert run_client(kernel, client) is None
        assert kernel.site("a").cabinet("_errors").elements("ag_py")

    @pytest.mark.parametrize("element", ["hello", 42, ["x"], {"kind": "registered"},
                                         {"kind": "registered", "name": ["x"]}],
                             ids=["str", "int", "list", "registered-without-name",
                                  "registered-unhashable-name"])
    def test_malformed_code_element_is_filed_not_crashed_on(self, kernel, element):
        briefcase = Briefcase()
        briefcase.set("CODE", element)
        agent_id = kernel.launch("a", "ag_py", briefcase)
        kernel.run()
        record = kernel.agent(agent_id)
        assert (record.state, record.result) == (AgentState.DONE, None)
        errors = kernel.site("a").cabinet("_errors").elements("ag_py")
        assert len(errors) == 1 and "code rejected" in errors[0]


class TestCourier:
    def test_missing_folders_end_meet_with_false(self, kernel):
        def client(ctx, bc):
            result = yield ctx.meet("courier", Briefcase())
            return result.value

        assert run_client(kernel, client) is False

    def test_missing_payload_folder_is_refused(self, kernel):
        def client(ctx, bc):
            request = Briefcase()
            request.set("HOST", "b")
            request.set("CONTACT", "mailbox")
            request.set("PAYLOAD_NAME", "LETTER")     # folder LETTER not present
            result = yield ctx.meet("courier", request)
            return result.value

        assert run_client(kernel, client) is False

    def test_remote_delivery_reaches_contact(self, kernel):
        received = {}

        def receiver(ctx, bc):
            received["elements"] = bc.folder(bc.get("PAYLOAD_NAME")).elements()
            received["sender_site"] = bc.get("SENDER_SITE")
            yield ctx.sleep(0)

        kernel.install_agent("b", "receiver", receiver)

        def client(ctx, bc):
            result = yield ctx.send_folder(Folder("DOC", ["page1", "page2"]), "b", "receiver")
            return result.value

        assert run_client(kernel, client) is True
        assert received["elements"] == ["page1", "page2"]
        assert received["sender_site"] == "a"

    def test_local_delivery_avoids_the_network(self, kernel):
        received = {}

        def receiver(ctx, bc):
            received["ok"] = True
            yield ctx.sleep(0)

        kernel.install_agent("a", "receiver", receiver)

        def client(ctx, bc):
            result = yield ctx.send_folder(Folder("DOC", ["x"]), "a", "receiver")
            return result.value

        before = kernel.stats.messages_sent
        assert run_client(kernel, client) is True
        assert received["ok"] is True
        assert kernel.stats.messages_sent == before

    def test_courier_ships_only_the_payload_folder(self, kernel):
        """The courier must not forward unrelated folders it was handed."""
        seen_folders = {}

        def receiver(ctx, bc):
            seen_folders["names"] = sorted(bc.names())
            yield ctx.sleep(0)

        kernel.install_agent("b", "receiver", receiver)

        def client(ctx, bc):
            request = Briefcase()
            request.add(Folder("SECRET", ["do not ship"]))
            request.add(Folder("DOC", ["ship this"]))
            request.set("HOST", "b")
            request.set("CONTACT", "receiver")
            request.set("PAYLOAD_NAME", "DOC")
            result = yield ctx.meet("courier", request)
            return result.value

        assert run_client(kernel, client) is True
        assert "SECRET" not in seen_folders["names"]
        assert "DOC" in seen_folders["names"]


class TestShell:
    def test_executes_command_sequence(self, kernel):
        def client(ctx, bc):
            request = Briefcase()
            commands = request.folder("COMMANDS", create=True)
            commands.enqueue({"op": "put", "cabinet": "store", "folder": "X", "value": 41})
            commands.enqueue({"op": "get", "cabinet": "store", "folder": "X"})
            commands.enqueue({"op": "list", "cabinet": "store"})
            commands.enqueue({"op": "load"})
            result = yield ctx.meet("shell", request)
            return (result.value, request.folder("RESULTS").elements())

        executed, results = run_client(kernel, client)
        assert executed == 4
        assert results[0] == {"folder": "X", "value": 41}
        assert results[1]["folders"] == ["X"]
        assert results[2]["site"] == "a"

    def test_unknown_and_malformed_commands_are_reported(self, kernel):
        def client(ctx, bc):
            request = Briefcase()
            commands = request.folder("COMMANDS", create=True)
            commands.enqueue({"op": "fly"})
            commands.enqueue("not even a dict")
            result = yield ctx.meet("shell", request)
            return (result.value, request.folder("RESULTS").elements())

        executed, results = run_client(kernel, client)
        assert executed == 0
        assert all("error" in entry for entry in results)

    def test_no_commands_is_a_noop(self, kernel):
        def client(ctx, bc):
            result = yield ctx.meet("shell", Briefcase())
            return result.value

        assert run_client(kernel, client) == 0
