"""Failure-path tests for the courier agent.

The happy path is covered by the sysagents tests; these pin down what the
courier does when the request is malformed, the payload is missing, or the
destination dies while the folder is on the wire — plus the same-site fast
path that must never touch the network.
"""

from __future__ import annotations

import pytest

from repro.core import Briefcase, Kernel, KernelConfig
from repro.core.briefcase import CONTACT_FOLDER, HOST_FOLDER
from repro.core.folder import Folder
from repro.net import lan


@pytest.fixture
def kernel():
    return Kernel(lan(["a", "b", "c"], latency=0.05), transport="tcp",
                  config=KernelConfig(rng_seed=9))


def install_receiver(kernel, site="b"):
    received = []

    def receiver(ctx, bc):
        received.append(bc.get("PAYLOAD_NAME"))
        yield ctx.sleep(0)
        return "received"

    kernel.install_agent(site, "receiver", receiver)
    return received


def run_courier_request(kernel, request, site="a"):
    """Meet the courier at *site* with *request*; return the meet value."""

    def client(ctx, bc):
        result = yield ctx.meet("courier", request)
        return result.value

    agent_id = kernel.launch(site, client)
    kernel.run()
    return kernel.result_of(agent_id)


class TestMalformedRequests:
    def test_missing_host_is_refused(self, kernel):
        request = Briefcase()
        request.set(CONTACT_FOLDER, "receiver")
        request.set("PAYLOAD_NAME", "DOC")
        request.add(Folder("DOC", ["page"]))
        assert run_courier_request(kernel, request) is False
        assert kernel.stats.messages_sent == 0

    def test_missing_contact_is_refused(self, kernel):
        request = Briefcase()
        request.set(HOST_FOLDER, "b")
        request.set("PAYLOAD_NAME", "DOC")
        request.add(Folder("DOC", ["page"]))
        assert run_courier_request(kernel, request) is False
        assert kernel.stats.messages_sent == 0

    def test_missing_payload_name_is_refused(self, kernel):
        request = Briefcase()
        request.set(HOST_FOLDER, "b")
        request.set(CONTACT_FOLDER, "receiver")
        request.add(Folder("DOC", ["page"]))
        assert run_courier_request(kernel, request) is False
        assert kernel.stats.messages_sent == 0

    def test_named_payload_folder_absent_is_refused(self, kernel):
        request = Briefcase()
        request.set(HOST_FOLDER, "b")
        request.set(CONTACT_FOLDER, "receiver")
        request.set("PAYLOAD_NAME", "DOC")      # but no DOC folder aboard
        assert run_courier_request(kernel, request) is False
        assert kernel.stats.messages_sent == 0

    def test_unsupported_delivery_kind_is_refused(self, kernel):
        # Only ``batch``, the fabric's own envelope, is refused: the transmit
        # raises SyscallError in the courier, so the client's meet fails with
        # MeetError and nothing is sent.  Every other kind reaches its contact.
        from repro.core.errors import MeetError
        from repro.net.message import MessageKind
        received = install_receiver(kernel)

        def request(kind):
            request = Briefcase()
            request.set(HOST_FOLDER, "b")
            request.set(CONTACT_FOLDER, "receiver")
            request.set("PAYLOAD_NAME", "DOC")
            request.set("KIND", kind)
            request.add(Folder("DOC", ["page"]))
            return request

        def client(ctx, bc):
            try:
                yield ctx.meet("courier", request(MessageKind.BATCH))
            except MeetError as error:
                return str(error)
            return "met"

        agent_id = kernel.launch("a", client)
        kernel.run()
        assert "SyscallError" in kernel.result_of(agent_id)
        assert kernel.stats.messages_sent == 0
        for kind in ("control", "my-app-data"):
            assert run_courier_request(kernel, request(kind)) is True
        assert received == ["DOC", "DOC"]
        assert dict(kernel.stats.per_kind) == {"control": 1, "my-app-data": 1}

    def test_refusal_is_logged(self, kernel):
        request = Briefcase()
        assert run_courier_request(kernel, request) is False
        assert any("courier" in entry[3] for entry in kernel.event_log)


class TestDeliveryFailures:
    def test_destination_down_before_send_is_refused(self, kernel):
        install_receiver(kernel)
        kernel.crash_site("b")

        def client(ctx, bc):
            result = yield ctx.send_folder(Folder("DOC", ["page"]), "b", "receiver")
            return result.value

        agent_id = kernel.launch("a", client)
        kernel.run()
        # The transmit was not accepted: the courier reports failure.
        assert kernel.result_of(agent_id) is False

    def test_destination_down_mid_delivery_loses_the_folder(self, kernel):
        received = install_receiver(kernel)

        def client(ctx, bc):
            result = yield ctx.send_folder(Folder("DOC", ["page"]), "b", "receiver")
            return result.value

        agent_id = kernel.launch("a", client)
        kernel.run(until=0.02)    # folder accepted and in flight (link latency 0.05)
        dropped_before = kernel.stats.messages_dropped
        kernel.crash_site("b")
        kernel.run()
        # The courier honestly reported acceptance — in-flight loss is the
        # rear guards' problem — but the folder never executed its contact.
        assert kernel.result_of(agent_id) is True
        assert received == []
        assert kernel.stats.messages_dropped == dropped_before + 1
        assert kernel.counters()["arrivals"] == 0

    def test_delivery_to_recovered_site_works(self, kernel):
        received = install_receiver(kernel)
        kernel.crash_site("b")
        kernel.recover_site("b")

        def client(ctx, bc):
            result = yield ctx.send_folder(Folder("DOC", ["page"]), "b", "receiver")
            return result.value

        agent_id = kernel.launch("a", client)
        kernel.run()
        assert kernel.result_of(agent_id) is True
        assert received == ["DOC"]


class TestSameSiteFastPath:
    def test_same_site_delivery_meets_locally_without_network(self, kernel):
        received = install_receiver(kernel, site="a")

        def client(ctx, bc):
            result = yield ctx.send_folder(Folder("DOC", ["page"]), "a", "receiver")
            return result.value

        agent_id = kernel.launch("a", client)
        kernel.run()
        assert kernel.result_of(agent_id) is True
        assert received == ["DOC"]
        assert kernel.stats.messages_sent == 0
        assert kernel.counters()["transmits"] == 0

    def test_same_site_delivery_to_missing_contact_raises_in_courier(self, kernel):
        # No receiver installed at "a": the local meet fails and the courier
        # (which does not catch MeetError) fails, surfacing to its caller.
        def client(ctx, bc):
            from repro.core.errors import MeetError
            try:
                yield ctx.send_folder(Folder("DOC", ["page"]), "a", "receiver")
            except MeetError:
                return "courier-failed"
            return "delivered"

        agent_id = kernel.launch("a", client)
        kernel.run()
        assert kernel.result_of(agent_id) == "courier-failed"
