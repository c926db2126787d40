"""Unit tests for broker-mediated access to protected agents (paper section 4).

The guardian is the only way to meet the protected agent, whose name it
keeps secret; each request is queued, with its briefcase, in a folder of the
guardian's cabinet, and the protected agent's policy (a plain function of
the request record, written inline here) decides which are forwarded.
"""

from __future__ import annotations

import pytest

from repro.core import Briefcase, Kernel, KernelConfig
from repro.net import lan
from repro.scheduling.protected import GUARDIAN_CABINET, admit_all, make_guardian_behaviour


def alice_only(ctx, request):
    """An inline admission policy: forward alice's requests only."""
    return request["requester"] == "alice"


def protected_service(ctx, bc):
    """The agent whose name is kept secret: doubles a number."""
    bc.set("DOUBLED", bc.get("N", 0) * 2)
    ctx.cabinet("protected").put("met_by", bc.get("CALLER", "unknown"))
    yield ctx.end_meet("served")


@pytest.fixture
def kernel():
    kernel = Kernel(lan(["fort"]), transport="tcp", config=KernelConfig(rng_seed=4))
    kernel.install_agent("fort", "secret_service_xyzzy", protected_service, replace=True)
    return kernel


def request_via_guardian(kernel, requester="alice", n=21, op="request"):
    """Meet the guardian and return (granted, response briefcase)."""
    inner = Briefcase()
    inner.set("N", n)
    inner.set("CALLER", requester)
    outer = Briefcase()
    outer.set("OP", op)
    outer.set("REQUESTER", requester)
    outer.set("REQUEST", inner.to_wire())
    box = {}

    def client(ctx, bc):
        result = yield ctx.meet("guardian", outer)
        box["value"] = result.value
        return result.value

    kernel.launch("fort", client)
    kernel.run()
    return box["value"], outer


class TestAdmissionPolicies:
    def test_admit_all(self, kernel):
        kernel.install_agent("fort", "guardian",
                             make_guardian_behaviour("secret_service_xyzzy", admit_all),
                             replace=True)
        granted, outer = request_via_guardian(kernel)
        assert granted is True
        response = Briefcase.from_wire(outer.get("RESPONSE"))
        assert response.get("DOUBLED") == 42
        assert kernel.site("fort").cabinet("protected").get("met_by") == "alice"

    def test_a_refused_request_waits_in_the_pending_folder(self, kernel):
        kernel.install_agent("fort", "guardian",
                             make_guardian_behaviour("secret_service_xyzzy", alice_only),
                             replace=True)
        assert request_via_guardian(kernel, requester="alice")[0] is True
        granted, outer = request_via_guardian(kernel, requester="mallory")
        assert granted is False
        assert outer.get("QUEUED_POSITION") == 1
        pending = kernel.site("fort").cabinet(GUARDIAN_CABINET).elements("pending")
        assert len(pending) == 1
        assert pending[0]["requester"] == "mallory"
        # The queued request holds mallory's whole briefcase, unopened.
        assert Briefcase.from_wire(pending[0]["briefcase"]).get("CALLER") == "mallory"
        assert kernel.site("fort").cabinet("protected").get("met_by") == "alice"

    def test_a_policy_may_keep_state_across_requests(self, kernel):
        # The policy is asked once per request, in arrival order, with the
        # record the guardian filed: here, one meeting per requester.
        met = set()

        def once_each(ctx, request):
            first = request["requester"] not in met
            met.add(request["requester"])
            return first

        kernel.install_agent("fort", "guardian",
                             make_guardian_behaviour("secret_service_xyzzy", once_each),
                             replace=True)
        outcomes = [request_via_guardian(kernel, requester=name)[0]
                    for name in ("alice", "bob", "alice")]
        assert outcomes == [True, True, False]
        pending = kernel.site("fort").cabinet(GUARDIAN_CABINET).elements("pending")
        assert [entry["requester"] for entry in pending] == ["alice"]

    def test_request_records_are_always_kept(self, kernel):
        kernel.install_agent("fort", "guardian",
                             make_guardian_behaviour("secret_service_xyzzy"), replace=True)
        request_via_guardian(kernel, requester="alice")
        request_via_guardian(kernel, requester="bob")
        requests = kernel.site("fort").cabinet(GUARDIAN_CABINET).elements("requests")
        assert {entry["requester"] for entry in requests} == {"alice", "bob"}


class TestQueueAndDrain:
    def test_queue_by_default_then_drain(self, kernel):
        kernel.install_agent(
            "fort", "guardian",
            make_guardian_behaviour("secret_service_xyzzy", admit_all,
                                    queue_by_default=True),
            replace=True)
        granted, _ = request_via_guardian(kernel, requester="alice")
        assert granted is False

        forwarded, _ = request_via_guardian(kernel, op="drain")
        assert forwarded == 1
        # Draining met the protected agent with the queued briefcase.
        assert kernel.site("fort").cabinet("protected").get("met_by") == "alice"
        assert kernel.site("fort").cabinet(GUARDIAN_CABINET).elements("pending") == []

    def test_drain_keeps_requests_the_policy_still_refuses(self, kernel):
        kernel.install_agent(
            "fort", "guardian",
            make_guardian_behaviour("secret_service_xyzzy", alice_only,
                                    queue_by_default=True),
            replace=True)
        request_via_guardian(kernel, requester="mallory")
        forwarded, _ = request_via_guardian(kernel, op="drain")
        assert forwarded == 0
        assert len(kernel.site("fort").cabinet(GUARDIAN_CABINET).elements("pending")) == 1

    def test_drain_forwards_what_a_changed_policy_now_admits(self, kernel):
        gate = {"open": False}
        kernel.install_agent(
            "fort", "guardian",
            make_guardian_behaviour("secret_service_xyzzy", lambda ctx, request: gate["open"]),
            replace=True)
        granted, _ = request_via_guardian(kernel, requester="mallory")
        assert granted is False
        assert kernel.site("fort").cabinet("protected").get("met_by") is None

        gate["open"] = True
        forwarded, _ = request_via_guardian(kernel, op="drain")
        assert forwarded == 1
        # The protected agent met the briefcase mallory queued, not the drainer's.
        assert kernel.site("fort").cabinet("protected").get("met_by") == "mallory"
        cabinet = kernel.site("fort").cabinet(GUARDIAN_CABINET)
        assert cabinet.elements("pending") == []
        assert [entry["requester"] for entry in cabinet.elements("forwarded")] == ["mallory"]

    def test_protected_name_never_appears_in_responses(self, kernel):
        """The whole point: the requester never learns the protected agent's name."""
        kernel.install_agent("fort", "guardian",
                             make_guardian_behaviour("secret_service_xyzzy"), replace=True)
        granted, outer = request_via_guardian(kernel)
        assert granted is True
        import pickle
        blob = repr(outer.to_wire()) + repr(pickle.dumps(outer.to_wire()))
        assert "secret_service_xyzzy" not in blob
