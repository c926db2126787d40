"""Unit tests for the agent-based mail system."""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps.mail import (LETTER_AGENT_NAME, MAILBOX_AGENT_NAME, MailSystem, inbox_of,
                             install_mailboxes, make_letter)
from repro.core import AgentRecord, Briefcase, Kernel, KernelConfig
from repro.net import FailureSchedule, lan, two_clusters

pytestmark = pytest.mark.usefixtures("strategy")


@pytest.fixture
def kernel():
    return Kernel(lan(["tromso", "cornell", "ithaca"]), transport="tcp",
                  config=KernelConfig(rng_seed=14))


@pytest.fixture
def mail(kernel):
    return MailSystem(kernel)


class TestMakeLetter:
    def test_letter_ids_are_unique(self):
        first = make_letter("a", "s", "b", "t", "subject", "body")
        second = make_letter("a", "s", "b", "t", "subject", "body")
        assert first["letter_id"] != second["letter_id"]

    def test_letter_carries_addressing_fields(self):
        letter = make_letter("dag", "tromso", "fred", "cornell", "hi", "text",
                             want_receipt=True)
        assert letter["from_site"] == "tromso"
        assert letter["to_user"] == "fred"
        assert letter["want_receipt"] is True
        assert letter["sent_at"] is None


class TestMailboxAgent:
    def test_letter_folder_is_filed_per_user(self, kernel):
        install_mailboxes(kernel)

        def depositor(ctx, bc):
            delivery = Briefcase()
            delivery.folder("LETTER", create=True).push(
                make_letter("a", "x", "fred", "cornell", "s", "b"))
            result = yield ctx.meet(MAILBOX_AGENT_NAME, delivery)
            return result.value

        agent_id = kernel.launch("cornell", depositor)
        kernel.run()
        assert kernel.result_of(agent_id) == 1
        assert len(inbox_of(kernel, "cornell", "fred")) == 1

    def test_malformed_letters_are_rejected_not_filed(self, kernel):
        install_mailboxes(kernel)

        def depositor(ctx, bc):
            delivery = Briefcase()
            delivery.folder("LETTER", create=True).push({"no_recipient": True})
            result = yield ctx.meet(MAILBOX_AGENT_NAME, delivery)
            return result.value

        agent_id = kernel.launch("cornell", depositor)
        kernel.run()
        assert kernel.result_of(agent_id) == 0

    def test_list_read_delete_operations(self, kernel, mail):
        mail.send("dag", "tromso", "fred", "cornell", "one", "first body")
        mail.send("dag", "tromso", "fred", "cornell", "two", "second body")
        kernel.run()

        def reader(ctx, bc):
            listing = Briefcase()
            listing.set("OP", "list")
            listing.set("USER", "fred")
            count = (yield ctx.meet(MAILBOX_AGENT_NAME, listing)).value

            read = Briefcase()
            read.set("OP", "read")
            read.set("USER", "fred")
            yield ctx.meet(MAILBOX_AGENT_NAME, read)
            bodies = [letter["body"] for letter in read.folder("MESSAGES").elements()]

            first_id = listing.folder("LISTING").elements()[0]["letter_id"]
            delete = Briefcase()
            delete.set("OP", "delete")
            delete.set("USER", "fred")
            delete.set("LETTER_ID", first_id)
            deleted = (yield ctx.meet(MAILBOX_AGENT_NAME, delete)).value
            return (count, bodies, deleted)

        agent_id = kernel.launch("cornell", reader)
        kernel.run()
        count, bodies, deleted = kernel.result_of(agent_id)
        assert count == 2
        assert sorted(bodies) == ["first body", "second body"]
        assert deleted == 1
        assert len(mail.inbox("cornell", "fred")) == 1

    def test_request_without_op_or_letter_reports_error(self, kernel):
        install_mailboxes(kernel)

        def confused(ctx, bc):
            request = Briefcase()
            result = yield ctx.meet(MAILBOX_AGENT_NAME, request)
            return (result.value, request.get("ERROR"))

        agent_id = kernel.launch("cornell", confused)
        kernel.run()
        value, error = kernel.result_of(agent_id)
        assert value is None and error


class TestLetterDelivery:
    def test_simple_delivery(self, kernel, mail):
        mail.send("dag", "tromso", "fred", "cornell", "hello", "body text")
        kernel.run()
        inbox = mail.inbox("cornell", "fred")
        assert len(inbox) == 1
        letter = inbox[0]
        assert letter["from_user"] == "dag"
        assert letter["delivered_at"] is not None
        assert mail.delivered_count() == 1

    def test_local_delivery_needs_no_network(self, kernel, mail):
        mail.send("dag", "tromso", "olav", "tromso", "local", "no network needed")
        kernel.run()
        assert len(mail.inbox("tromso", "olav")) == 1
        assert kernel.stats.migrations == 0

    def test_receipt_is_sent_back_when_requested(self, kernel, mail):
        mail.send("dag", "tromso", "fred", "cornell", "important", "please confirm",
                  want_receipt=True)
        kernel.run()
        dag_inbox = mail.inbox("tromso", "dag")
        assert any(letter["from_user"] == "postmaster" for letter in dag_inbox)

    def test_no_receipt_by_default(self, kernel, mail):
        mail.send("dag", "tromso", "fred", "cornell", "casual", "no receipt")
        kernel.run()
        assert mail.inbox("tromso", "dag") == []

    def test_store_and_forward_retries_until_destination_recovers(self, kernel, mail):
        FailureSchedule().crash("ithaca", at=0.0).recover("ithaca", at=2.0).install(kernel)
        mail.send("dag", "tromso", "ken", "ithaca", "patience", "will arrive",
                  retry_interval=0.4, delay=0.1)
        kernel.run(until=30.0)
        assert len(mail.inbox("ithaca", "ken")) == 1
        log = mail.delivery_log("tromso")
        assert any(entry["event"] == "retry" for entry in log)

    def test_gives_up_after_max_retries(self, kernel, mail):
        kernel.crash_site("ithaca")      # never recovers
        mail.send("dag", "tromso", "ken", "ithaca", "lost", "never arrives",
                  max_retries=2, retry_interval=0.1)
        kernel.run(until=30.0)
        assert mail.inbox("ithaca", "ken") == []
        outcomes = mail.outcomes(["tromso"])
        assert any(outcome["status"] == "gave-up" for outcome in outcomes)

    def test_delivery_over_wan_cluster_topology(self):
        kernel = Kernel(two_clusters(["tromso", "narvik"], ["cornell", "ithaca"]),
                        transport="tcp", config=KernelConfig(rng_seed=3))
        mail = MailSystem(kernel)
        mail.send("dag", "narvik", "ken", "ithaca", "cross-atlantic", "hello")
        kernel.run()
        assert len(mail.inbox("ithaca", "ken")) == 1

    def test_malformed_letter_agent_briefcase_is_harmless(self, kernel):
        install_mailboxes(kernel)
        agent_id = kernel.launch("tromso", LETTER_AGENT_NAME, Briefcase())
        kernel.run()
        assert kernel.result_of(agent_id) == "malformed-letter"


class TestBroadcast:
    def test_broadcast_reaches_every_site(self, kernel, mail):
        mail.broadcast("dag", "tromso", "announcement", "to everyone")
        kernel.run()
        reached = [site for site in kernel.site_names()
                   if any(letter["subject"] == "announcement"
                          for letter in mail.inbox(site, "all"))]
        assert sorted(reached) == sorted(kernel.site_names())

    def test_broadcast_letter_records_local_site(self, kernel, mail):
        mail.broadcast("dag", "tromso", "announcement", "to everyone")
        kernel.run()
        for site in kernel.site_names():
            letters = [letter for letter in mail.inbox(site, "all")
                       if letter["subject"] == "announcement"]
            assert letters and letters[0]["to_site"] == site


class TestBuildMailKernel:
    def test_build_keeps_records_of_finished_agents(self):
        mail = MailSystem.build(["tromso", "cornell"])
        mail.send("dag", "tromso", "fred", "cornell", "hello", "body")
        mail.kernel.run(until=30.0)
        # The long-running-deployment contract: outcomes are read through
        # the mailbox cabinets, and they survive the letter agents' ends.
        assert mail.delivered_count() == 1
        assert any(letter["subject"] == "hello"
                   for letter in mail.inbox("cornell", "fred"))
        entries = mail.kernel.agents.values()
        assert any(entry.finished for entry in entries)
        assert all(type(entry) is AgentRecord for entry in entries if entry.finished)

    def test_build_accepts_topology(self):
        mail = MailSystem.build(topology=two_clusters(["a", "b"], ["c", "d"]))
        assert sorted(mail.kernel.site_names()) == ["a", "b", "c", "d"]

    def test_build_rejects_seed_alongside_explicit_config(self):
        # A seed next to a full config would be silently ignored.
        with pytest.raises(ValueError):
            MailSystem.build(["a", "b"], seed=7,
                             config=KernelConfig(flow_target_batch=16))

    def test_build_seed_reaches_the_kernel(self):
        mail = MailSystem.build(["a", "b"], seed=99)
        assert mail.kernel.config.rng_seed == 99

    def test_build_leaves_the_callers_config_as_it_was(self):
        config = KernelConfig(rng_seed=5, flow_target_batch=16)
        before = dataclasses.asdict(config)
        mail = MailSystem.build(["a", "b"], config=config)
        assert mail.kernel.config.flow_target_batch == 16
        mail.send("dag", "a", "fred", "b", "hello", "body")
        mail.kernel.run(until=30.0)
        assert mail.delivered_count() == 1
        assert dataclasses.asdict(config) == before
