"""Unit tests for the Horus-style group communication transport."""

from __future__ import annotations

import random

import pytest

from repro.core.errors import GroupError, NotMemberError
from repro.net.horus import GroupView, HorusTransport
from repro.net.message import MessageKind
from repro.net.simclock import EventLoop
from repro.net.stats import NetworkStats
from repro.net.topology import lan


@pytest.fixture
def horus():
    loop = EventLoop()
    topology = lan(["a", "b", "c", "d"])
    transport = HorusTransport(loop, topology, NetworkStats(), rng=random.Random(0))
    return transport, loop, topology


class TestGroupManagement:
    def test_create_group_installs_first_view(self, horus):
        transport, loop, _ = horus
        view = transport.create_group("g", ["a", "b"])
        assert isinstance(view, GroupView)
        assert view.view_id == 1
        assert view.members == ("a", "b")
        assert transport.has_group("g")

    def test_create_duplicate_group_raises(self, horus):
        transport, _, _ = horus
        transport.create_group("g")
        with pytest.raises(GroupError):
            transport.create_group("g")

    def test_unknown_group_raises(self, horus):
        transport, _, _ = horus
        with pytest.raises(GroupError):
            transport.group_view("ghost")

    def test_join_installs_new_view(self, horus):
        transport, _, _ = horus
        transport.create_group("g", ["a"])
        view = transport.join("g", "b")
        assert view.view_id == 2
        assert "b" in view

    def test_join_is_idempotent(self, horus):
        transport, _, _ = horus
        transport.create_group("g", ["a"])
        transport.join("g", "b")
        view = transport.join("g", "b")
        assert view.view_id == 2
        assert list(view.members).count("b") == 1

    def test_join_unknown_site_raises(self, horus):
        transport, _, _ = horus
        transport.create_group("g", ["a"])
        with pytest.raises(GroupError):
            transport.join("g", "ghost")

    def test_leave_installs_new_view(self, horus):
        transport, _, _ = horus
        transport.create_group("g", ["a", "b"])
        view = transport.leave("g", "b")
        assert "b" not in view
        assert view.view_id == 2

    def test_leave_non_member_raises(self, horus):
        transport, _, _ = horus
        transport.create_group("g", ["a"])
        with pytest.raises(NotMemberError):
            transport.leave("g", "b")

    def test_subscribers_see_every_later_view_in_order(self, horus):
        transport, loop, _ = horus
        transport.create_group("g", ["a"])
        seen = []
        transport.subscribe_views("g", seen.append)
        transport.join("g", "b")
        transport.join("g", "c")
        loop.run()
        assert [(view.view_id, view.members) for view in seen] == [
            (2, ("a", "b")), (3, ("a", "b", "c"))]


class TestFailureHandling:
    def test_crash_removes_member_after_detection_delay(self, horus):
        transport, loop, topology = horus
        transport.create_group("g", ["a", "b", "c"])
        loop.run()
        topology.mark_down("b")
        transport.on_site_down("b")
        loop.run()
        view = transport.group_view("g")
        assert "b" not in view
        assert view.view_id == 2

    def test_recovery_before_detection_keeps_member(self, horus):
        transport, loop, topology = horus
        transport.create_group("g", ["a", "b"])
        loop.run()
        topology.mark_down("b")
        transport.on_site_down("b")
        # The site recovers before the detection delay elapses.
        topology.mark_up("b")
        loop.run()
        assert "b" in transport.group_view("g")

    def test_recovered_site_does_not_rejoin_automatically(self, horus):
        transport, loop, topology = horus
        transport.create_group("g", ["a", "b"])
        loop.run()
        topology.mark_down("b")
        transport.on_site_down("b")
        loop.run()
        topology.mark_up("b")
        transport.on_site_up("b")
        loop.run()
        assert "b" not in transport.group_view("g")
        transport.join("g", "b")
        assert "b" in transport.group_view("g")

    def test_view_change_notifies_observers(self, horus):
        transport, loop, topology = horus
        transport.create_group("g", ["a", "b", "c"])
        observed = []
        transport.subscribe_views("g", observed.append)
        topology.mark_down("c")
        transport.on_site_down("c")
        loop.run()
        assert observed
        assert "c" not in observed[-1].members

    def test_views_reach_subscribers_not_site_handlers(self, horus):
        transport, loop, _ = horus
        received, observed = [], []
        transport.register_endpoint("a", received.append)
        transport.create_group("g", ["a"])
        transport.subscribe_views("g", observed.append)
        transport.join("g", "b")
        loop.run()
        assert [view.members for view in observed] == [("a", "b")]
        assert received == []

    def test_crash_drops_point_to_point_channels(self, horus):
        transport, _, _ = horus
        from repro.net.message import Message
        message = Message(source="a", destination="b", kind=MessageKind.AGENT_TRANSFER)
        assert transport.setup_delay(message) == HorusTransport.CONNECT_SETUP
        assert transport.setup_delay(message) == HorusTransport.ESTABLISHED_SETUP
        transport.on_site_down("b")
        assert transport.setup_delay(message) == HorusTransport.CONNECT_SETUP
