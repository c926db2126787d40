"""Unit tests for the transport (rsh, tcp, horus): the transport contract on
each price row, then each row's own prices."""

from __future__ import annotations

import pytest

from contracts import BaseTestTransport, agent_message, make_transport
from repro.net.message import Message, MessageKind


class TestTransport(BaseTestTransport):
    @pytest.fixture(params=["rsh", "tcp", "horus"])
    def transport_name(self, request):
        return request.param


class TestRshCostModel:
    def test_agent_transfers_cost_more_than_control(self):
        transport, _, _, _ = make_transport("rsh")
        agent = transport.setup_delay(agent_message())
        control = transport.setup_delay(Message(source="a", destination="b",
                                                 kind=MessageKind.STATUS))
        assert agent > control

    def test_setup_never_cached(self):
        transport, _, _, _ = make_transport("rsh")
        first = transport.setup_delay(agent_message())
        second = transport.setup_delay(agent_message())
        # Both pay the full per-transfer start-up cost (with jitter).
        assert first >= 0.25
        assert second >= 0.25

    def test_rsh_opens_no_channel(self):
        transport, _, _, _ = make_transport("rsh")
        for source, destination in (("a", "b"), ("a", "b"), ("b", "a"), ("a", "c")):
            transport.setup_delay(agent_message(source=source, destination=destination))
        transport.on_site_down("b")
        assert transport.connects == {}

    def test_a_relaunch_pays_the_agent_setup(self):
        # A rear guard's relaunch ships an agent, as a transfer does.
        transport, _, _, _ = make_transport("rsh")
        relaunch = transport.setup_delay(Message(source="a", destination="b",
                                                 kind=MessageKind.FT_RELAUNCH))
        assert relaunch == pytest.approx(0.25, rel=0.10)

    @pytest.mark.parametrize("kind", [MessageKind.FOLDER_DELIVERY, MessageKind.STATUS,
                                      MessageKind.FT_RELEASE, MessageKind.BATCH])
    def test_a_message_that_ships_no_agent_pays_the_message_setup(self, kind):
        transport, _, _, _ = make_transport("rsh")
        setup = transport.setup_delay(Message(source="a", destination="b", kind=kind))
        assert setup == pytest.approx(0.12, rel=0.10)

    def test_rsh_is_much_slower_than_tcp_for_repeat_traffic(self):
        rsh, _, _, _ = make_transport("rsh")
        tcp, _, _, _ = make_transport("tcp")
        rsh_cost = sum(rsh.setup_delay(agent_message()) for _ in range(5))
        tcp_cost = sum(tcp.setup_delay(agent_message()) for _ in range(5))
        assert rsh_cost > 3 * tcp_cost


class TestTcpConnectionCache:
    def test_first_contact_pays_connect_cost(self):
        transport, _, _, _ = make_transport("tcp")
        assert transport.setup_delay(agent_message()) == 0.040

    def test_established_connection_is_cheap(self):
        transport, _, _, _ = make_transport("tcp")
        transport.setup_delay(agent_message())
        assert transport.setup_delay(agent_message()) == 0.002

    def test_connection_is_bidirectional(self):
        transport, _, _, _ = make_transport("tcp")
        transport.setup_delay(agent_message(source="a", destination="b"))
        reverse = transport.setup_delay(agent_message(source="b", destination="a"))
        assert reverse == 0.002

    def test_connect_ledger_counts_each_pair(self):
        transport, _, _, _ = make_transport("tcp")
        transport.setup_delay(agent_message(source="a", destination="b"))
        transport.setup_delay(agent_message(source="a", destination="c"))
        transport.setup_delay(agent_message(source="b", destination="a"))
        assert transport.connects == {("a", "b"): 1, ("a", "c"): 1}

    def test_site_crash_tears_down_its_connections(self):
        transport, _, _, _ = make_transport("tcp")
        transport.setup_delay(agent_message(source="a", destination="b"))
        transport.setup_delay(agent_message(source="a", destination="c"))
        transport.on_site_down("b")
        # The pair that did not touch b keeps its connection.
        assert transport.setup_delay(agent_message(source="a", destination="c")) == 0.002
        # Reconnecting to the crashed-and-recovered site pays the setup again.
        assert transport.setup_delay(agent_message(source="a", destination="b")) == 0.040
        assert transport.connects[("a", "b")] == 2


class TestHorusChannelCache:
    def test_first_contact_pays_the_channel_setup(self):
        transport, _, _, _ = make_transport("horus")
        assert transport.setup_delay(agent_message()) == 0.030

    def test_an_established_channel_pays_only_the_protocol_stack(self):
        transport, _, _, _ = make_transport("horus")
        transport.setup_delay(agent_message())
        assert transport.setup_delay(agent_message()) == 0.004

    def test_a_channel_serves_both_directions(self):
        transport, _, _, _ = make_transport("horus")
        transport.setup_delay(agent_message(source="a", destination="b"))
        reverse = transport.setup_delay(agent_message(source="b", destination="a"))
        assert reverse == 0.004

    def test_the_connect_ledger_counts_each_establishment(self):
        transport, _, _, _ = make_transport("horus")
        transport.setup_delay(agent_message(source="a", destination="b"))
        transport.setup_delay(agent_message(source="a", destination="c"))
        transport.setup_delay(agent_message(source="a", destination="b"))
        assert transport.connects == {("a", "b"): 1, ("a", "c"): 1}
        transport.on_site_down("b")
        transport.setup_delay(agent_message(source="b", destination="a"))
        assert transport.connects == {("a", "b"): 2, ("a", "c"): 1}

    def test_priced_between_raw_tcp_and_rsh(self):
        # First contact is cheaper than TCP's handshake; every later message
        # pays a protocol stack dearer than TCP's; rsh pays more than either.
        horus, _, _, _ = make_transport("horus")
        tcp, _, _, _ = make_transport("tcp")
        rsh, _, _, _ = make_transport("rsh")
        first = [t.setup_delay(agent_message()) for t in (horus, tcp, rsh)]
        later = [t.setup_delay(agent_message()) for t in (horus, tcp, rsh)]
        assert first[0] < first[1] < first[2]
        assert later[1] < later[0] < later[2]

    def test_crash_drops_point_to_point_channels(self):
        transport, _, _, _ = make_transport("horus")
        message = agent_message()
        assert transport.setup_delay(message) == 0.030
        assert transport.setup_delay(message) == 0.004
        transport.on_site_down("b")
        assert transport.setup_delay(message) == 0.030
