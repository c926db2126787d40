"""Unit tests for the point-to-point transports (rsh, tcp, horus): the
transport contract on each, then each one's own cost model."""

from __future__ import annotations

import pytest

from contracts import BaseTestTransport, agent_message, make_transport
from repro.net.horus import HorusTransport
from repro.net.message import Message, MessageKind
from repro.net.rsh import RshTransport
from repro.net.tcp import TcpTransport


class TestRshTransport(BaseTestTransport):
    @pytest.fixture
    def transport_cls(self):
        return RshTransport


class TestTcpTransport(BaseTestTransport):
    @pytest.fixture
    def transport_cls(self):
        return TcpTransport


class TestHorusTransport(BaseTestTransport):
    @pytest.fixture
    def transport_cls(self):
        return HorusTransport


class TestRshCostModel:
    def test_agent_transfers_cost_more_than_control(self):
        transport, _, _, _ = make_transport(RshTransport)
        agent = transport.setup_delay(agent_message())
        control = transport.setup_delay(Message(source="a", destination="b",
                                                 kind=MessageKind.STATUS))
        assert agent > control

    def test_setup_never_cached(self):
        transport, _, _, _ = make_transport(RshTransport)
        first = transport.setup_delay(agent_message())
        second = transport.setup_delay(agent_message())
        # Both pay the full per-transfer start-up cost (with jitter).
        assert first >= RshTransport.AGENT_SETUP
        assert second >= RshTransport.AGENT_SETUP

    def test_a_relaunch_pays_the_agent_setup(self):
        # A rear guard's relaunch ships an agent, as a transfer does.
        transport, _, _, _ = make_transport(RshTransport)
        relaunch = transport.setup_delay(Message(source="a", destination="b",
                                                 kind=MessageKind.FT_RELAUNCH))
        assert relaunch == pytest.approx(RshTransport.AGENT_SETUP, rel=0.10)

    @pytest.mark.parametrize("kind", [MessageKind.FOLDER_DELIVERY, MessageKind.STATUS,
                                      MessageKind.FT_RELEASE, MessageKind.BATCH])
    def test_a_message_that_ships_no_agent_pays_the_message_setup(self, kind):
        transport, _, _, _ = make_transport(RshTransport)
        setup = transport.setup_delay(Message(source="a", destination="b", kind=kind))
        assert setup == pytest.approx(RshTransport.MESSAGE_SETUP, rel=0.10)

    def test_rsh_is_much_slower_than_tcp_for_repeat_traffic(self):
        rsh, _, _, _ = make_transport(RshTransport)
        tcp, _, _, _ = make_transport(TcpTransport)
        rsh_cost = sum(rsh.setup_delay(agent_message()) for _ in range(5))
        tcp_cost = sum(tcp.setup_delay(agent_message()) for _ in range(5))
        assert rsh_cost > 3 * tcp_cost


class TestTcpConnectionCache:
    def test_first_contact_pays_connect_cost(self):
        transport, _, _, _ = make_transport(TcpTransport)
        assert transport.setup_delay(agent_message()) == TcpTransport.CONNECT_SETUP

    def test_established_connection_is_cheap(self):
        transport, _, _, _ = make_transport(TcpTransport)
        transport.setup_delay(agent_message())
        assert transport.setup_delay(agent_message()) == TcpTransport.ESTABLISHED_SETUP

    def test_connection_is_bidirectional(self):
        transport, _, _, _ = make_transport(TcpTransport)
        transport.setup_delay(agent_message(source="a", destination="b"))
        reverse = transport.setup_delay(agent_message(source="b", destination="a"))
        assert reverse == TcpTransport.ESTABLISHED_SETUP

    def test_connection_count_and_connect_ledger(self):
        transport, _, _, _ = make_transport(TcpTransport)
        transport.setup_delay(agent_message(source="a", destination="b"))
        transport.setup_delay(agent_message(source="a", destination="c"))
        assert transport.connection_count() == 2
        assert transport.connects[("a", "b")] == 1

    def test_site_crash_tears_down_its_connections(self):
        transport, _, _, _ = make_transport(TcpTransport)
        transport.setup_delay(agent_message(source="a", destination="b"))
        transport.setup_delay(agent_message(source="a", destination="c"))
        transport.on_site_down("b")
        assert transport.connection_count() == 1
        # Reconnecting to the crashed-and-recovered site pays the setup again.
        assert transport.setup_delay(agent_message(source="a", destination="b")) \
            == TcpTransport.CONNECT_SETUP
        assert transport.connects[("a", "b")] == 2


class TestHorusChannelCache:
    def test_first_contact_pays_the_channel_setup(self):
        transport, _, _, _ = make_transport(HorusTransport)
        assert transport.setup_delay(agent_message()) == HorusTransport.CONNECT_SETUP

    def test_an_established_channel_pays_only_the_protocol_stack(self):
        transport, _, _, _ = make_transport(HorusTransport)
        transport.setup_delay(agent_message())
        assert transport.setup_delay(agent_message()) == HorusTransport.ESTABLISHED_SETUP

    def test_a_channel_serves_both_directions(self):
        transport, _, _, _ = make_transport(HorusTransport)
        transport.setup_delay(agent_message(source="a", destination="b"))
        reverse = transport.setup_delay(agent_message(source="b", destination="a"))
        assert reverse == HorusTransport.ESTABLISHED_SETUP

    def test_the_connect_ledger_counts_each_establishment(self):
        transport, _, _, _ = make_transport(HorusTransport)
        transport.setup_delay(agent_message(source="a", destination="b"))
        transport.setup_delay(agent_message(source="a", destination="c"))
        transport.setup_delay(agent_message(source="a", destination="b"))
        assert transport.connection_count() == 2
        transport.on_site_down("b")
        transport.setup_delay(agent_message(source="b", destination="a"))
        assert transport.connects == {("a", "b"): 2, ("a", "c"): 1}

    def test_priced_between_raw_tcp_and_rsh(self):
        # First contact is cheaper than TCP's handshake; every later message
        # pays a protocol stack dearer than TCP's; rsh pays more than either.
        horus, _, _, _ = make_transport(HorusTransport)
        tcp, _, _, _ = make_transport(TcpTransport)
        rsh, _, _, _ = make_transport(RshTransport)
        first = [t.setup_delay(agent_message()) for t in (horus, tcp, rsh)]
        later = [t.setup_delay(agent_message()) for t in (horus, tcp, rsh)]
        assert first[0] < first[1] < first[2]
        assert later[1] < later[0] < later[2]

    def test_crash_drops_point_to_point_channels(self):
        transport, _, _, _ = make_transport(HorusTransport)
        message = agent_message()
        assert transport.setup_delay(message) == HorusTransport.CONNECT_SETUP
        assert transport.setup_delay(message) == HorusTransport.ESTABLISHED_SETUP
        transport.on_site_down("b")
        assert transport.setup_delay(message) == HorusTransport.CONNECT_SETUP
