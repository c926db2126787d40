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
