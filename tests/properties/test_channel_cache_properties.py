"""Property-based tests for the cached-channel transports (tcp, horus).

Against a model of the established pairs: a message pays the connect setup
exactly when its unordered pair has no channel since either end last
crashed, and the ``connects`` ledger counts those charges.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contracts import agent_message, make_transport
from repro.net.horus import HorusTransport
from repro.net.tcp import TcpTransport
from repro.net.topology import lan

SITES = ["a", "b", "c", "d"]

# An operation is ("send", source, destination) or ("crash", site, site).
operations = st.lists(
    st.tuples(st.sampled_from(["send", "send", "crash"]),
              st.sampled_from(SITES), st.sampled_from(SITES)),
    max_size=40)


@pytest.mark.parametrize("transport_cls", [TcpTransport, HorusTransport],
                         ids=["tcp", "horus"])
@given(ops=operations)
@settings(max_examples=60, deadline=None)
def test_connect_setup_is_paid_once_per_channel_lifetime(transport_cls, ops):
    transport, _, _, _ = make_transport(transport_cls, topology=lan(SITES))
    established, charged = set(), Counter()
    for op, first, second in ops:
        if op == "crash":
            transport.on_site_down(first)
            established = {pair for pair in established if first not in pair}
            continue
        if first == second:
            continue
        pair = tuple(sorted((first, second)))
        setup = transport.setup_delay(agent_message(source=first, destination=second))
        if pair in established:
            assert setup == transport_cls.ESTABLISHED_SETUP
        else:
            assert setup == transport_cls.CONNECT_SETUP
            established.add(pair)
            charged[pair] += 1
        assert transport.connection_count() == len(established)
    assert transport.connects == dict(charged)
