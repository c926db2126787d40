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
from repro.net.topology import lan

SITES = ["a", "b", "c", "d"]

# An operation is ("send", source, destination) or ("crash", site, site).
operations = st.lists(
    st.tuples(st.sampled_from(["send", "send", "crash"]),
              st.sampled_from(SITES), st.sampled_from(SITES)),
    max_size=40)


#: name -> (connect setup, setup on an open channel), in seconds
SETUPS = {"tcp": (0.040, 0.002), "horus": (0.030, 0.004)}


@pytest.mark.parametrize("transport_name", ["tcp", "horus"])
@given(ops=operations)
@settings(max_examples=60, deadline=None)
def test_connect_setup_is_paid_once_per_channel_lifetime(transport_name, ops):
    transport, _, _, _ = make_transport(transport_name, topology=lan(SITES))
    connect, established_setup = SETUPS[transport_name]
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
            assert setup == established_setup
        else:
            assert setup == connect
            established.add(pair)
            charged[pair] += 1
        assert transport.connects == dict(charged)
    # Every channel the model holds open is open: its next message pays
    # only the per-message overhead.
    for source, destination in sorted(established):
        assert transport.setup_delay(
            agent_message(source=source, destination=destination)) == established_setup
    assert transport.connects == dict(charged)
