"""Property-based tests for Horus group membership invariants."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import NotMemberError
from repro.net.horus import HorusTransport
from repro.net.simclock import EventLoop
from repro.net.stats import NetworkStats
from repro.net.topology import lan

SITES = [f"s{i}" for i in range(6)]

# An operation is (op, site): join / leave / crash.
operations = st.lists(
    st.tuples(st.sampled_from(["join", "leave", "crash"]), st.sampled_from(SITES)),
    max_size=25)


def build_transport():
    loop = EventLoop()
    topology = lan(SITES)
    transport = HorusTransport(loop, topology, NetworkStats(), rng=random.Random(0))
    for name in SITES:
        transport.register_endpoint(name, lambda message: None)
    return transport, loop, topology


@given(operations)
@settings(max_examples=60, deadline=None)
def test_view_ids_strictly_increase_and_members_stay_consistent(ops):
    transport, loop, topology = build_transport()
    history = [transport.create_group("g", [SITES[0]])]
    transport.subscribe_views("g", history.append)
    loop.run()
    alive = set(SITES)

    for op, site in ops:
        current = set(transport.group_view("g").members)
        if op == "join" and site in alive and site not in current:
            transport.join("g", site)
        elif op == "leave" and site in current:
            try:
                transport.leave("g", site)
            except NotMemberError:   # pragma: no cover - guarded by the check above
                pass
        elif op == "crash" and site in alive:
            topology.mark_down(site)
            transport.on_site_down(site)
            alive.discard(site)
        loop.run()

    view_ids = [view.view_id for view in history]
    # Invariant 1: view identifiers are strictly increasing.
    assert view_ids == sorted(view_ids)
    assert len(set(view_ids)) == len(view_ids)
    # Invariant 2: membership never contains duplicates.
    for view in history:
        assert len(set(view.members)) == len(view.members)
    # Invariant 3: once the dust settles, no crashed site is still a member.
    final_members = set(transport.group_view("g").members)
    assert final_members.isdisjoint(set(SITES) - alive)

