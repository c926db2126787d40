"""Property-based tests for the routing contract of repro.net.topology.

The oracles are written here — a Floyd–Warshall pass over the inputs the
topology was given, and an enumeration of every simple path — with no graph
library on either side.  Latencies are small multiples of 2**-10 (zero
included in the stub topologies), so float sums are exact in any order and
equal-latency alternatives are the common case, not the rare one.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import NoRouteError
from repro.net.topology import LinkSpec, Topology

MAX_SITES = 12


@st.composite
def scripts(draw):
    """(site count, initial links, mutations) — indices name sites ``s0``…

    Usually a chain through every site goes in first: on a connected graph
    most pairs have a route, so downing and reviving a site moves routes.
    """
    n = draw(st.integers(2, MAX_SITES))
    index = st.integers(0, n - 1)
    latency = st.integers(1, 6).map(lambda k: k / 1024)
    link = st.tuples(st.just("add_link"), index, index, latency)
    initial = draw(st.lists(link, max_size=2 * n))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        initial = [("add_link", a, b, draw(latency)) for a, b in zip(order, order[1:])] + initial
    mutation = st.one_of(
        link,
        st.tuples(st.just("toggle"), index),      # mark_down if up, mark_up if down
        # per site: group 0, group 1, or 2 = named in no group
        st.tuples(st.just("set_partition"), st.lists(st.integers(0, 2), min_size=n, max_size=n)),
        st.tuples(st.just("heal_partition")))
    return n, initial, draw(st.lists(mutation, max_size=8))


class Model:
    """What the test told the topology, kept as plain data for the oracle."""

    def __init__(self, names):
        self.names = names
        self.latency = {}          # frozenset({a, b}) -> latest latency
        self.down = set()
        self.group = {}            # site -> partition group id

    def apply(self, topo: Topology, op) -> None:
        kind, args = op[0], op[1:]
        if kind == "add_link":
            a, b, latency = self.names[args[0]], self.names[args[1]], args[2]
            topo.add_link(a, b, LinkSpec(latency=latency, bandwidth=1000.0 * (1 + args[0]),
                                         loss_rate=args[1] / 100))
            self.latency[frozenset((a, b))] = latency
        elif kind == "toggle":
            name = self.names[args[0]]
            if name in self.down:
                topo.mark_up(name)
            else:
                topo.mark_down(name)
            self.down ^= {name}
        elif kind == "set_partition":
            groups = [[name for name, g in zip(self.names, args[0]) if g == wanted]
                      for wanted in (0, 1)]
            topo.set_partition(groups)
            self.group = {name: g for name, g in zip(self.names, args[0]) if g != 2}
        else:
            topo.heal_partition()
            self.group = {}

    def distances(self):
        """Floyd–Warshall over up sites: ``d[a][b]``, ``inf`` if unreachable."""
        up = [name for name in self.names if name not in self.down]
        d = {a: {b: 0.0 if a == b else math.inf for b in up} for a in up}
        for pair, latency in self.latency.items():
            if len(pair) == 2 and pair <= d.keys():     # a self-link shortens nothing
                a, b = pair
                d[a][b] = d[b][a] = latency
        for k in up:
            for i in up:
                for j in up:
                    if d[i][k] + d[k][j] < d[i][j]:
                        d[i][j] = d[i][k] + d[k][j]
        return d

    def expected(self, d, a, b):
        """Oracle latency of the route a -> b, or None when there must be none."""
        if a in self.down or b in self.down:
            return None
        if a in self.group and b in self.group and self.group[a] != self.group[b]:
            return None
        return None if math.isinf(d[a][b]) else d[a][b]


def check_every_pair(topo: Topology, model: Model) -> None:
    d = model.distances()
    for a in model.names:
        for b in model.names:
            want = model.expected(d, a, b)
            if want is None:
                assert not topo.can_communicate(a, b)
                with pytest.raises(NoRouteError):
                    topo.path(a, b)
                with pytest.raises(NoRouteError):
                    topo.path_cost(a, b, 512)
                with pytest.raises(NoRouteError):      # and again, should anything have been cached
                    topo.path_cost(a, b, 512)
                continue
            assert topo.can_communicate(a, b)
            route = topo.path(a, b)
            assert route[0] == a and route[-1] == b
            assert len(set(route)) == len(route)
            assert not any(hop in model.down for hop in route)
            specs = [topo.link(u, v) for u, v in zip(route, route[1:])]   # raises if not linked
            assert sum(spec.latency for spec in specs) == want
            miss = topo.path_cost(a, b, 512)
            hit = topo.path_cost(a, b, 512)
            assert miss == hit                       # bit-for-bit, not approx
            assert miss[1] == len(specs)
            assert miss[2] == max((spec.loss_rate for spec in specs), default=0.0)
            total = 0.0
            for spec in specs:
                total += spec.latency
                total += 512 / spec.bandwidth
            assert miss[0] == total


@given(scripts())
@settings(max_examples=200)
def test_routes_match_a_floyd_warshall_oracle_through_mutations(script):
    n, initial, mutations = script
    names = [f"s{i}" for i in range(n)]
    topo, model = Topology(), Model(names)
    for name in names:
        topo.add_site(name)
    for op in initial:
        model.apply(topo, op)
    check_every_pair(topo, model)        # also fills the route cache …
    for op in mutations:
        model.apply(topo, op)            # … which every mutation must clear
        check_every_pair(topo, model)


@st.composite
def stubbed_topologies(draw):
    """A small core with one-link sites (stubs) hung off it, some down.

    Latencies are 0, 1 or 2 × 2**-10, so zero-latency links and
    equal-latency ties are common; a partition may split the sites.
    """
    n_core = draw(st.integers(1, 6))
    n_stub = draw(st.integers(0, 6))
    latency = st.integers(0, 2).map(lambda k: k / 1024)
    core = [f"c{i}" for i in range(n_core)]
    topo = Topology()
    for name in core:
        topo.add_site(name)
    if n_core > 1:
        pairs = [(a, b) for i, a in enumerate(core) for b in core[i + 1:]]
        for a, b in draw(st.lists(st.sampled_from(pairs), unique=True)):
            topo.add_link(a, b, LinkSpec(latency=draw(latency)))
    for i in range(n_stub):
        topo.add_link(f"h{i}", draw(st.sampled_from(core)), LinkSpec(latency=draw(latency)))
    names = topo.sites()
    for name in draw(st.lists(st.sampled_from(names), max_size=3, unique=True)):
        topo.mark_down(name)
    if draw(st.booleans()):
        groups = draw(st.lists(st.integers(0, 2), min_size=len(names), max_size=len(names)))
        topo.set_partition([[name for name, g in zip(names, groups) if g == wanted]
                            for wanted in (0, 1)])
    return topo


def cheapest_simple_path(topo: Topology, a: str, b: str):
    """Brute force: the least latency over every simple path of up sites, or None."""
    if topo.is_down(a) or topo.is_down(b) or topo.partitioned(a, b):
        return None
    best = math.inf

    def walk(site, cost, seen):
        nonlocal best
        if site == b:
            best = min(best, cost)
            return
        for peer in topo.neighbors(site):
            if peer not in seen and not topo.is_down(peer):
                walk(peer, cost + topo.link(site, peer).latency, seen | {peer})

    walk(a, 0.0, {a})
    return None if math.isinf(best) else best


@given(stubbed_topologies())
@settings(max_examples=200)
def test_routes_are_cheapest_skip_stubs_and_repeat(topo):
    for a in topo.sites():
        for b in topo.sites():
            want = cheapest_simple_path(topo, a, b)
            if want is None:
                with pytest.raises(NoRouteError):
                    topo.path(a, b)
                continue
            route = topo.path(a, b)
            assert route[0] == a and route[-1] == b
            assert sum(topo.link(u, v).latency for u, v in zip(route, route[1:])) == want
            assert all(len(topo.neighbors(hop)) > 1 for hop in route[1:-1])
            assert topo.path(a, b) == route
