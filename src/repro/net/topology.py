"""Network topology: sites, links, latency/bandwidth, partitions and routing.

The paper's prototype ran on a handful of workstations at Cornell and
Tromsø connected by a LAN and a transatlantic link.  The reproduction
models the network as an undirected graph — a plain adjacency mapping
``{site: {peer: LinkSpec}}`` — whose edges carry a latency (seconds) and a
bandwidth (bytes/second).  Partitions are expressed by temporarily removing
reachability between site groups.

Routing
-------
``path(a, b)`` is the route of lowest total latency from *a* to *b* over
sites that are up; ``path_cost`` prices a message along it.  Unknown names
raise :class:`UnknownSiteError`; a down endpoint, endpoints in different
partition groups, or no chain of up sites raise :class:`NoRouteError` — the
endpoint and partition checks run on every call, cached route or not.  The
search is a bidirectional Dijkstra owned by this module (no graph library):
it settles two half-radius balls instead of one full one, and it never
pushes a stub (a site with one link) that is not an endpoint, since no
simple route passes through one — so a host-to-host miss on a 2,000-host
switched fabric settles its two ends and a few switches.  Routes are
memoised per ``(source, destination)`` in ``_route_cache``; ``add_site``,
``add_link``, ``mark_down``, ``mark_up``, ``set_partition`` and
``heal_partition`` clear it, nothing else does.  Equal-latency alternatives
are resolved by construction order alone — heap ties fall to an insertion
counter and neighbours are scanned in the order their links were added — so
a route never depends on string hashing or on any library's convention.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.errors import NoRouteError, UnknownSiteError
from repro.core.record import Record

__all__ = ["LinkSpec", "Topology", "lan", "two_clusters", "random_topology", "ring",
           "star", "switched_fabric"]


class LinkSpec(Record):
    """Latency/bandwidth parameters of one link (no ``__slots__``: ``vars()`` reads them)."""

    _fields = ("latency", "bandwidth", "loss_rate")

    def __init__(self, latency: float = 0.002, bandwidth: float = 1_250_000.0,
                 loss_rate: float = 0.0):
        self.latency = latency           # 2 ms default LAN latency
        self.bandwidth = bandwidth       # 10 Mbit/s in bytes per second
        self.loss_rate = loss_rate       # probability a message on this link is lost


class Topology:
    """The site graph plus partition state.

    All methods that take site names raise :class:`UnknownSiteError` for
    unknown names so callers fail loudly rather than silently routing to a
    typo.
    """

    #: route-cost cache bound: when a workload routes between more unique
    #: pairs than this, the cache is simply cleared and rebuilt on demand
    _ROUTE_CACHE_MAX = 65_536

    def __init__(self) -> None:
        #: adjacency ``{site: {peer: LinkSpec}}``; both directions of a link
        #: hold the same spec.  Dict insertion order is the construction
        #: order that ``sites()``, ``links()`` and routing ties follow.
        self._links: Dict[str, Dict[str, LinkSpec]] = {}
        #: sites currently considered crashed (no traffic in or out)
        self._down: Set[str] = set()
        #: active partition: mapping site -> partition group id
        self._partition: Dict[str, int] = {}
        #: memoised per-(source, destination) routes — ``path_cost`` is
        #: called once per message, and at thousands of sites the per-call
        #: Dijkstra dominates the whole simulation.  Any mutation that can
        #: change routing (new sites/links, crashes, recoveries, partitions)
        #: clears it.  Values are the route's link specs in path order.
        self._route_cache: Dict[Tuple[str, str], Tuple[LinkSpec, ...]] = {}

    # -- construction -----------------------------------------------------------

    def add_site(self, name: str) -> None:
        """Add a site with no links."""
        self._links.setdefault(name, {})
        self._route_cache.clear()

    def add_link(self, a: str, b: str, spec: Optional[LinkSpec] = None) -> None:
        """Add (or replace) an undirected link between *a* and *b*.

        A site not added yet is created.
        """
        spec = spec or LinkSpec()
        self._links.setdefault(a, {})[b] = spec
        self._links.setdefault(b, {})[a] = spec
        self._route_cache.clear()

    def sites(self) -> List[str]:
        """All site names, in the order they were added."""
        return list(self._links)

    def neighbors(self, name: str) -> List[str]:
        """Sites directly linked to *name*."""
        self._check(name)
        return list(self._links[name])

    def link(self, a: str, b: str) -> LinkSpec:
        """The :class:`LinkSpec` of the direct link a—b."""
        self._check(a)
        self._check(b)
        spec = self._links[a].get(b)
        if spec is None:
            raise NoRouteError(f"no direct link between {a!r} and {b!r}")
        return spec

    def links(self) -> Iterator[Tuple[str, str, LinkSpec]]:
        """Every direct link as ``(a, b, spec)`` (each undirected link once).

        The shard clock sync seeds its lookahead matrix from this — an O(E)
        scan instead of an all-pairs shortest-path pass.
        """
        listed: Set[str] = set()
        for a, peers in self._links.items():
            for b, spec in peers.items():
                if b not in listed:
                    yield a, b, spec
            listed.add(a)

    # -- failure / partition state ------------------------------------------------

    def mark_down(self, name: str) -> None:
        """Mark a site as crashed (kernel calls this; traffic is refused)."""
        self._check(name)
        self._down.add(name)
        self._route_cache.clear()

    def mark_up(self, name: str) -> None:
        """Mark a site as recovered."""
        self._check(name)
        self._down.discard(name)
        self._route_cache.clear()

    def is_down(self, name: str) -> bool:
        """True if the site is currently crashed."""
        return name in self._down

    def set_partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Partition the network into the given groups of sites.

        Sites in different groups cannot exchange messages until
        :meth:`heal_partition` is called.  Sites not mentioned keep full
        connectivity with every group (useful for partial partitions).
        """
        self._partition = {}
        for group_id, group in enumerate(groups):
            for name in group:
                self._check(name)
                self._partition[name] = group_id
        self._route_cache.clear()

    def heal_partition(self) -> None:
        """Remove any active partition."""
        self._partition = {}
        self._route_cache.clear()

    def partitioned(self, a: str, b: str) -> bool:
        """True if an active partition separates *a* and *b*."""
        if not self._partition:
            return False
        group_a = self._partition.get(a)
        group_b = self._partition.get(b)
        if group_a is None or group_b is None:
            return False
        return group_a != group_b

    # -- reachability and path cost ----------------------------------------------

    def can_communicate(self, a: str, b: str) -> bool:
        """True if a message from *a* can currently reach *b*."""
        try:
            self.path(a, b)
        except NoRouteError:
            return False
        return True

    def path(self, a: str, b: str) -> List[str]:
        """Lowest-latency path from *a* to *b* given current failures/partitions."""
        self._check(a)
        self._check(b)
        if self.is_down(a) or self.is_down(b):
            raise NoRouteError(f"site down on path {a!r} -> {b!r}")
        if self.partitioned(a, b):
            raise NoRouteError(f"{a!r} and {b!r} are in different partitions")
        if a == b:
            return [a]
        return self._search(a, b)

    def _search(self, a: str, b: str) -> List[str]:
        """Bidirectional Dijkstra by latency from *a* to *b* over up sites.

        Two searches alternate, one from each end, each settling its closest
        unsettled site; ``best``/``meet`` track the shortest join seen so far
        and the first site settled from both ends ends the search.  Heap
        entries are ``(distance, counter, site)``: equal distances pop in
        push order, and neighbours are pushed in link-insertion order, so
        which of several equal-latency routes wins is fixed by how the
        topology was built.  A stub — a peer whose one link leads back to
        the site being expanded — is never pushed unless it is *a* or *b*:
        it cannot be an interior site of a simple route, so skipping it
        keeps every route and saves settling, say, a switch's other hosts.
        Callers have checked that both ends are up.
        """
        links, down = self._links, self._down
        # Each is a (from a, from b) pair, indexed by the side being expanded.
        settled: Tuple[Dict[str, float], ...] = ({}, {})
        reached: Tuple[Dict[str, float], ...] = ({a: 0.0}, {b: 0.0})
        previous: Tuple[Dict[str, Optional[str]], ...] = ({a: None}, {b: None})
        fringe: Tuple[list, ...] = ([(0.0, 0, a)], [(0.0, 1, b)])
        counter = 2
        best, meet = float("inf"), None
        side = 1
        while fringe[0] and fringe[1]:
            side = 1 - side
            distance, _, site = heappop(fringe[side])
            done = settled[side]
            if site in done:
                continue
            done[site] = distance
            if site in settled[1 - side]:
                route, hop = [], meet
                while hop is not None:
                    route.append(hop)
                    hop = previous[0][hop]
                route.reverse()
                hop = previous[1][meet]
                while hop is not None:
                    route.append(hop)
                    hop = previous[1][hop]
                return route
            near, far, back, heap = reached[side], reached[1 - side], previous[side], fringe[side]
            for peer, spec in links[site].items():
                if peer in down or peer in done:
                    continue
                if len(links[peer]) == 1 and peer != a and peer != b:
                    continue  # a stub: its one link leads back here
                length = distance + spec.latency
                if peer not in near or length < near[peer]:
                    near[peer] = length
                    heappush(heap, (length, counter, peer))
                    counter += 1
                    back[peer] = site
                    if peer in far:
                        joined = length + far[peer]
                        if joined < best:
                            best, meet = joined, peer
        raise NoRouteError(f"no path from {a!r} to {b!r}")

    def path_cost(self, a: str, b: str, size_bytes: int) -> Tuple[float, int, float]:
        """(transfer seconds, hop count, worst loss rate) for a message of *size_bytes*.

        The route itself is memoised per (source, destination): transports
        call this once per message, and a miss costs a search (on a
        switched fabric, one that settles a few switches).
        Only the route (its link specs) is cached; the per-link cost sum is
        re-evaluated per call in exactly the pre-cache order, so cached and
        uncached calls produce bit-identical transfer times.
        """
        cached = self._route_cache.get((a, b))
        if cached is None:
            # Fast-path guards still apply on a cache miss: path() performs
            # the down/partition checks and raises before anything is cached.
            route = self.path(a, b)
            specs = tuple(self._links[u][v] for u, v in zip(route, route[1:]))
            if len(self._route_cache) >= self._ROUTE_CACHE_MAX:
                self._route_cache.clear()
            self._route_cache[(a, b)] = specs
        else:
            # Cached routes are only valid while routing state is unchanged
            # (mutations clear the cache); the per-pair checks stay per-call.
            if self.is_down(a) or self.is_down(b):
                raise NoRouteError(f"site down on path {a!r} -> {b!r}")
            if self.partitioned(a, b):
                raise NoRouteError(f"{a!r} and {b!r} are in different partitions")
            specs = cached
        total = 0.0
        loss = 0.0
        for spec in specs:
            total += spec.latency
            if spec.bandwidth > 0:
                total += size_bytes / spec.bandwidth
            loss = max(loss, spec.loss_rate)
        return total, len(specs), loss

    # -- internals -----------------------------------------------------------------

    def _check(self, name: str) -> None:
        if name not in self._links:
            raise UnknownSiteError(f"unknown site {name!r}")

    def __contains__(self, name: str) -> bool:
        return name in self._links

    def __len__(self) -> int:
        return len(self._links)

    def __repr__(self) -> str:
        return (f"Topology({len(self._links)} sites, "
                f"{sum(1 for _ in self.links())} links, down={sorted(self._down)})")


# ---------------------------------------------------------------------------
# Canned topologies used throughout tests, examples and benchmarks
# ---------------------------------------------------------------------------

def lan(site_names: Sequence[str], latency: float = 0.002,
        bandwidth: float = 1_250_000.0, loss_rate: float = 0.0) -> Topology:
    """A fully connected LAN of the given sites (the paper's basic setting)."""
    topo = Topology()
    for name in site_names:
        topo.add_site(name)
    spec = LinkSpec(latency=latency, bandwidth=bandwidth, loss_rate=loss_rate)
    names = list(site_names)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            topo.add_link(a, b, spec)
    return topo


def two_clusters(cluster_a: Sequence[str], cluster_b: Sequence[str],
                 wan_latency: float = 0.090, wan_bandwidth: float = 250_000.0,
                 lan_latency: float = 0.002) -> Topology:
    """Two LANs joined by one slow WAN link — the Tromsø/Cornell configuration."""
    topo = Topology()
    for name in list(cluster_a) + list(cluster_b):
        topo.add_site(name)
    lan_spec = LinkSpec(latency=lan_latency)
    for cluster in (list(cluster_a), list(cluster_b)):
        for i, a in enumerate(cluster):
            for b in cluster[i + 1:]:
                topo.add_link(a, b, lan_spec)
    gateway_a, gateway_b = cluster_a[0], cluster_b[0]
    topo.add_link(gateway_a, gateway_b,
                  LinkSpec(latency=wan_latency, bandwidth=wan_bandwidth))
    return topo


def ring(site_names: Sequence[str], latency: float = 0.005,
         bandwidth: float = 1_250_000.0) -> Topology:
    """A ring of sites; used by itinerary and rear-guard experiments."""
    topo = Topology()
    names = list(site_names)
    for name in names:
        topo.add_site(name)
    spec = LinkSpec(latency=latency, bandwidth=bandwidth)
    for a, b in zip(names, names[1:] + names[:1]):
        if a != b:
            topo.add_link(a, b, spec)
    return topo


def star(hub: str, leaves: Sequence[str], latency: float = 0.003,
         bandwidth: float = 1_250_000.0) -> Topology:
    """A hub-and-spoke topology; used by the StormCast sensor network."""
    topo = Topology()
    topo.add_site(hub)
    spec = LinkSpec(latency=latency, bandwidth=bandwidth)
    for leaf in leaves:
        topo.add_site(leaf)
        topo.add_link(hub, leaf, spec)
    return topo


def switched_fabric(host_names: Sequence[str], hosts_per_switch: int = 50,
                    host_latency: float = 0.001, trunk_latency: float = 0.001,
                    bandwidth: float = 1_250_000.0,
                    switch_prefix: str = "sw") -> Topology:
    """A switched LAN: hosts behind rack switches, switches fully meshed.

    ``lan()`` models the paper's LAN as a full mesh, which is O(V^2) links —
    at 2,000 sites that is two million edges and routing becomes the
    bottleneck before any agent runs.  A switched fabric is the same
    physical reality (every host can reach every host in one or two switch
    hops) with O(V) edges: consecutive *host_names* are grouped
    ``hosts_per_switch`` to a rack, each host links to its rack switch, and
    the switches form a small full mesh.  Same-rack traffic costs
    ``2 * host_latency``; cross-rack traffic adds one ``trunk_latency``.
    Every host is a stub (one link, to its switch), so a host-to-host route
    search settles the two hosts and switches only, never another host.

    The switch nodes (``sw00``, ``sw01``, ...) are ordinary topology sites —
    a kernel will create (agent-less) sites for them — so callers that
    launch agents should launch on *host_names*, not on ``topology.sites()``.
    """
    if hosts_per_switch < 1:
        raise ValueError(f"hosts_per_switch must be >= 1, got {hosts_per_switch}")
    topo = Topology()
    hosts = list(host_names)
    switches = []
    host_spec = LinkSpec(latency=host_latency, bandwidth=bandwidth)
    for index, host in enumerate(hosts):
        rack = index // hosts_per_switch
        if rack == len(switches):
            switch = f"{switch_prefix}{rack:02d}"
            topo.add_site(switch)
            switches.append(switch)
        topo.add_site(host)
        topo.add_link(host, switches[rack], host_spec)
    trunk_spec = LinkSpec(latency=trunk_latency, bandwidth=bandwidth)
    for i, a in enumerate(switches):
        for b in switches[i + 1:]:
            topo.add_link(a, b, trunk_spec)
    return topo


def random_topology(n_sites: int, edge_probability: float = 0.3,
                    seed: Optional[int] = None, latency_range: Tuple[float, float] = (0.002, 0.020),
                    bandwidth: float = 1_250_000.0) -> Topology:
    """A connected Erdős–Rényi-style topology (what the diffusion tests flood)."""
    rng = random.Random(seed)
    names = [f"site{i:02d}" for i in range(n_sites)]
    topo = Topology()
    for name in names:
        topo.add_site(name)
    # Guarantee connectivity with a random spanning chain, then sprinkle edges.
    shuffled = names[:]
    rng.shuffle(shuffled)
    for a, b in zip(shuffled, shuffled[1:]):
        spec = LinkSpec(latency=rng.uniform(*latency_range), bandwidth=bandwidth)
        topo.add_link(a, b, spec)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if rng.random() < edge_probability:
                spec = LinkSpec(latency=rng.uniform(*latency_range), bandwidth=bandwidth)
                topo.add_link(a, b, spec)
    return topo
