"""Conservative clock synchronisation between shards.

Null-message-style (bounded-lag) synchronisation in synchronous rounds:
each round the coordinator reads every shard's next-event time ``T_k`` and
grants each shard a **horizon** it may freely run to.  A shard never runs
past the earliest instant an event on another shard could affect it.

Lookahead between shards is derived from the topology: the minimum
shortest-path *latency* between any site of shard ``i`` and any site of
shard ``j`` (computed on the full graph, ignoring crashes and partitions —
failures only remove routes, so the healthy-network latency is a valid
lower bound on any future arrival).  Because a message can also be relayed
through an intermediate shard's event, the effective influence bound is
the shortest path over the shard-level lookahead matrix itself
(Floyd-Warshall), not just the direct entry:

    horizon(i) = min(  min_{k != i, T_k finite}  T_k + dist(k, i),
                       T_i + roundtrip(i)                          )

The ``T_i + roundtrip(i)`` term bounds a shard against reflections of its
*own* messages within the round (send to ``j`` and back costs at least
``dist(i, j) + dist(j, i)``).  The sync is purely conservative: the owning
engine still clamps and counts any handoff arriving in its past
(``shard_late_arrivals``), as a conservation check that stays zero.

Progress: the shard with the globally minimal ``T`` always receives a
horizon strictly beyond it (every lookahead is at least ``min_lookahead``),
so every round executes at least one event.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional

from repro.net.topology import Topology

__all__ = ["ClockSync"]

#: lookahead floor: even co-located shards get a sliver of parallel slack,
#: and it is what guarantees per-round progress
MIN_LOOKAHEAD = 1e-6


class ClockSync:
    """The lookahead matrix + horizon calculator of a sharded kernel."""

    def __init__(self, topology: Topology, placement: Mapping[str, int],
                 shards: int, min_lookahead: float = MIN_LOOKAHEAD):
        self._topology = topology
        #: site name -> shard id, fixed when the kernel is built; the
        #: coordinator routes handoffs by the same map
        self.placement = placement
        self._shards = shards
        self.min_lookahead = float(min_lookahead)
        self._dist: List[List[float]] = []
        self._roundtrip: List[float] = []
        #: how many times the matrix has been computed: once, lazily, at
        #: the first horizon grant — the sites and links are fixed for the
        #: kernel's life, and crashes and partitions only *remove* routes,
        #: so the healthy-network lookahead stays a valid lower bound
        self.rebuilds = 0

    # -- lookahead matrix -------------------------------------------------------

    def rebuild(self) -> None:
        """Recompute the shard-level lookahead distances from the topology.

        Seeds the shard matrix with one scan over the topology's *edges*
        (the cheapest direct cross-shard link between each shard pair),
        then closes it with Floyd-Warshall over shards.  Dropping the
        intra-shard segments of a multi-hop path can only shorten it, so
        every entry remains a valid lower bound on any cross-shard arrival;
        for single-site shards it equals the old all-pairs-over-sites
        computation exactly.  Cost: O(E + S^3) instead of all-pairs
        shortest paths over the whole site graph — the difference between
        a blip and a multi-second stall on the 2k-site fabric.
        """
        placement = self.placement
        size = self._shards
        dist = [[math.inf] * size for _ in range(size)]
        for i in range(size):
            dist[i][i] = 0.0
        for a, b, spec in self._topology.links():
            i = placement.get(a)
            j = placement.get(b)
            if i is None or j is None or i == j:
                continue
            cost = max(self.min_lookahead, spec.latency)
            if cost < dist[i][j]:
                dist[i][j] = cost
                dist[j][i] = cost  # links are undirected

        # Relayed influence: i can reach j through an event on k, so the
        # effective bound is the all-pairs shortest path over the matrix.
        for k in range(size):
            row_k = dist[k]
            for i in range(size):
                via = dist[i][k]
                if via == math.inf:
                    continue
                row_i = dist[i]
                for j in range(size):
                    through = via + row_k[j]
                    if through < row_i[j]:
                        row_i[j] = through

        self._dist = dist
        self._roundtrip = [
            min((dist[i][j] + dist[j][i]
                 for j in range(size) if j != i), default=math.inf)
            for i in range(size)]
        self.rebuilds += 1

    def lookahead(self, origin: int, target: int) -> float:
        """The influence bound from shard *origin* to shard *target*."""
        if not self._dist:
            self.rebuild()
        return self._dist[origin][target]

    # -- horizons ---------------------------------------------------------------

    def horizons(self, next_times: Mapping[int, Optional[float]]
                 ) -> Dict[int, Optional[float]]:
        """Grant each shard a safe run-to horizon for this round.

        *next_times* maps shard id to its next-event timestamp (None when
        the shard's queue is empty).  A returned horizon of None means
        "unconstrained" — no other shard can ever influence this one.
        """
        if not self._dist:
            self.rebuild()
        horizons: Dict[int, Optional[float]] = {}
        for i in range(self._shards):
            bound = math.inf
            for k, at in next_times.items():
                if k == i or at is None:
                    continue
                influence = at + self._dist[k][i]
                if influence < bound:
                    bound = influence
            own = next_times.get(i)
            if own is not None and self._roundtrip[i] < math.inf:
                reflection = own + self._roundtrip[i]
                if reflection < bound:
                    bound = reflection
            horizons[i] = None if bound == math.inf else bound
        return horizons

    def __repr__(self) -> str:
        return f"ClockSync(shards={self._shards}, built={bool(self._dist)})"
