"""Network and kernel statistics counters.

Every comparison the tests make, and the performance ledger
(``benchmarks/ledger/README.md``), reads its numbers from a
:class:`NetworkStats` (bytes, messages, hops, meets, arrivals, WAL commits)
or from the kernel's agent ledger, so the counters live in one small,
well-tested module.  A :class:`NetworkStats` is plain picklable state: a
process shard worker ships its engine's whole object in each digest, and
the coordinator copies it into its mirror in place.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.record import Record

__all__ = ["NetworkStats", "LinkStats", "StatsView", "LatencySketch"]


class LinkStats(Record):
    """Per-link counters."""

    __slots__ = _fields = ("messages", "bytes", "drops")

    def __init__(self, messages: int = 0, bytes: int = 0, drops: int = 0):
        self.messages = messages
        self.bytes = bytes
        self.drops = drops


def _thin(values: List[float], keep: int) -> List[float]:
    """*keep* of *values* (``keep <= len(values)``), at evenly spaced positions."""
    return [values[index * len(values) // keep] for index in range(keep)]


class LatencySketch:
    """Bounded latency store: streaming moments plus a reservoir sample.

    Million-message runs used to grow ``NetworkStats.latencies`` linearly;
    this keeps an exact streaming count/sum/min/max (so
    :meth:`NetworkStats.mean_latency` stays exact) and an Algorithm-R
    reservoir of at most *capacity* values for percentile estimates.  The
    reservoir RNG is seeded per-sketch, so given the same record sequence
    the retained sample is identical on every execution backend.
    """

    __slots__ = ("capacity", "count", "total", "min", "max", "_sample", "_rng")

    def __init__(self, capacity: int = 4096):
        self.capacity = max(1, int(capacity))
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._sample: List[float] = []
        self._rng = random.Random(0x5EED)

    # -- recording ----------------------------------------------------------

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._sample) < self.capacity:
            self._sample.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                self._sample[slot] = value

    # -- reading ------------------------------------------------------------

    def mean(self) -> Optional[float]:
        """Exact mean over *every* recorded value (not just the sample)."""
        if self.count == 0:
            return None
        return self.total / self.count

    @property
    def sample(self) -> List[float]:
        """The retained reservoir values (record order, <= capacity)."""
        return list(self._sample)

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile estimated from the reservoir sample."""
        if not self._sample:
            return None
        ordered = sorted(self._sample)
        rank = max(0, min(len(ordered) - 1,
                          int(round(q * (len(ordered) - 1)))))
        return ordered[rank]

    def summary(self) -> Dict[str, Optional[float]]:
        """Count, total, extremes, mean, p50 and p99 as one JSON-able dict."""
        return {"count": self.count, "total": self.total, "min": self.min,
                "max": self.max, "mean": self.mean(),
                "p50": self.percentile(0.50), "p99": self.percentile(0.99)}

    def merge_from(self, other: "LatencySketch") -> None:
        """Fold another sketch in: exact moments add, samples combine.

        Used by :class:`StatsView` to merge per-shard sketches.  When both
        samples fit in this sketch's capacity they concatenate; otherwise
        each side keeps a share of the capacity proportional to the values
        it *recorded* (its ``count``, not its sample size), thinned by
        evenly spaced picks — deterministic, and each retained sample is
        already a uniform draw of its stream, so the merged percentiles
        weigh every part by its traffic.
        """
        mine, theirs = self._sample, other._sample
        if len(mine) + len(theirs) > self.capacity:
            share = round(self.capacity * self.count / (self.count + other.count))
            keep = min(len(mine), max(share, self.capacity - len(theirs)))
            self._sample = _thin(mine, keep) + _thin(theirs, self.capacity - keep)
        else:
            mine.extend(theirs)
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def __repr__(self) -> str:
        return (f"LatencySketch(n={self.count}, mean="
                f"{self.mean() if self.count else None}, "
                f"sample={len(self._sample)}/{self.capacity})")


class NetworkStats:
    """Aggregate counters for everything that crossed the simulated network,
    and for the kernel events the agent ledger does not see (no
    ``__slots__``: a process shard's mirror copies a worker's ``vars()``)."""

    def __init__(self) -> None:
        # Kernel event counters: ``counters()`` reports them beside the agent
        # ledger's state counts; ``snapshot()`` leaves them out.
        #: meets begun
        self.meets = 0
        #: briefcases handed to a transport
        self.transmits = 0
        #: agents re-animated from the network
        self.arrivals = 0
        #: messages that reached a site no agent could take them at
        self.undeliverable = 0

        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.migrations = 0
        self.migration_bytes = 0
        #: delivered wire messages that were delivery-fabric batch envelopes
        self.batches = 0
        #: logical messages coalesced into those envelopes
        self.batched_messages = 0
        #: header bytes the fabric avoided (one envelope header replaces N)
        self.header_bytes_saved = 0
        #: delivery-fabric outbox flushes by trigger: "window" (flush timer) or
        #: "partition" (the pair was severed)
        self.flush_causes: Dict[str, int] = defaultdict(int)
        #: latest flow-control telemetry per (source, destination) pair when the
        #: fabric runs adaptive windows: current window, EWMA message/byte rates
        self.flow_windows: Dict[Tuple[str, str], Dict[str, float]] = {}
        self.per_kind: Dict[str, int] = defaultdict(int)
        self.per_kind_bytes: Dict[str, int] = defaultdict(int)
        self.per_link: Dict[Tuple[str, str], LinkStats] = {}
        #: bounded delivery-latency store: exact streaming count/sum/min/max plus
        #: a reservoir sample for percentiles (was an unbounded ``List[float]``)
        self.latencies = LatencySketch()

        # Durable-store counters (repro.store): the durability cost model and
        # the crash/recovery ledger ``store_summary()`` reports.
        #: cabinet mutations journaled by durable site stores
        self.wal_appends = 0
        #: group commits / explicit flushes (each pays one fsync)
        self.wal_commits = 0
        #: redo records made durable across those commits
        self.wal_records_committed = 0
        #: payload bytes those redo records carried (the bytes-proportional
        #: term of the WAL cost model charges for exactly these)
        self.wal_bytes_committed = 0
        #: group commits triggered early by a pending durability barrier
        #: (checkpoint piggybacking) instead of the full commit window
        self.wal_barrier_piggybacks = 0
        #: WAL compactions folding redo records into base snapshot images
        self.store_snapshots = 0
        #: redo records those compactions absorbed into the base images
        self.wal_records_folded = 0
        #: completed site recoveries (snapshot + WAL replay)
        self.recoveries = 0
        #: total simulated seconds sites spent replaying before accepting traffic
        self.recovery_seconds = 0.0
        #: durable folders rebuilt by those recoveries
        self.durable_folders_restored = 0
        #: durable folders a recovery failed to rebuild (an invariant breach:
        #: committed state must never be lost — this stays 0 unless a durable
        #: cabinet's image could not be restored)
        self.durable_folders_lost = 0
        #: un-flushed folders discarded by crashes ("state lost" events)
        self.state_lost_folders = 0
        #: un-committed WAL records discarded by crashes
        self.state_lost_records = 0

        # Shard-boundary counters (repro.shard): cross-shard traffic handed from
        # one shard's transport to another shard's event loop.
        #: messages handed across a shard boundary
        self.shard_handoffs = 0
        #: wire bytes those handoffs carried
        self.shard_handoff_bytes = 0
        #: handoffs whose computed arrival fell behind the destination shard's
        #: clock and were clamped to "now": the conservative sync never grants a
        #: horizon past the latency bound, so this conservation check stays 0
        self.shard_late_arrivals = 0

    # -- recording -----------------------------------------------------------

    def record_send(self, source: str, destination: str, kind: str, size: int) -> None:
        """Count a message handed to the network."""
        self.messages_sent += 1
        self.bytes_sent += size
        self.per_kind[kind] += 1
        self.per_kind_bytes[kind] += size
        link = self.per_link.setdefault((source, destination), LinkStats())
        link.messages += 1
        link.bytes += size

    def record_delivery(self, size: int, latency: float) -> None:
        """Count a message that reached its destination."""
        self.messages_delivered += 1
        self.bytes_delivered += size
        self.latencies.record(latency)

    def record_drop(self, source: str, destination: str) -> None:
        """Count a message lost to failure, partition or loss injection."""
        self.messages_dropped += 1
        link = self.per_link.setdefault((source, destination), LinkStats())
        link.drops += 1

    def record_migration(self, size: int) -> None:
        """Count one agent migration (a delivered message of a ``MIGRATION_KINDS`` kind)."""
        self.migrations += 1
        self.migration_bytes += size

    def record_batch(self, coalesced: int, header_bytes_saved: int) -> None:
        """Count one delivered fabric envelope coalescing *coalesced* messages."""
        self.batches += 1
        self.batched_messages += coalesced
        self.header_bytes_saved += header_bytes_saved

    def record_flow(self, source: str, destination: str, window: float,
                    message_rate: float, bytes_rate: float) -> None:
        """Publish the latest adaptive window/rate estimate for one pair."""
        self.flow_windows[(source, destination)] = {
            "window": window,
            "message_rate": message_rate,
            "bytes_rate": bytes_rate,
        }

    def reset_flow_for_site(self, site_name: str) -> None:
        """Drop flow telemetry for pairs touching *site_name* (crash reset)."""
        for key in [key for key in self.flow_windows if site_name in key]:
            del self.flow_windows[key]

    def record_wal_commit(self, records: int, size_bytes: int = 0) -> None:
        """Count one group commit / flush making *records* redo records durable."""
        self.wal_commits += 1
        self.wal_records_committed += records
        self.wal_bytes_committed += size_bytes

    def record_store_snapshot(self, folded: int) -> None:
        """Count one WAL compaction (folding *folded* records into snapshots)."""
        self.store_snapshots += 1
        self.wal_records_folded += folded

    def record_recovery(self, seconds: float, folders_restored: int,
                        folders_lost: int = 0) -> None:
        """Count one completed site recovery and the replay time it took."""
        self.recoveries += 1
        self.recovery_seconds += seconds
        self.durable_folders_restored += folders_restored
        self.durable_folders_lost += folders_lost

    def record_state_lost(self, folders: int, records: int) -> None:
        """Count a crash discarding un-flushed folders / un-committed records."""
        self.state_lost_folders += folders
        self.state_lost_records += records

    def record_shard_handoff(self, size: int) -> None:
        """Count one message handed across a shard boundary (origin side)."""
        self.shard_handoffs += 1
        self.shard_handoff_bytes += size

    # -- reading -------------------------------------------------------------

    def mean_latency(self) -> Optional[float]:
        """Mean delivery latency in simulated seconds, or None if nothing delivered.

        Exact over every delivery: the sketch streams count/sum even after
        its percentile reservoir saturates.
        """
        return self.latencies.mean()

    def delivery_ratio(self) -> float:
        """Delivered / sent (1.0 when nothing was sent)."""
        if self.messages_sent == 0:
            return 1.0
        return self.messages_delivered / self.messages_sent

    def bytes_for_kind(self, kind: str) -> int:
        """Total bytes sent with messages of *kind*."""
        return self.per_kind_bytes.get(kind, 0)

    def flow_snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-pair flow telemetry keyed ``"source->destination"`` (JSON-able).

        The public view of the adaptive fabric's per-destination windows and
        EWMA rates — benchmarks and tests read this instead of reaching into
        the transport's flow controller.
        """
        return {f"{source}->{destination}": dict(info)
                for (source, destination), info in self.flow_windows.items()}

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict summary used by the benchmark reports.

        Every nested mapping is a fresh copy — mutating the snapshot must
        never reach back into the live counters.
        """
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "bytes_sent": self.bytes_sent,
            "bytes_delivered": self.bytes_delivered,
            "migrations": self.migrations,
            "migration_bytes": self.migration_bytes,
            "batches": self.batches,
            "batched_messages": self.batched_messages,
            "header_bytes_saved": self.header_bytes_saved,
            # Always 0: the window is the fabric's only flush trigger.  The
            # key stays because benchmarks/ledger/run.py reads it and
            # ledger_rep.py hashes it into sim_fingerprint.
            "early_flushes": 0,
            "flush_causes": dict(self.flush_causes),
            "per_kind": dict(self.per_kind),
            "per_kind_bytes": dict(self.per_kind_bytes),
            "flow_pairs": len(self.flow_windows),
            "flow_windows": self.flow_snapshot(),
            "wal_appends": self.wal_appends,
            "wal_commits": self.wal_commits,
            "wal_records_committed": self.wal_records_committed,
            "wal_bytes_committed": self.wal_bytes_committed,
            "wal_barrier_piggybacks": self.wal_barrier_piggybacks,
            "store_snapshots": self.store_snapshots,
            "wal_records_folded": self.wal_records_folded,
            "recoveries": self.recoveries,
            "recovery_seconds": self.recovery_seconds,
            "durable_folders_restored": self.durable_folders_restored,
            "durable_folders_lost": self.durable_folders_lost,
            "state_lost_folders": self.state_lost_folders,
            "state_lost_records": self.state_lost_records,
            "shard_handoffs": self.shard_handoffs,
            "shard_handoff_bytes": self.shard_handoff_bytes,
            "shard_late_arrivals": self.shard_late_arrivals,
            "mean_latency": self.mean_latency() or 0.0,
            "latency_count": self.latencies.count,
            "latency_p50": self.latencies.percentile(0.50) or 0.0,
            "latency_p99": self.latencies.percentile(0.99) or 0.0,
            "delivery_ratio": self.delivery_ratio(),
        }

#: NetworkStats fields that merge by summation across shards (everything that
#: is not one of the container fields merged structurally by StatsView).
_MERGED_CONTAINER_FIELDS = ("flush_causes", "flow_windows", "per_kind",
                            "per_kind_bytes", "per_link", "latencies")
_SCALAR_STAT_FIELDS = frozenset(vars(NetworkStats())).difference(_MERGED_CONTAINER_FIELDS)


class StatsView:
    """A live merged view over several shards' :class:`NetworkStats`.

    The sharded kernel facade exposes one of these as ``kernel.stats`` so
    code written against a single kernel — benchmarks summing
    ``stats.messages_sent``, reports walking ``stats.snapshot()`` — reads
    cluster-wide totals without knowing about shards.  Scalar counters sum
    across shards; container fields (per-kind, per-link, flow telemetry,
    latencies) merge structurally.  The view is read-only: it never records.
    """

    def __init__(self, parts: Sequence[NetworkStats]):
        self._parts = list(parts)

    def __getattr__(self, name: str):
        if name in _SCALAR_STAT_FIELDS:
            return sum(getattr(part, name) for part in self._parts)
        raise AttributeError(f"{type(self).__name__} has no attribute {name!r}")

    # -- merged container fields ------------------------------------------------

    def _summed(self, field: str) -> Dict[str, int]:
        """The parts' *field* dicts summed key by key."""
        merged: Dict[str, int] = defaultdict(int)
        for part in self._parts:
            for key, value in getattr(part, field).items():
                merged[key] += value
        return dict(merged)

    @property
    def flush_causes(self) -> Dict[str, int]:
        return self._summed("flush_causes")

    @property
    def per_kind(self) -> Dict[str, int]:
        return self._summed("per_kind")

    @property
    def per_kind_bytes(self) -> Dict[str, int]:
        return self._summed("per_kind_bytes")

    @property
    def per_link(self) -> Dict[Tuple[str, str], LinkStats]:
        merged: Dict[Tuple[str, str], LinkStats] = {}
        for part in self._parts:
            for pair, link in part.per_link.items():
                into = merged.setdefault(pair, LinkStats())
                into.messages += link.messages
                into.bytes += link.bytes
                into.drops += link.drops
        return merged

    @property
    def flow_windows(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        # Each pair's flow window is tracked by exactly one shard (the
        # source site's owner), so a plain union never collides.
        merged: Dict[Tuple[str, str], Dict[str, float]] = {}
        for part in self._parts:
            for pair, info in part.flow_windows.items():
                merged[pair] = dict(info)
        return merged

    @property
    def latencies(self) -> LatencySketch:
        """Merged sketch: exact combined moments, count-weighted samples."""
        merged = LatencySketch()
        for part in self._parts:
            merged.merge_from(part.latencies)
        return merged

    # -- derived readers: reuse the NetworkStats implementations, which only
    # touch the attributes merged above (plain duck typing).

    mean_latency = NetworkStats.mean_latency
    delivery_ratio = NetworkStats.delivery_ratio
    bytes_for_kind = NetworkStats.bytes_for_kind
    flow_snapshot = NetworkStats.flow_snapshot
    snapshot = NetworkStats.snapshot
