"""Unit tests for repro.net.message and repro.net.stats."""

from __future__ import annotations

import pytest

from repro.net.message import Message, MessageKind
from repro.net.stats import LatencySketch, LinkStats, NetworkStats, StatsView


class TestMessage:
    def test_declared_size_takes_precedence(self):
        message = Message(source="a", destination="b", kind=MessageKind.DATA,
                          payload={"big": "x" * 10_000}, declared_size=100)
        assert message.size_bytes() == Message.HEADER_BYTES + 100

    def test_estimated_size_from_payload(self):
        small = Message(source="a", destination="b", kind=MessageKind.CONTROL,
                        payload={"k": 1})
        large = Message(source="a", destination="b", kind=MessageKind.CONTROL,
                        payload={"k": "x" * 5000})
        assert large.size_bytes() > small.size_bytes()
        assert small.size_bytes() > Message.HEADER_BYTES

    def test_an_undeclared_snapshot_payload_sizes_deterministically(self):
        import pickle

        from repro.core import Briefcase, Folder

        def sized(carried):
            return Message(source="a", destination="b", kind=MessageKind.FOLDER_DELIVERY,
                           payload={"contact": "sink", "briefcase": carried}).size_bytes()

        briefcase = Briefcase([Folder("MANY", [1, "two", b"3"]), Folder("EMPTY")])
        briefcase.set("HOST", "tromso")
        size = sized(briefcase.snapshot())
        # Estimated from the payload, not the 256-byte could-not-pickle fallback...
        assert size > Message.HEADER_BYTES + briefcase.wire_size() - 32
        assert size != Message.HEADER_BYTES + 256
        # ... and the same for every snapshot, touched or not, here or past a pipe.
        briefcase.folder("HOST")
        assert sized(briefcase.snapshot()) == size
        assert sized(pickle.loads(pickle.dumps(briefcase.snapshot()))) == size

    def test_message_ids_are_unique(self):
        a = Message(source="a", destination="b", kind=MessageKind.DATA)
        b = Message(source="a", destination="b", kind=MessageKind.DATA)
        assert a.message_id != b.message_id

    def test_latency_seconds(self):
        message = Message(source="a", destination="b", kind=MessageKind.DATA,
                          declared_size=1000)
        latency = message.latency_seconds(0.01, 10_000.0)
        assert latency == pytest.approx(0.01 + (Message.HEADER_BYTES + 1000) / 10_000.0)

    def test_latency_with_zero_bandwidth_is_just_latency(self):
        message = Message(source="a", destination="b", kind=MessageKind.DATA,
                          declared_size=1000)
        assert message.latency_seconds(0.02, 0.0) == 0.02

    def test_kinds_catalogue(self):
        assert MessageKind.AGENT_TRANSFER in MessageKind.ALL
        assert len(set(MessageKind.ALL)) == len(MessageKind.ALL)


class TestNetworkStats:
    def test_record_send_and_delivery(self):
        stats = NetworkStats()
        stats.record_send("a", "b", MessageKind.DATA, 100)
        stats.record_delivery(100, latency=0.05)
        assert stats.messages_sent == 1
        assert stats.messages_delivered == 1
        assert stats.bytes_sent == 100
        assert stats.bytes_delivered == 100
        assert stats.mean_latency() == pytest.approx(0.05)
        assert stats.delivery_ratio() == 1.0

    def test_per_kind_accounting(self):
        stats = NetworkStats()
        stats.record_send("a", "b", MessageKind.DATA, 100)
        stats.record_send("a", "b", MessageKind.AGENT_TRANSFER, 300)
        assert stats.per_kind[MessageKind.DATA] == 1
        assert stats.bytes_for_kind(MessageKind.AGENT_TRANSFER) == 300
        assert stats.bytes_for_kind("never-sent") == 0

    def test_per_link_accounting(self):
        stats = NetworkStats()
        stats.record_send("a", "b", MessageKind.DATA, 10)
        stats.record_send("a", "b", MessageKind.DATA, 20)
        stats.record_drop("a", "b")
        link = stats.per_link[("a", "b")]
        assert isinstance(link, LinkStats)
        assert link.messages == 2
        assert link.bytes == 30
        assert link.drops == 1

    def test_delivery_ratio_with_drops(self):
        stats = NetworkStats()
        stats.record_send("a", "b", MessageKind.DATA, 10)
        stats.record_send("a", "b", MessageKind.DATA, 10)
        stats.record_delivery(10, 0.01)
        stats.record_drop("a", "b")
        assert stats.delivery_ratio() == pytest.approx(0.5)

    def test_delivery_ratio_when_nothing_sent(self):
        assert NetworkStats().delivery_ratio() == 1.0

    def test_mean_latency_none_when_nothing_delivered(self):
        assert NetworkStats().mean_latency() is None

    def test_migration_accounting(self):
        stats = NetworkStats()
        stats.record_migration(500)
        stats.record_migration(700)
        assert stats.migrations == 2
        assert stats.migration_bytes == 1200

    def test_snapshot_keys(self):
        stats = NetworkStats()
        stats.record_send("a", "b", MessageKind.DATA, 10)
        snapshot = stats.snapshot()
        for key in ("messages_sent", "bytes_sent", "migrations", "delivery_ratio",
                    "mean_latency", "flush_causes", "flow_pairs", "flow_windows",
                    "wal_bytes_committed", "wal_barrier_piggybacks"):
            assert key in snapshot

    def test_snapshot_exposes_the_flush_cause_breakdown(self):
        # Benchmarks used to reach into the private defaultdict; the
        # snapshot carries a plain copy now.
        stats = NetworkStats()
        stats.record_flush("window")
        stats.record_flush("partition")
        stats.record_flush("partition")
        assert stats.snapshot()["flush_causes"] == {"window": 1, "partition": 2}

    def test_flow_telemetry_recording_and_reset(self):
        stats = NetworkStats()
        stats.record_flow("a", "b", window=0.05, message_rate=120.0,
                          bytes_rate=24_000.0)
        stats.record_flow("c", "b", window=0.8, message_rate=2.0,
                          bytes_rate=400.0)
        snapshot = stats.snapshot()
        assert snapshot["flow_pairs"] == 2
        assert snapshot["flow_windows"]["a->b"]["window"] == 0.05
        assert stats.flow_snapshot()["c->b"]["message_rate"] == 2.0
        # A crash of b drops every pair touching it.
        stats.reset_flow_for_site("b")
        assert stats.snapshot()["flow_pairs"] == 0

    def test_wal_commit_bytes_and_piggyback_counters(self):
        stats = NetworkStats()
        stats.record_wal_commit(3, size_bytes=4_096)
        stats.record_wal_commit(1)              # bytes default to 0
        stats.record_barrier_piggyback()
        assert stats.wal_commits == 2
        assert stats.wal_records_committed == 4
        assert stats.wal_bytes_committed == 4_096
        assert stats.wal_barrier_piggybacks == 1

    def test_shard_handoff_counters(self):
        stats = NetworkStats()
        stats.record_shard_handoff(200)
        stats.record_shard_handoff(300)
        stats.record_shard_late_arrival()
        assert stats.shard_handoffs == 2
        assert stats.shard_handoff_bytes == 500
        assert stats.shard_late_arrivals == 1
        snapshot = stats.snapshot()
        assert snapshot["shard_handoffs"] == 2
        assert snapshot["shard_handoff_bytes"] == 500
        assert snapshot["shard_late_arrivals"] == 1

    def test_snapshot_nested_mappings_are_copies(self):
        # Regression: snapshot() used to hand out live references to the
        # per-kind defaultdicts, so a caller mutating the snapshot (or
        # iterating while traffic arrived) corrupted the counters.
        stats = NetworkStats()
        stats.record_send("a", "b", MessageKind.DATA, 10)
        stats.record_delivery(10, 0.02)
        stats.record_flush("window")
        stats.record_flow("a", "b", window=0.05, message_rate=1.0,
                          bytes_rate=10.0)
        snapshot = stats.snapshot()
        snapshot["per_kind"][MessageKind.DATA] = 999
        snapshot["per_kind"]["FORGED"] = 1
        snapshot["per_kind_bytes"].clear()
        snapshot["flush_causes"]["window"] = 999
        snapshot["flow_windows"]["a->b"]["window"] = 999.0
        assert stats.per_kind[MessageKind.DATA] == 1
        assert "FORGED" not in stats.per_kind
        assert stats.per_kind_bytes[MessageKind.DATA] > 0
        assert stats.flush_causes["window"] == 1
        assert stats.flow_windows[("a", "b")]["window"] == 0.05
        fresh = stats.snapshot()
        assert fresh["per_kind"] == {MessageKind.DATA: 1}
        assert fresh["flush_causes"] == {"window": 1}


def sketch_of(values) -> LatencySketch:
    sketch = LatencySketch()
    for value in values:
        sketch.record(value)
    return sketch


class TestLatencySketch:
    def test_summary_reads_moments_and_percentiles(self):
        assert LatencySketch().summary() == {
            "count": 0, "total": 0.0, "min": None, "max": None,
            "mean": None, "p50": None, "p99": None}
        summary = sketch_of([0.004, 0.001, 0.002, 10.0]).summary()
        assert (summary["count"], summary["min"], summary["max"]) == (4, 0.001, 10.0)
        assert summary["total"] == pytest.approx(10.007)
        assert summary["mean"] == pytest.approx(10.007 / 4)
        assert summary["p50"] == 0.004 and summary["p99"] == 10.0

    def test_the_sample_is_bounded_and_the_moments_stay_exact(self):
        sketch = LatencySketch(capacity=100)
        for index in range(10_000):
            sketch.record(index / 1000)
        assert len(sketch.sample) == 100 and sketch.count == 10_000
        assert (sketch.min, sketch.max) == (0.0, 9.999)
        assert sketch.mean() == pytest.approx(4.9995)
        assert 0.0 <= sketch.percentile(0.5) <= 9.999


def delivered(latencies) -> NetworkStats:
    """Stats that recorded one delivery per latency in *latencies*."""
    stats = NetworkStats()
    for latency in latencies:
        stats.record_delivery(10, latency)
    return stats


class TestStatsView:
    """The sharded facade's merged read view over per-shard stats."""

    def _parts(self):
        left, right = NetworkStats(), NetworkStats()
        left.record_send("a", "b", MessageKind.DATA, 100)
        left.record_delivery(100, 0.010)
        left.record_flush("window")
        right.record_send("c", "d", MessageKind.STATUS, 50)
        right.record_send("c", "b", MessageKind.DATA, 70)
        right.record_delivery(50, 0.030)
        right.record_flush("partition")
        right.record_shard_handoff(70)
        return left, right

    def test_scalars_sum_and_containers_merge(self):
        left, right = self._parts()
        view = StatsView([left, right])
        assert view.messages_sent == 3
        assert view.bytes_sent == left.bytes_sent + right.bytes_sent
        assert view.shard_handoffs == 1
        assert view.per_kind == {MessageKind.DATA: 2, MessageKind.STATUS: 1}
        assert view.flush_causes == {"window": 1, "partition": 1}
        assert view.mean_latency() == pytest.approx(0.020)

    def test_snapshot_matches_network_stats_shape(self):
        view = StatsView(list(self._parts()))
        snapshot = view.snapshot()
        reference = NetworkStats().snapshot()
        assert set(snapshot) == set(reference)
        assert snapshot["messages_sent"] == 3
        assert snapshot["per_kind"] == {MessageKind.DATA: 2, MessageKind.STATUS: 1}

    def test_merged_percentiles_weigh_every_part_by_its_count(self):
        # Both parts' reservoirs are full, so the merged sample must split
        # its capacity by the deliveries each part recorded, in either
        # order; filling it from the first part reported that part's
        # percentiles as the whole cluster's.
        for fast_count, slow_count in ((5_000, 5_000), (5_000, 15_000)):
            fast, slow = delivered([1.0] * fast_count), delivered([3.0] * slow_count)
            for parts in ([fast, slow], [slow, fast]):
                merged = StatsView(parts).latencies
                sample = merged.sample
                assert len(sample) == merged.capacity
                assert sample.count(1.0) == round(
                    merged.capacity * fast_count / (fast_count + slow_count))
                assert merged.percentile(0.01) == 1.0
                assert merged.percentile(0.99) == 3.0

    def test_merged_samples_that_fit_keep_every_value(self):
        fast = sketch_of([1.0] * 100)
        fast.merge_from(sketch_of([3.0, 2.0] * 50))
        assert fast.sample == [1.0] * 100 + [3.0, 2.0] * 50
        assert (fast.count, fast.mean(), fast.min, fast.max) == (200, 1.75, 1.0, 3.0)

    def test_an_unfilled_part_still_gets_only_its_share(self):
        # 100 deliveries beside 10,000: the small part's whole sample fits,
        # but it recorded under 1% of the traffic and keeps that share.
        for first, second in ((100, 10_000), (10_000, 100)):
            merged = StatsView([delivered([1.0] * first),
                                delivered([3.0] * second)]).latencies
            assert len(merged.sample) == merged.capacity
            assert merged.sample.count(1.0) == round(
                merged.capacity * first / (first + second))

    def test_an_empty_part_leaves_the_merge_unchanged(self):
        busy = delivered([index / 1000 for index in range(10_000)])
        for parts in ([NetworkStats(), busy], [busy, NetworkStats()]):
            merged = StatsView(parts).latencies
            assert (merged.sample, merged.count) == (busy.latencies.sample, 10_000)

    def test_three_parts_each_weigh_by_their_count(self):
        merged = StatsView([delivered([1.0] * 4_000), delivered([2.0] * 8_000),
                            delivered([3.0] * 12_000)]).latencies
        sample = merged.sample
        assert len(sample) == merged.capacity
        for latency, fraction in ((1.0, 1 / 6), (2.0, 2 / 6), (3.0, 3 / 6)):
            assert abs(sample.count(latency) - merged.capacity * fraction) <= 1
        assert [merged.percentile(q) for q in (0.1, 0.4, 0.9)] == [1.0, 2.0, 3.0]

    def test_merging_is_deterministic(self):
        def view():
            return StatsView([delivered([index * 0.002 for index in range(3_000)]),
                              delivered([10 + index * 0.001 for index in range(6_000)])])

        assert view().latencies.sample == view().latencies.sample
        assert view().snapshot()["latency_p50"] == view().snapshot()["latency_p50"]

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            StatsView([NetworkStats()]).no_such_counter
