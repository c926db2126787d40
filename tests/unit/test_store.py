"""Unit tests for the durable storage subsystem (repro.store)."""

from __future__ import annotations

import dataclasses

import pytest

from contracts import BaseTestFolderContainer
from repro.core import Kernel, KernelConfig
from repro.core.errors import CabinetError, KernelError, StoreError
from repro.net import lan
from repro.store import WriteAheadLog
from repro.store.policy import StoreCosts


def make_kernel(policy="wal-group-commit", costs=None, **knobs):
    """A kernel over sites a, b, c; *costs* overrides ``StoreCosts`` fields
    (disk prices, ``recovery_base``, ``snapshot_threshold``) on every store."""
    config = KernelConfig(rng_seed=3, durability=policy, **knobs)
    kernel = Kernel(lan(["a", "b", "c"]), transport="tcp", config=config)
    if costs:
        for store in kernel.stores.values():
            store.costs = dataclasses.replace(store.costs, **costs)
    return kernel


def durable_cabinet(policy):
    """Cabinet "m", durable at site a under *policy*, and its reopen: commit
    everything, crash the site, recover it and run the replay out."""
    kernel = make_kernel(policy)
    kernel.make_durable("m", sites=["a"])
    store = kernel.store("a")

    def reopen(cabinet):
        delay = store.barrier()
        while delay > 0:
            kernel.run(until=kernel.now + delay)
            delay = store.barrier()
        kernel.crash_site("a")
        kernel.recover_site("a")
        kernel.run()
        return kernel.site("a").cabinet(cabinet.name)

    return kernel.site("a").cabinet("m"), reopen


class TestDurableCabinetContractGroupCommit(BaseTestFolderContainer):
    @pytest.fixture
    def opened(self):
        return durable_cabinet("wal-group-commit")

    @pytest.fixture
    def error(self):
        return CabinetError


class TestDurableCabinetContractFlushOnDemand(BaseTestFolderContainer):
    @pytest.fixture
    def opened(self):
        return durable_cabinet("flush-on-demand")

    @pytest.fixture
    def error(self):
        return CabinetError


class TestPolicyResolution:
    @pytest.mark.parametrize("policy, group_commit", [
        ("flush-on-demand", False), ("wal-group-commit", True)])
    def test_names_resolve(self, policy, group_commit):
        kernel = make_kernel(policy)
        assert kernel.store_summary()["policy"] == policy
        assert [(store.policy, store.group_commit) for store in kernel.stores.values()] \
            == [(policy, group_commit)] * 3

    def test_unknown_name_raises(self):
        with pytest.raises(KernelError, match="durability"):
            make_kernel("fsync-maybe")

    def test_none_policy_builds_no_stores(self):
        kernel = make_kernel("none")
        assert kernel.stores == {}
        assert kernel.store("a") is None
        assert kernel.make_durable("anything") == 0

    def test_store_requires_durable_policy(self):
        from repro.store import SiteStore
        kernel = make_kernel("none")
        with pytest.raises(StoreError):
            SiteStore(kernel.site("a"), kernel.loop, "none", StoreCosts(),
                      kernel.stats)


class TestWriteAheadLog:
    def test_commit_and_replay_last_wins(self):
        wal = WriteAheadLog()
        wal.commit([("cab", "f", (b"one",))], 3)
        wal.commit([("cab", "f", (b"one", b"two"))], 6)
        assert wal.replay_states() == {("cab", "f"): (b"one", b"two")}
        assert wal.total_committed == len(wal) == 2
        assert wal.bytes_pending == 9

    def test_deletion_record_removes_from_image(self):
        wal = WriteAheadLog()
        wal.commit([("cab", "f", (b"x",))], 1)
        wal.commit([("cab", "f", None)], 0)
        images = {"cab": {"f": (b"stale",)}}
        folded = wal.fold_into(images)
        assert folded == 2
        assert images == {"cab": {}}
        assert len(wal) == 0


class TestGroupCommit:
    def test_mutations_become_durable_after_commit_window(self):
        kernel = make_kernel(store_commit_window=0.5)
        kernel.make_durable("m", sites=["a"])
        kernel.site("a").cabinet("m").put("f", "hello")
        store = kernel.store("a")
        assert store.dirty_count == 1          # one dirty (cabinet, folder) pair
        kernel.run(until=0.4)
        assert store.durable_state().get("m", {}) == {}   # not yet committed
        kernel.run(until=1.0)
        assert store.dirty_count == 0
        assert "f" in store.durable_state()["m"]
        assert kernel.stats.wal_commits == 1
        assert kernel.stats.wal_appends == 1   # the put that created the folder

    def test_commit_batches_many_mutations_into_one_fsync(self):
        kernel = make_kernel(store_commit_window=0.5)
        kernel.make_durable("m", sites=["a"])
        cabinet = kernel.site("a").cabinet("m")
        for index in range(50):
            cabinet.put("f", index)
        kernel.run(until=2.0)
        # 50 appends, one commit, one redo record (one dirty folder).
        assert kernel.stats.wal_appends == 50  # the first put creates the folder
        assert kernel.stats.wal_commits == 1
        assert kernel.stats.wal_records_committed == 1

    def test_crash_before_commit_discards_uncommitted_state(self):
        kernel = make_kernel(store_commit_window=1.0)
        kernel.make_durable("m", sites=["a"])
        kernel.site("a").cabinet("m").put("f", "volatile")
        kernel.run(until=0.2)
        kernel.crash_site("a")                 # commit never fired
        assert kernel.stats.state_lost_records > 0
        assert kernel.store("a").durable_state().get("m", {}) == {}
        # The crash cleared the live cabinet too.
        assert kernel.site("a").cabinet("m").elements("f") == []
        assert any("state lost" in entry[3] for entry in kernel.event_log)

    def test_folder_removal_is_journaled(self):
        kernel = make_kernel(store_commit_window=0.1)
        kernel.make_durable("m", sites=["a"])
        cabinet = kernel.site("a").cabinet("m")
        cabinet.put("f", 1)
        kernel.run(until=0.5)
        assert "f" in kernel.store("a").durable_state()["m"]
        cabinet.remove("f")
        kernel.run(until=1.0)
        assert "f" not in kernel.store("a").durable_state()["m"]


class TestCrashRecovery:
    def test_recovery_restores_committed_state_with_delay(self):
        kernel = make_kernel(store_commit_window=0.1)
        kernel.make_durable("m", sites=["a"])
        kernel.site("a").cabinet("m").put("f", "precious")
        kernel.run(until=1.0)
        kernel.crash_site("a")
        kernel.recover_site("a")
        site = kernel.site("a")
        assert not site.alive                  # replay has a modelled delay
        kernel.run(until=5.0)
        assert site.alive
        assert site.cabinet("m").elements("f") == ["precious"]
        assert kernel.stats.recoveries == 1
        assert kernel.stats.recovery_seconds > 0
        assert kernel.stats.durable_folders_restored >= 1

    def test_replay_charges_replay_latency_per_committed_record(self):
        def recovery_seconds(folders):
            kernel = make_kernel(store_commit_window=0.1, costs={"recovery_base": 1.0})
            kernel.make_durable("m", sites=["a"])
            for index in range(folders):
                kernel.site("a").cabinet("m").put(f"f{index}", index)
            kernel.run(until=1.0)
            assert len(kernel.store("a").wal) == folders
            kernel.crash_site("a")
            kernel.recover_site("a")
            kernel.run(until=10.0)
            return kernel.stats.recovery_seconds

        per_record = StoreCosts().replay_latency
        assert per_record == 0.0005
        assert recovery_seconds(1) == pytest.approx(1.0 + per_record)
        assert recovery_seconds(4) == pytest.approx(1.0 + 4 * per_record)

    def test_site_refuses_traffic_while_replaying(self):
        kernel = make_kernel(store_commit_window=0.1,
                             costs={"recovery_base": 2.0})
        kernel.make_durable("m", sites=["a"])
        kernel.site("a").cabinet("m").put("f", 1)
        kernel.run(until=1.0)
        kernel.crash_site("a")
        kernel.recover_site("a")

        def sender(ctx, bc):
            bc.set("HOST", "a")
            bc.set("CONTACT", "ag_py")
            bc.set("CODE", {"kind": "behaviour", "name": "shell"})
            result = yield ctx.meet("rexec", bc)
            return result.value

        from repro.core import Briefcase
        kernel.launch("b", sender, Briefcase())
        kernel.run(until=1.5)                  # replay (>= 2s) still underway
        dropped_before = kernel.stats.messages_dropped + kernel.counters()["undeliverable"]
        assert dropped_before > 0              # the transfer did not get in
        kernel.run(until=10.0)
        assert kernel.site("a").alive

    def test_crash_during_recovery_aborts_and_recovers_later(self):
        kernel = make_kernel(store_commit_window=0.1,
                             costs={"recovery_base": 3.0})
        kernel.make_durable("m", sites=["a"])
        kernel.site("a").cabinet("m").put("f", "precious")
        kernel.run(until=1.0)
        kernel.crash_site("a")
        kernel.recover_site("a")
        kernel.run(until=2.0)                  # replay running (needs 3s)
        kernel.crash_site("a")                 # crash mid-replay
        assert not kernel.store("a").recovering
        kernel.run(until=10.0)
        assert not kernel.site("a").alive      # stale completion was a no-op
        kernel.recover_site("a")
        kernel.run(until=20.0)
        assert kernel.site("a").alive
        assert kernel.site("a").cabinet("m").elements("f") == ["precious"]

    def test_recover_site_is_idempotent_while_replaying(self):
        kernel = make_kernel(costs={"recovery_base": 2.0})
        kernel.make_durable("m", sites=["a"])
        kernel.crash_site("a")
        kernel.recover_site("a")
        kernel.recover_site("a")               # second call is a no-op
        kernel.run(until=10.0)
        assert kernel.site("a").alive
        assert kernel.stats.recoveries == 1

    def test_policy_none_keeps_legacy_instant_recovery(self):
        kernel = make_kernel("none")
        kernel.site("a").cabinet("m").put("f", "kept")
        kernel.crash_site("a")
        # Legacy free permanence: cabinets survive the crash untouched.
        assert kernel.site("a").cabinet("m").elements("f") == ["kept"]
        kernel.recover_site("a")
        assert kernel.site("a").alive          # instant, no replay
        # The recovery ledger is a store ledger: nothing was replayed.
        assert kernel.stats.recoveries == 0
        assert kernel.stats.recovery_seconds == 0.0

    def test_non_durable_cabinets_are_lost_under_durable_policy(self):
        kernel = make_kernel(store_commit_window=0.1)
        kernel.make_durable("kept", sites=["a"])
        site = kernel.site("a")
        site.cabinet("kept").put("f", 1)
        site.cabinet("scratch").put("g", 2)
        kernel.run(until=1.0)
        kernel.crash_site("a")
        kernel.recover_site("a")
        kernel.run(until=5.0)
        assert site.cabinet("kept").elements("f") == [1]
        assert site.cabinet("scratch").elements("g") == []
        assert kernel.stats.state_lost_folders >= 1


class TestFlushOnDemand:
    def test_nothing_durable_until_flush_completes(self):
        kernel = make_kernel("flush-on-demand")
        kernel.make_durable("m", sites=["a"])
        kernel.site("a").cabinet("m").put("f", "volatile")
        kernel.run(until=5.0)
        store = kernel.store("a")
        assert store.durable_state().get("m", {}) == {}
        cost = store.flush()
        assert cost > 0
        # The flush captured the state but the write+fsync is still in
        # flight: durability arrives only once the cost has elapsed.
        assert store.durable_state().get("m", {}) == {}
        kernel.run(until=5.0 + cost + 0.001)
        assert "f" in store.durable_state()["m"]

    def test_crash_during_flush_sync_loses_the_batch(self):
        kernel = make_kernel("flush-on-demand")
        kernel.make_durable("m", sites=["a"])
        kernel.site("a").cabinet("m").put("f", "doomed")
        store = kernel.store("a")
        store.flush()
        kernel.crash_site("a")                 # before the write+fsync lands
        kernel.recover_site("a")
        kernel.run(until=10.0)
        assert kernel.site("a").cabinet("m").elements("f") == []
        assert kernel.stats.state_lost_records >= 1

    def test_flush_then_crash_recovers_flushed_state_only(self):
        kernel = make_kernel("flush-on-demand")
        kernel.make_durable("m", sites=["a"])
        cabinet = kernel.site("a").cabinet("m")
        cabinet.put("f", "flushed")
        cost = kernel.store("a").flush()
        kernel.run(until=cost + 0.001)         # let the sync complete
        cabinet.put("f", "after-flush")
        kernel.crash_site("a")
        kernel.recover_site("a")
        kernel.run(until=5.0)
        assert kernel.site("a").cabinet("m").elements("f") == ["flushed"]

    def test_flush_with_nothing_pending_is_free(self):
        kernel = make_kernel("flush-on-demand")
        kernel.make_durable("m", sites=["a"])
        assert kernel.store("a").flush() == 0.0

    def test_sustained_flush_traffic_cannot_starve_durability(self):
        # Flushes arriving faster than the write+fsync completes must not
        # cancel and restart the in-flight sync: the disk drains one batch
        # at a time and everything still becomes durable.
        kernel = make_kernel("flush-on-demand", costs={"fsync_latency": 0.004})
        kernel.make_durable("m", sites=["a"])
        cabinet = kernel.site("a").cabinet("m")
        store = kernel.store("a")
        for index in range(50):
            def write_and_flush(index=index):
                cabinet.put(f"entry-{index}", index)
                store.flush()
            kernel.loop.schedule(0.001 * index, write_and_flush)
        kernel.run(until=0.050)               # mid-burst: commits are landing
        assert kernel.stats.wal_commits > 0
        kernel.run(until=1.0)
        assert len(store.durable_state()["m"]) == 50
        assert store.is_durable(store.mutation_mark())


class TestBarrier:
    def test_barrier_piggybacks_on_the_group_commit_by_default(self):
        # A pending barrier must not sit out the commit window: the commit
        # fires immediately and the wait collapses to write + fsync.
        kernel = make_kernel(store_commit_window=0.5, costs={
            "fsync_latency": 0.1, "write_byte_latency": 0.0})
        kernel.make_durable("m", sites=["a"])
        kernel.site("a").cabinet("m").put("f", 1)
        barrier = kernel.store("a").barrier()
        assert barrier == pytest.approx(0.0002 + 0.1)
        assert kernel.stats.wal_barrier_piggybacks == 1
        kernel.run(until=barrier + 0.01)
        assert kernel.store("a").barrier() == 0.0
        assert kernel.stats.wal_commits == 1
        assert "f" in kernel.store("a").durable_state()["m"]

    def test_a_barrier_never_waits_on_the_commit_window(self):
        # The wait is the batched write + fsync whatever the window is.
        waits = []
        for window in (0.0, 0.5, 50.0):
            kernel = make_kernel(store_commit_window=window, costs={
                "fsync_latency": 0.1, "write_byte_latency": 0.0})
            kernel.make_durable("m", sites=["a"])
            kernel.site("a").cabinet("m").put("f", 1)
            waits.append(kernel.store("a").barrier())
            assert kernel.stats.wal_barrier_piggybacks == 1
            kernel.run(until=waits[-1] + 0.01)
            assert "f" in kernel.store("a").durable_state()["m"]
        assert waits == [pytest.approx(0.0002 + 0.1)] * 3

    def test_barrier_is_zero_with_nothing_pending(self):
        kernel = make_kernel()
        kernel.make_durable("m", sites=["a"])
        assert kernel.store("a").barrier() == 0.0

    def test_wait_until_durable_is_a_noop_under_policy_none(self):
        from repro.core.context import wait_until_durable
        kernel = make_kernel("none")
        seen = {}

        def probe(ctx, bc):
            seen["store"] = ctx.store
            seen["before"] = ctx.now
            yield from wait_until_durable(ctx)
            seen["after"] = ctx.now
            yield ctx.sleep(0)

        kernel.launch("a", probe)
        kernel.run()
        assert seen["store"] is None
        assert seen["after"] == seen["before"]


class TestBarrierMarks:
    def test_barrier_loops_until_the_marks_batch_is_really_durable(self):
        # The batch covering the caller's mark can grow after the barrier
        # is priced, pushing its fsync later than the estimate; the mark
        # API must keep reporting a positive wait until it truly committed.
        # The mark sits in the dirty tail behind an in-flight sync, so the
        # barrier can only queue the tail's commit for when the disk frees,
        # and the tail keeps growing until then.
        kernel = make_kernel(store_commit_window=0.5, costs={
            "write_latency": 0.1, "fsync_latency": 0.1})
        kernel.make_durable("m", sites=["a"])
        cabinet = kernel.site("a").cabinet("m")
        store = kernel.store("a")
        cabinet.put("first", 1)
        store.barrier()                       # its sync holds the disk until ~0.2
        cabinet.put("mine", 1)
        mark = store.mutation_mark()
        estimate = store.barrier(mark)        # priced for a 1-record tail
        # Five more folders join the tail before its commit fires.
        kernel.loop.schedule(0.1, lambda: [cabinet.put(f"other-{i}", i)
                                           for i in range(5)])
        kernel.run(until=estimate)
        assert not store.is_durable(mark)     # the estimate came up short
        assert store.barrier(mark) > 0        # ...and the loop knows it
        kernel.run(until=estimate + store.barrier(mark) + 0.01)
        assert store.is_durable(mark)
        assert store.barrier(mark) == 0.0

    def test_overlapping_commit_defers_instead_of_clobbering_the_sync(self):
        # write+fsync outlasting the commit window must not drop the
        # in-flight batch: the next commit waits for the disk.
        kernel = make_kernel(store_commit_window=0.05, costs={"fsync_latency": 1.0})
        kernel.make_durable("m", sites=["a"])
        cabinet = kernel.site("a").cabinet("m")
        cabinet.put("first", 1)               # commit @0.05, fsync done @~1.05
        kernel.loop.schedule(0.1, lambda: cabinet.put("second", 2))
        kernel.run(until=5.0)
        state = kernel.store("a").durable_state()["m"]
        assert "first" in state and "second" in state
        assert kernel.stats.wal_commits == 2  # two syncs, neither lost

    def test_crash_mid_sync_counts_the_inflight_folders_as_lost(self):
        kernel = make_kernel(store_commit_window=0.05, costs={"fsync_latency": 1.0})
        kernel.make_durable("m", sites=["a"])
        kernel.site("a").cabinet("m").put("doomed", 1)
        kernel.run(until=0.5)                 # commit fired, fsync pending
        kernel.crash_site("a")
        assert kernel.stats.state_lost_records == 1
        assert kernel.stats.state_lost_folders == 1   # the ledger agrees


class TestBytesProportionalCosts:
    def test_flush_cost_scales_with_payload_bytes(self):
        # Identical record counts, 100x the payload: the priced flush must
        # cost measurably more (write_byte_latency is the per-byte term).
        small = make_kernel("flush-on-demand", costs={"write_byte_latency": 1e-6})
        large = make_kernel("flush-on-demand", costs={"write_byte_latency": 1e-6})
        for kernel, payload in ((small, 100), (large, 10_000)):
            kernel.make_durable("m", sites=["a"])
            kernel.site("a").cabinet("m").put("f", b"\0" * payload)
        small_cost = small.store("a").flush()
        large_cost = large.store("a").flush()
        assert large_cost > small_cost
        # The difference is the byte term exactly: ~9900 extra bytes at
        # 1e-6 s/B (plus constant serialization overhead on both sides).
        assert large_cost - small_cost == pytest.approx(9_900 * 1e-6, rel=0.05)

    def test_byte_term_zeroed_restores_flat_per_record_pricing(self):
        kernel = make_kernel("flush-on-demand", costs={
            "write_byte_latency": 0.0, "write_latency": 0.0002, "fsync_latency": 0.004})
        kernel.make_durable("m", sites=["a"])
        kernel.site("a").cabinet("m").put("f", b"\0" * 50_000)
        assert kernel.store("a").flush() == pytest.approx(0.0002 + 0.004)

    def test_committed_bytes_are_ledgered(self):
        kernel = make_kernel(store_commit_window=0.05)
        kernel.make_durable("m", sites=["a"])
        kernel.site("a").cabinet("m").put("f", b"\0" * 1_000)
        kernel.run(until=1.0)
        assert kernel.stats.wal_bytes_committed >= 1_000
        assert kernel.store_summary()["wal_bytes_committed"] >= 1_000
        # The WAL itself can report its pending payload for compaction math.
        assert kernel.store("a").wal.bytes_pending >= 1_000


class TestStoreSummaryTelemetry:
    def test_piggybacks_surface_in_the_store_summary(self):
        kernel = make_kernel(store_commit_window=0.5)
        kernel.make_durable("m", sites=["a"])
        kernel.site("a").cabinet("m").put("f", 1)
        kernel.store("a").barrier()
        summary = kernel.store_summary()
        assert summary["wal_barrier_piggybacks"] == 1
        assert kernel.stats.snapshot()["wal_barrier_piggybacks"] == 1

    def test_a_barrier_that_moves_no_commit_counts_no_piggyback(self):
        # Behind an in-flight sync, the dirty tail's commit is already due
        # the moment the disk frees, so a barrier there accelerates nothing:
        # only the first barrier, which started the sync, is counted.
        kernel = make_kernel(store_commit_window=0.0, costs={"fsync_latency": 0.1})
        kernel.make_durable("m", sites=["a"])
        cabinet = kernel.site("a").cabinet("m")
        store = kernel.store("a")
        cabinet.put("first", 1)
        store.barrier()
        cabinet.put("second", 2)
        assert store.barrier() > 0.1
        assert kernel.stats.wal_barrier_piggybacks == 1
        kernel.run(until=1.0)
        assert {"first", "second"} <= set(store.durable_state()["m"])
        assert kernel.stats.wal_commits == 2


class TestSnapshotCompaction:
    def test_wal_folds_into_snapshot_past_threshold(self):
        kernel = make_kernel(store_commit_window=0.01,
                             costs={"snapshot_threshold": 5})
        kernel.make_durable("m", sites=["a"])
        cabinet = kernel.site("a").cabinet("m")
        for index in range(10):
            cabinet.put(f"folder-{index}", index)
            kernel.run(until=(index + 1) * 0.5)   # one commit per put
        store = kernel.store("a")
        assert kernel.stats.store_snapshots >= 1
        assert len(store.wal) <= 5
        # Compaction must not change the durable image.
        state = store.durable_state()["m"]
        assert len(state) == 10
        kernel.crash_site("a")
        kernel.recover_site("a")
        kernel.run(until=30.0)
        assert len(kernel.site("a").cabinet("m").names()) == 10

    def test_opt_in_captures_existing_contents(self):
        kernel = make_kernel()
        cabinet = kernel.site("a").cabinet("m")
        cabinet.put("pre", "existing")
        kernel.make_durable("m", sites=["a"])
        assert kernel.store("a").durable_state()["m"]["pre"]
        kernel.crash_site("a")
        kernel.recover_site("a")
        kernel.run(until=5.0)
        assert kernel.site("a").cabinet("m").elements("pre") == ["existing"]


class TestConstructionSites:
    def test_every_construction_site_gets_a_store(self):
        kernel = make_kernel()
        assert sorted(kernel.stores) == sorted(kernel.topology.sites())
        kernel.make_durable("m", sites=["c"])
        kernel.site("c").cabinet("m").put("f", 1)
        kernel.run(until=1.0)
        assert "f" in kernel.store("c").durable_state()["m"]
