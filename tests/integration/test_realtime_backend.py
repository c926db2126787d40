"""Sim-vs-realtime parity and realtime durability semantics.

The tentpole claim of the backend seam: ``KernelConfig(backend="realtime")``
runs the identical kernel/transport/store stack on wall clock with the
same *logical* outcomes as the deterministic sim run — completions,
deliveries, ledger counters — while the *times* become real (and thus
unasserted beyond generous wall bounds).  Workloads here are scaled down
so each realtime run sleeps well under a second of real time.
"""

from __future__ import annotations

import os

import pytest

from repro.core import Kernel, KernelConfig
from repro.core.errors import KernelError
from repro.net import lan
from repro.rt import read_wal_file
from scenarios import MAIL_CABINET, agent_churn, courier_fan_in

pytestmark = pytest.mark.realtime

#: generous: a scaled-down workload's horizon is ~0.1 s; CI boxes stall
WALL_TOLERANCE_SECONDS = 20.0


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_unknown_backend_rejected():
    with pytest.raises(KernelError, match="unknown backend"):
        Kernel(lan(["a"]), config=KernelConfig(backend="warp"))


def test_realtime_requires_single_shard():
    with pytest.raises(KernelError, match="requires shards=1"):
        Kernel(lan(["a", "b"]),
               config=KernelConfig(backend="realtime", shards=2))


def test_realtime_rejects_process_shard_backend():
    with pytest.raises(KernelError, match="shard_backend='process'"):
        Kernel(lan(["a"]), config=KernelConfig(backend="realtime",
                                               shard_backend="process"))


def test_store_realtime_dir_requires_realtime(tmp_path):
    with pytest.raises(KernelError, match="store_realtime_dir"):
        Kernel(lan(["a"]), config=KernelConfig(
            durability="wal-group-commit",
            store_realtime_dir=str(tmp_path)))


# ---------------------------------------------------------------------------
# parity: courier fan-in
# ---------------------------------------------------------------------------


def folders_at_hub(kernel) -> int:
    return len(kernel.site("hub").cabinet(MAIL_CABINET).elements("received"))


def test_courier_fan_in_parity():
    shape = dict(n_senders=3, deliveries_per_sender=3, payload_bytes=64,
                 link_latency=0.002)
    sim, sim_events, _ = courier_fan_in(backend="sim", **shape)
    realtime, events, wall = courier_fan_in(backend="realtime", **shape)

    assert folders_at_hub(sim) == 9  # pin the workload itself
    assert folders_at_hub(realtime) == folders_at_hub(sim)
    assert realtime.stats.messages_sent == sim.stats.messages_sent
    assert realtime.stats.bytes_sent == sim.stats.bytes_sent
    assert events == sim_events
    assert realtime.counters() == sim.counters()
    assert realtime.counters()["undeliverable"] == 0
    # The realtime run really slept ~ the workload horizon, bounded for CI.
    assert wall >= 0.5 * sim.now
    assert wall < WALL_TOLERANCE_SECONDS


def test_fan_in_with_batching_parity():
    # The delivery fabric's flush windows are scheduler events too: the
    # realtime backend must coalesce exactly like the sim backend.
    shape = dict(n_senders=3, deliveries_per_sender=4, payload_bytes=64,
                 link_latency=0.002, batch_window=0.01)
    sim, _, _ = courier_fan_in(backend="sim", **shape)
    realtime, _, wall = courier_fan_in(backend="realtime", **shape)
    assert folders_at_hub(realtime) == folders_at_hub(sim) == 12
    assert realtime.counters() == sim.counters()
    assert realtime.stats.batches > 0  # batching actually engaged
    assert wall < WALL_TOLERANCE_SECONDS


# ---------------------------------------------------------------------------
# parity: seeded churn
# ---------------------------------------------------------------------------


def test_agent_churn_parity():
    shape = dict(n_sites=3, n_agents=24, wave_size=8, work_seconds=0.002,
                 ballast_bytes=64, retention="keep-results", seed=19)
    sim, sim_waves = agent_churn(backend="sim", **shape)
    realtime, waves = agent_churn(backend="realtime", **shape)

    assert sim.completed == sim.launched == 24
    assert realtime.launched == sim.launched
    assert realtime.completed == sim.completed
    assert len(realtime.table) == len(sim.table)
    assert realtime.table.ledger_entry_kinds() == sim.table.ledger_entry_kinds()
    assert realtime.table.evicted == sim.table.evicted
    # Same ledger trajectory wave by wave, not just at the end.
    assert waves == sim_waves


# ---------------------------------------------------------------------------
# realtime WAL on real files: fsync mirror + crash-discard
# ---------------------------------------------------------------------------


def _realtime_store_kernel(tmp_path) -> Kernel:
    return Kernel(lan(["a", "b"]), config=KernelConfig(
        backend="realtime", durability="wal-group-commit",
        store_commit_window=0.02, store_realtime_dir=str(tmp_path)),
        install_system_agents=False)


def test_realtime_wal_commits_reach_the_file(tmp_path):
    with _realtime_store_kernel(tmp_path) as kernel:
        kernel.make_durable("ledger")
        kernel.site("a").cabinet("ledger").put("f1", {"v": 1})
        kernel.run(until=kernel.now + 0.2)  # ride out commit + fsync

        sink = kernel.store("a").sink
        assert sink.commits >= 1
        assert sink.records_written >= 1
        records = read_wal_file(os.path.join(str(tmp_path), "a.wal"))
        assert [(r.cabinet, r.folder) for r in records] == [("ledger", "f1")]
        # The file mirrors the logical WAL exactly.
        assert len(records) == kernel.store("a").wal.total_committed
        # Site b never mutated: its file exists (sink opened) but is empty.
        assert read_wal_file(os.path.join(str(tmp_path), "b.wal")) == []


def test_realtime_wal_crash_discards_unsynced_state(tmp_path):
    with _realtime_store_kernel(tmp_path) as kernel:
        kernel.make_durable("ledger")
        kernel.site("a").cabinet("ledger").put("f1", {"v": 1})
        kernel.run(until=kernel.now + 0.2)
        # Mutate again and crash before the 20 ms commit window elapses:
        # the batch never reaches _finalize, so it never reaches the file.
        kernel.site("a").cabinet("ledger").put("f2", {"v": 2})
        kernel.crash_site("a")
        kernel.run(until=kernel.now + 0.1)

        folders = [r.folder for r in
                   read_wal_file(os.path.join(str(tmp_path), "a.wal"))]
        assert folders == ["f1"]  # the un-fsynced f2 batch was discarded
    # close() released the file handles (idempotent close covered too)
    assert kernel.store("a").sink._handle is None
    kernel.close()
