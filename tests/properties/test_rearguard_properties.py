"""Property-based tests for the rear guards.

The headline fault-tolerance invariant: whatever single intermediate site
crashes, and whenever it crashes during the run, a rear-guard-protected
computation whose origin and delivery sites stay up completes **exactly
once** — never zero times, never twice.

And what relaunching costs: on crash-only schedules a hop runs again only
after a crash of a site that ran it or an earlier hop of the computation.

And the read side of the ``rearguard`` cabinet: the incrementally folded
release/ack marks and the byte-level checkpoint pruner agree with a full
scan of the stored elements after any interleaving of cabinet operations.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Briefcase, FileCabinet, Folder, Kernel, KernelConfig
from repro.fault import (CHECKPOINTS_FOLDER, REARGUARD_CABINET, completions,
                         launch_ft_computation, prune_released_checkpoints)
from repro.fault.rearguard import _relaunch_acked, _released
from repro.fault.recovery import record_checkpoint
from repro.net import FailureSchedule, lan, ring
from repro.store.snapshot import capture_cabinet, restore_cabinet

SITES = [f"s{i}" for i in range(6)]


@given(victim=st.sampled_from(SITES[1:-1]),
       crash_at=st.floats(min_value=0.01, max_value=2.5),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_single_intermediate_crash_still_completes_exactly_once(victim, crash_at, seed):
    kernel = Kernel(ring(SITES), transport="tcp", config=KernelConfig(rng_seed=seed))
    for index, name in enumerate(SITES):
        kernel.site(name).cabinet("data").put("VALUE", index)

    ft_id = launch_ft_computation(kernel, SITES[0], SITES[1:], per_hop=0.3,
                                  max_relaunches=4)
    FailureSchedule().crash(victim, at=crash_at).recover(victim, at=300.0).install(kernel)
    kernel.run(until=400.0)

    records = completions(kernel, SITES[-1], ft_id)
    assert len(records) == 1, (
        f"expected exactly one completion with {victim} crashing at {crash_at}, "
        f"got {len(records)}")
    # The delivery site's own hop is always present.
    visited = [entry["site"] for entry in records[0]["results"]]
    assert visited[0] == SITES[0]
    assert visited[-1] == SITES[-1]


def unexplained_repeats(event_log, ft_id):
    """Repeated ``hop-exec`` lines of *ft_id* that no earlier crash accounts for.

    A repeat of hop N is accounted for once a site that ran hop N, or an
    earlier one, has crashed since: the crash took that site's done-markers
    (a twin runs the hop there again) or its place in the chain (a twin that
    skips the crashed site counts one hop fewer, so every hop after it is a
    repeat).  A guard revived from a durable checkpoint is such a case: its
    site ran the hop before the one it protects, then crashed.
    """
    lowest_run = {}             # site -> the lowest hop it ran
    lowest_lost = math.inf      # the lowest hop run at a site that crashed since
    ran, unexplained = set(), []
    for at, _agent, site, message in event_log:
        if message.startswith("site crashed"):
            lowest_lost = min(lowest_lost, lowest_run.get(site, math.inf))
        elif message.startswith(f"hop-exec {ft_id} seq="):
            seq = int(message.rsplit("=", 1)[1])
            if seq in ran and lowest_lost > seq:
                unexplained.append((at, site, seq))
            ran.add(seq)
            lowest_run[site] = min(seq, lowest_run.get(site, math.inf))
    return unexplained


LINE = ["h", "s1", "s2", "s3", "s4", "d"]
#: (site, crash time, recovery delay): the guard timeout at per_hop=0.5 is 3 s
crash_specs = st.tuples(st.sampled_from(LINE[1:-1]), st.floats(min_value=0.0, max_value=4.0),
                        st.floats(min_value=3.5, max_value=10.0))


@given(crashes=st.lists(crash_specs, min_size=1, max_size=2, unique_by=lambda spec: spec[0]),
       policy=st.sampled_from(["none", "wal-group-commit"]),
       seed=st.integers(min_value=0, max_value=10_000))
# Two sites down before the computation reaches them: the first relaunch
# skips s2, and a relaunch back to s2 once it is up ran hops 2-4 again.
@example(crashes=[("s2", 0.2, 6.0), ("s4", 0.2, 6.0)], policy="none", seed=5)
@settings(max_examples=12, deadline=None)
def test_a_hop_runs_twice_only_after_a_crash_behind_it(crashes, policy, seed):
    # Partitions are left out: with a timeout detector they can fork a
    # chain with no site forgetting anything.
    kernel = Kernel(lan(LINE), transport="tcp",
                    config=KernelConfig(rng_seed=seed, durability=policy,
                                        store_commit_window=0.05))
    ft_id = launch_ft_computation(kernel, LINE[0], LINE[1:], per_hop=0.5,
                                  work_seconds=0.25, max_relaunches=4,
                                  durable_checkpoints=True)
    schedule = FailureSchedule()
    for site, crash_at, delay in crashes:
        schedule.crash(site, at=crash_at).recover(site, at=crash_at + delay)
    schedule.install(kernel)
    kernel.run(until=60.0)
    assert len(completions(kernel, LINE[-1], ft_id)) <= 1
    assert unexplained_repeats(kernel.event_log, ft_id) == []


# ---------------------------------------------------------------------------
# The rearguard cabinet's read side is derived state (folded on read, kept in
# FileCabinet.derived): whatever is done to the cabinet, it must answer what
# a full scan of the stored bytes answers.  The full-scan bodies below are
# the reference implementations; src/ no longer has them.
# ---------------------------------------------------------------------------

FT_IDS = ["ft-a", "ft-b", "ft-c"]
NOTICE_FOLDERS = ["releases", "relaunch_acks"]
SNAPSHOT_WIRE = Briefcase([Folder("PAYLOAD", [b"x" * 64, "text", {"k": 1}])]).to_wire()


def scan_released(cabinet, ft_id, protects_seq):
    for notice in cabinet.elements("releases"):
        if not isinstance(notice, dict) or "ft_id" not in notice:
            continue
        if notice["ft_id"] != ft_id:
            continue
        if notice.get("done"):
            return True
        if int(notice.get("reached_seq", -1)) >= protects_seq + 1:
            return True
    return False


def scan_relaunch_acked(cabinet, ft_id, protects_seq, since):
    for notice in cabinet.elements("relaunch_acks"):
        if not isinstance(notice, dict) or "ft_id" not in notice:
            continue
        if notice["ft_id"] != ft_id:
            continue
        if (int(notice.get("seq", -1)) >= protects_seq
                and float(notice.get("at", 0.0)) >= since):
            return True
    return False


def scan_prune(cabinet):
    """(survivors' stored bytes, the folder a decode-all/re-encode prune leaves)."""
    stored = (cabinet.folder(CHECKPOINTS_FOLDER).raw_elements()
              if cabinet.has(CHECKPOINTS_FOLDER) else [])
    checkpoints = cabinet.elements(CHECKPOINTS_FOLDER)
    keep = [not (isinstance(checkpoint, dict) and "ft_id" in checkpoint
                 and scan_released(cabinet, checkpoint["ft_id"],
                                   int(checkpoint.get("protects_seq", 0))))
            for checkpoint in checkpoints]
    survivors = [element for element, kept in zip(stored, keep) if kept]
    reencoded = Folder(CHECKPOINTS_FOLDER, [checkpoint for checkpoint, kept
                                            in zip(checkpoints, keep) if kept])
    return survivors, reencoded.raw_elements()


seqs = st.integers(min_value=-2, max_value=7)
malformed = st.one_of(st.none(), st.text(max_size=4), st.integers(),
                      st.just({"reached_seq": 9, "done": True}),   # names no ft_id
                      st.just([{"ft_id": "ft-a", "done": True}]))
release_notices = st.one_of(
    malformed,
    st.fixed_dictionaries(
        {"ft_id": st.sampled_from(FT_IDS)},
        optional={"reached_seq": st.one_of(seqs, seqs.map(str), seqs.map(float)),
                  "done": st.sampled_from([True, False, 0, 1, None]),
                  "released_seqs": st.lists(seqs, max_size=2)}))
ack_notices = st.one_of(
    malformed,
    st.fixed_dictionaries(
        {"ft_id": st.sampled_from(FT_IDS)},
        optional={"seq": st.one_of(seqs, seqs.map(str)),
                  "at": st.one_of(st.floats(min_value=0.0, max_value=4.0),
                                  st.integers(min_value=0, max_value=4)),
                  "ack": st.just(True)}))
steps = st.one_of(
    st.tuples(st.just("release"), release_notices),
    st.tuples(st.just("ack"), ack_notices),
    st.tuples(st.just("checkpoint"), st.sampled_from(FT_IDS), seqs),
    st.tuples(st.just("junk-checkpoint"), malformed),
    st.tuples(st.just("prune")),
    st.tuples(st.just("rewrite"), st.sampled_from(NOTICE_FOLDERS + [CHECKPOINTS_FOLDER])),
    st.tuples(st.just("remove"), st.sampled_from(NOTICE_FOLDERS + [CHECKPOINTS_FOLDER])),
    st.tuples(st.just("drop-newest"), st.sampled_from(NOTICE_FOLDERS)),
    st.tuples(st.just("restore")),
)


def apply_step(cabinet, step):
    kind = step[0]
    if kind == "release":
        cabinet.put("releases", step[1])
    elif kind == "ack":
        cabinet.put("relaunch_acks", step[1])
    elif kind == "checkpoint":
        record_checkpoint(cabinet, step[1], step[2], SNAPSHOT_WIRE, 0.5, 2)
    elif kind == "junk-checkpoint":
        cabinet.put(CHECKPOINTS_FOLDER, step[1])
    elif kind == "prune":
        survivors, reencoded = scan_prune(cabinet)
        before = len(cabinet.elements(CHECKPOINTS_FOLDER))
        assert prune_released_checkpoints(cabinet) == before - len(survivors)
        after = (cabinet.folder(CHECKPOINTS_FOLDER).raw_elements()
                 if cabinet.has(CHECKPOINTS_FOLDER) else [])
        assert after == survivors == reencoded
    elif kind == "rewrite":
        # The same bytes again, written as a whole folder.
        if cabinet.has(step[1]):
            stored = cabinet.folder(step[1]).raw_elements()
            cabinet.add(Folder.from_stored(step[1], stored), replace=True)
    elif kind == "remove":
        if cabinet.has(step[1]):
            cabinet.remove(step[1])
    elif kind == "drop-newest":
        # A shrinking edit breaks "only grew": rewrite without the newest.
        if cabinet.has(step[1]) and cabinet.folder(step[1]):
            stored = cabinet.folder(step[1]).raw_elements()[:-1]
            cabinet.add(Folder.from_stored(step[1], stored), replace=True)
    elif kind == "restore":
        # What crash recovery does: clear, then re-add byte-exact folders.
        image = capture_cabinet(cabinet)
        restore_cabinet(cabinet, image)
        assert capture_cabinet(cabinet) == image


@given(st.lists(steps, min_size=5, max_size=40))
@settings(max_examples=150, deadline=None)
def test_rearguard_reads_match_a_full_scan_after_every_step(script):
    cabinet = FileCabinet(REARGUARD_CABINET)
    for step in script:
        apply_step(cabinet, step)
        for ft_id in FT_IDS:
            for protects_seq in range(-3, 8):
                assert (_released(cabinet, ft_id, protects_seq)
                        == scan_released(cabinet, ft_id, protects_seq)), (step, ft_id)
                for since in (0.0, 1.5, 4.0):
                    assert (_relaunch_acked(cabinet, ft_id, protects_seq, since)
                            == scan_relaunch_acked(cabinet, ft_id, protects_seq, since))
    survivors, _ = scan_prune(cabinet)
    prune_released_checkpoints(cabinet)
    assert (cabinet.folder(CHECKPOINTS_FOLDER).raw_elements()
            if cabinet.has(CHECKPOINTS_FOLDER) else []) == survivors
