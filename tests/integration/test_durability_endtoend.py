"""End-to-end durability: store interleavings, checkpointed guards, ack/retry.

These are the failure-schedule interleavings the durable store must get
right, driven through the public kernel API:

* a crash landing inside an armed group-commit window (the batch dies);
* recover-then-crash before the replay completes (the replay aborts, a
  later recovery still restores the durable image);
* a partitioned guard site whose checkpoints keep committing locally;
* the coordinated loss that defeats plain rear guards (agent host and
  every guard site crash together) — durable checkpoints + revival
  recover it, policy "none" loses it;
* an ``ft-relaunch`` envelope dropped by a partition mid-batch — the
  guard's next timeout re-sends without burning its relaunch budget.

And the two numbers that justify the store at all: what permanence costs
when nothing fails, and what it saves when every intermediate site goes
down together (``TestPriceAndPayoff``).
"""

from __future__ import annotations

import pytest

from repro.core import Briefcase, Kernel, KernelConfig
from repro.fault import (CHECKPOINTS_FOLDER, REARGUARD_CABINET, completions,
                         guard_snapshot, launch_ft_computation, rear_guard_behaviour)
from repro.fault.rearguard import _released
from repro.fault.recovery import (REVIVED_FOLDER, install_checkpoint_recovery,
                                  record_checkpoint)
from repro.net import FailureSchedule, RandomCrasher, lan

SITES = ["h", "s1", "s2", "d"]
HOME, DELIVERY = "h", "d"
ITINERARY = ["s1", "s2", "d"]


def make_kernel(durability="wal-group-commit", batch_window=0.0, seed=5):
    config = KernelConfig(
        rng_seed=seed,
        durability=durability,
        store_commit_window=0.05,
        delivery_batch_window=batch_window,
    )
    return Kernel(lan(SITES), transport="tcp", config=config)


def hop_time(kernel, ft_id, seq):
    """When the computation executed hop *seq* (from the kernel event log)."""
    needle = f"hop-exec {ft_id} seq={seq}"
    for at, _agent, _site, message in kernel.event_log:
        if message == needle:
            return at
    raise AssertionError(f"hop {seq} of {ft_id} never executed")


def run_protected(durability, schedule_builder=None, work_seconds=1.0,
                  per_hop=3.0, max_relaunches=3, until=120.0, batch_window=0.0):
    """One protected computation over the 4-site LAN, with optional failures.

    ``schedule_builder(kernel, ft_id)`` is called after a dry run of the
    same configuration discovered the hop timings, so schedules can place
    crashes relative to where the computation actually is.
    """
    kernel = make_kernel(durability, batch_window=batch_window)
    ft_id = launch_ft_computation(
        kernel, HOME, ITINERARY, per_hop=per_hop, work_seconds=work_seconds,
        max_relaunches=max_relaunches, durable_checkpoints=True)
    if schedule_builder is not None:
        schedule_builder(kernel, ft_id)
    kernel.run(until=until)
    return kernel, ft_id


class TestCommitWindowInterleavings:
    def test_crash_during_armed_group_commit_loses_the_batch(self):
        """A crash inside the commit window discards the armed batch, while
        everything committed before it survives recovery."""
        kernel = make_kernel()
        kernel.make_durable("ledger", sites=["s1"])
        cabinet = kernel.site("s1").cabinet("ledger")
        cabinet.put("entries", "committed")
        kernel.run(until=1.0)                      # first batch commits
        cabinet.put("entries", "doomed")           # arms a new commit at +0.05
        FailureSchedule().crash("s1", at=1.02).install(kernel)
        kernel.run(until=1.1)                      # crash fires inside the window
        assert kernel.stats.state_lost_records >= 1
        kernel.recover_site("s1")
        kernel.run(until=10.0)
        assert kernel.site("s1").cabinet("ledger").elements("entries") == ["committed"]

    def test_crash_during_fsync_loses_the_inflight_batch(self):
        """Even after the commit event fired, the batch is volatile until
        its write+fsync completes."""
        from repro.store import StoreCosts
        kernel = make_kernel()
        # A long, visible fsync on the site under test.
        kernel.stores["s1"].costs = StoreCosts(fsync_latency=0.5,
                                               commit_window=0.05)
        kernel.make_durable("ledger", sites=["s1"])
        kernel.site("s1").cabinet("ledger").put("entries", "syncing")
        # Commit fires at 0.05; the fsync completes at 0.55.  Crash between.
        FailureSchedule().crash("s1", at=0.3).install(kernel)
        kernel.run(until=2.0)
        assert kernel.stats.state_lost_records >= 1
        kernel.recover_site("s1")
        kernel.run(until=10.0)
        assert kernel.site("s1").cabinet("ledger").elements("entries") == []

    def test_recover_then_crash_before_replay_completes(self):
        """A crash mid-replay aborts the recovery; the durable image is
        unharmed and a later recovery restores it in full."""
        from repro.store import StoreCosts
        kernel = make_kernel()
        # A slow replay so a second crash can land inside it.
        kernel.stores["s1"].costs = StoreCosts(recovery_base=5.0,
                                               commit_window=0.05)
        kernel.make_durable("ledger", sites=["s1"])
        kernel.site("s1").cabinet("ledger").put("entries", "precious")
        kernel.run(until=1.0)
        (FailureSchedule()
            .crash("s1", at=2.0)
            .recover("s1", at=3.0)       # begins a >= 5s replay
            .crash("s1", at=5.0)         # crashes again mid-replay
            .recover("s1", at=20.0)      # second recovery, this one completes
         ).install(kernel)
        kernel.run(until=18.0)
        assert not kernel.site("s1").alive     # first replay was aborted
        kernel.run(until=40.0)
        assert kernel.site("s1").alive
        assert kernel.site("s1").cabinet("ledger").elements("entries") == ["precious"]
        assert kernel.stats.recoveries == 1    # only the completed replay counts


class TestCheckpointedGuards:
    def test_coordinated_loss_is_unrecoverable_without_durability(self):
        """Crash the agent's host and every guard site at once: with policy
        "none" the computation is gone for good."""
        dry_kernel, dry_id = run_protected("none")
        assert len(completions(dry_kernel, DELIVERY, dry_id)) == 1
        strike_at = hop_time(dry_kernel, dry_id, 2) + 0.4   # mid-work at s2

        def schedule(kernel, ft_id):
            schedule = FailureSchedule()
            for site in ("h", "s1", "s2"):     # host + both guard sites
                schedule.crash(site, at=strike_at)
                schedule.recover(site, at=strike_at + 5.0)
            schedule.install(kernel)

        kernel, ft_id = run_protected("none", schedule)
        assert completions(kernel, DELIVERY, ft_id) == []

    def test_durable_checkpoints_revive_and_complete(self):
        """The same coordinated loss with wal-group-commit: the recovered
        sites revive guards from durable checkpoints and the computation
        completes exactly once."""
        dry_kernel, dry_id = run_protected("wal-group-commit")
        assert len(completions(dry_kernel, DELIVERY, dry_id)) == 1
        strike_at = hop_time(dry_kernel, dry_id, 2) + 0.4

        def schedule(kernel, ft_id):
            schedule = FailureSchedule()
            for site in ("h", "s1", "s2"):
                schedule.crash(site, at=strike_at)
                schedule.recover(site, at=strike_at + 5.0)
            schedule.install(kernel)

        kernel, ft_id = run_protected("wal-group-commit", schedule, until=240.0)
        records = completions(kernel, DELIVERY, ft_id)
        assert len(records) == 1               # exactly once, via revival
        assert kernel.stats.recoveries == 3
        revivals = [entry for entry in kernel.event_log
                    if "revived rear guard" in entry[3]]
        assert revivals
        # Zero durable folders were lost: everything restored came back.
        assert kernel.stats.durable_folders_restored > 0

    @pytest.mark.parametrize("durability, crash_points", [
        ("wal-group-commit", range(70, 84)), ("flush-on-demand", range(56, 71))],
        ids=["wal-group-commit", "flush-on-demand"])
    def test_a_delivery_crash_in_the_completion_commit_window_loses_nothing(
            self, durability, crash_points):
        """The delivery site crashes after event n, while the completion
        record may still be uncommitted, and recovers 2 s later.  The final
        hop waits for the record to be durable before its done release
        retires the guards, so the computation completes exactly once at
        every such n."""
        for n in crash_points:
            kernel = make_kernel(durability)
            ft_id = launch_ft_computation(
                kernel, HOME, ITINERARY, per_hop=3.0, work_seconds=1.0,
                max_relaunches=3, durable_checkpoints=True)
            kernel.run(max_events=n)
            kernel.crash_site(DELIVERY)
            FailureSchedule().recover(DELIVERY, at=kernel.now + 2.0).install(kernel)
            kernel.run(until=240.0)
            assert len(completions(kernel, DELIVERY, ft_id)) == 1, f"crash after event {n}"

    def test_revival_survives_a_second_crash_of_the_same_site(self):
        """A second crash killing the revived guard must not end protection:
        the next recovery revives again (liveness decides, not a durable
        marker)."""
        dry_kernel, dry_id = run_protected("wal-group-commit")
        strike_at = hop_time(dry_kernel, dry_id, 2) + 0.4

        def schedule(kernel, ft_id):
            schedule = FailureSchedule()
            for site in ("h", "s1", "s2"):
                schedule.crash(site, at=strike_at)
                schedule.recover(site, at=strike_at + 5.0)
                # Crash everything again right after revival, before any
                # revived guard's timeout (per_hop=3.0 -> deadline 6s) can
                # fire, then recover once more.
                schedule.crash(site, at=strike_at + 5.5)
                schedule.recover(site, at=strike_at + 12.0)
            schedule.install(kernel)

        kernel, ft_id = run_protected("wal-group-commit", schedule, until=300.0)
        records = completions(kernel, DELIVERY, ft_id)
        assert len(records) == 1
        revivals = [entry for entry in kernel.event_log
                    if "revived rear guard" in entry[3]]
        # At least one checkpoint was revived on both recovery rounds.
        assert len(revivals) >= 2

    def test_recovered_site_reads_releases_from_the_restored_bytes(self):
        """The release marks guards poll are derived state, never journaled:
        a recovered site re-derives them from what the store restored.  A
        release that was durable before the crash still retires its
        checkpoint (no revival, and a fresh guard sees it); one that died
        in the commit window is gone, so its checkpoint is revived."""
        kernel = make_kernel()
        install_checkpoint_recovery(kernel)
        cabinet = kernel.site("s1").cabinet(REARGUARD_CABINET)
        wire = Briefcase().to_wire()
        record_checkpoint(cabinet, "ft-kept", 2, wire, 3.0, 2)
        record_checkpoint(cabinet, "ft-lost", 2, wire, 3.0, 2)
        cabinet.put("releases", {"ft_id": "ft-kept", "reached_seq": 3, "done": False})
        kernel.run(until=1.0)                  # the group commit lands
        assert kernel.store("s1").dirty_count == 0
        cabinet.put("releases", {"ft_id": "ft-lost", "reached_seq": 3, "done": False})
        # Both marks are folded in memory when the site goes down.
        assert _released(cabinet, "ft-kept", 2) and _released(cabinet, "ft-lost", 2)

        kernel.crash_site("s1")                # inside ft-lost's commit window
        assert not _released(cabinet, "ft-kept", 2)      # volatile state is gone
        kernel.recover_site("s1")
        kernel.run(until=kernel.now + 5.0)     # replay completes; revival sweep runs
        assert kernel.stats.recoveries == 1

        cabinet = kernel.site("s1").cabinet(REARGUARD_CABINET)
        assert _released(cabinet, "ft-kept", 2)
        assert not _released(cabinet, "ft-lost", 2)
        assert cabinet.elements(REVIVED_FOLDER) == ["ft-lost:2"]
        guard = kernel.launch("s1", rear_guard_behaviour,
                              guard_snapshot("ft-kept", 2, wire, 3.0), name="late-guard")
        kernel.run(until=kernel.now + 1.0)
        assert kernel.result_of(guard) == "released"

    def test_partitioned_guard_site_keeps_checkpointing(self):
        """A partition cannot stop local durability: the isolated guard
        site's checkpoints commit, survive a crash, and revive."""
        dry_kernel, dry_id = run_protected("wal-group-commit")
        arrive_d = hop_time(dry_kernel, dry_id, 2)   # wal arm reaches s2 here

        def schedule(kernel, ft_id):
            # Isolate s1 after the computation has left it (its checkpoint
            # for hop 2 is committed locally), then crash and recover it
            # while still partitioned, and only heal much later.
            (FailureSchedule()
                .partition([["s1"], ["h", "s2", "d"]], at=arrive_d + 0.2)
                .crash("s1", at=arrive_d + 2.0)
                .recover("s1", at=arrive_d + 4.0)
                .heal(at=arrive_d + 30.0)
             ).install(kernel)

        kernel, ft_id = run_protected("wal-group-commit", schedule, until=300.0)
        records = completions(kernel, DELIVERY, ft_id)
        assert len(records) == 1               # delivery-site dedup holds
        # The isolated site's durable state survived partition + crash.
        state = kernel.store("s1").durable_state().get(REARGUARD_CABINET, {})
        assert CHECKPOINTS_FOLDER in state
        revivals = [entry for entry in kernel.event_log
                    if "revived rear guard" in entry[3] and entry[2] == "s1"]
        assert revivals


def run_outage_sweep(policy, outage, n_computations=4, seed=11):
    """Staggered protected computations over an 8-site LAN under *policy*.

    With *outage*, every intermediate site crashes once inside a 0.2 s
    window while the computations are mid-itinerary and recovers 6 s later
    — the correlated loss plain rear guards cannot cover.  Under ``"none"``
    nothing durable remembers a lost computation, so the harness does what
    an operator would: re-run it from the origin under a fresh id, up to
    three rounds.  Returns the outcome per logical computation.
    """
    sites = [f"n{i}" for i in range(8)]
    home, delivery = sites[0], sites[-1]
    kernel = Kernel(lan(sites), transport="tcp",
                    config=KernelConfig(rng_seed=seed, durability=policy,
                                        store_commit_window=0.05))
    for index, name in enumerate(sites):
        kernel.site(name).cabinet("data").put("VALUE", index)

    def launch(ft_id, delay=0.0):
        launch_ft_computation(kernel, home, sites[1:], ft_id=ft_id, per_hop=0.5,
                              max_relaunches=4, work_seconds=0.25, delay=delay,
                              durable_checkpoints=policy != "none")

    def base_of(ft_id):
        return str(ft_id).split("/retry-")[0]

    bases = [f"sweep-{index}" for index in range(n_computations)]
    for index, base in enumerate(bases):
        launch(base, delay=0.05 * index)
    if outage:
        RandomCrasher(1.0, window=(1.2, 1.4), recover_after=6.0,
                      protect=[home, delivery], seed=seed).install(kernel)
    kernel.run(until=40.0)
    restarts = 0
    for round_number in (1, 2, 3):
        if policy == "none":
            done = {base_of(record["ft_id"])
                    for record in completions(kernel, delivery)}
            for base in bases:
                if base not in done:
                    launch(f"{base}/retry-{round_number}")
                    restarts += 1
        kernel.run(until=40.0 + 20.0 * round_number)

    records = completions(kernel, delivery)
    per_base = [sum(1 for record in records if base_of(record["ft_id"]) == base)
                for base in bases]
    # Work redone: every execution of a hop past the first, per computation.
    executed = [message.split(" ")[1:] for _at, _agent, _site, message
                in kernel.event_log if message.startswith("hop-exec ")]
    hops = [(base_of(ft_id), seq) for ft_id, seq in executed]
    return {"completions": per_base, "restarts": restarts,
            "re_executed": len(hops) - len(set(hops)),
            "finished_at": max(record["completed_at"] for record in records),
            "store": kernel.store_summary()}


class TestPriceAndPayoff:
    def test_durable_policies_pay_simulated_time_when_nothing_fails(self):
        """Permanence is not free: group commits, fsyncs and checkpoint
        barriers make the same itinerary finish later than under "none"."""
        outcomes = {policy: run_outage_sweep(policy, outage=False)
                    for policy in ("none", "flush-on-demand", "wal-group-commit")}
        for policy, outcome in outcomes.items():
            assert outcome["completions"] == [1, 1, 1, 1], policy
        for policy in ("flush-on-demand", "wal-group-commit"):
            assert outcomes[policy]["finished_at"] > outcomes["none"]["finished_at"]
            assert outcomes[policy]["store"]["wal_commits"] > 0, policy

    def test_checkpoints_redo_less_work_than_origin_restarts(self):
        """Same seeded outage, two recoveries: "none" re-runs lost
        itineraries from the origin, wal-group-commit revives guards from
        durable checkpoints and resumes — every computation exactly once,
        fewer hops executed twice, no durable folder lost."""
        plain = run_outage_sweep("none", outage=True)
        durable = run_outage_sweep("wal-group-commit", outage=True)
        assert plain["restarts"] > 0          # the outage really lost some
        assert all(count >= 1 for count in plain["completions"])
        assert durable["restarts"] == 0
        assert durable["completions"] == [1, 1, 1, 1]
        assert durable["re_executed"] < plain["re_executed"]
        store = durable["store"]
        assert store["state_lost_folders"] > 0     # volatile state did die
        assert store["recoveries"] > 0
        assert store["recovery_seconds"] > 0
        assert store["durable_folders_lost"] == 0


class TestTwinAbsorption:
    def test_spurious_twin_does_not_chase_a_live_original(self):
        """A guard false-firing against a slow-but-alive original (deadline
        far shorter than the hop time, zero failures) must not start a
        duplicate chain: the twin lands in the same crash epoch and is
        absorbed, so no hop executes twice."""
        kernel, ft_id = run_protected("none", per_hop=0.05, work_seconds=1.0,
                                      max_relaunches=2, until=600.0)
        assert len(completions(kernel, DELIVERY, ft_id)) == 1
        executions = [message for _at, _agent, _site, message in kernel.event_log
                      if message.startswith(f"hop-exec {ft_id} ")]
        assert len(executions) == len(set(executions)), executions

    @pytest.mark.parametrize("policy", ["none", "wal-group-commit"])
    def test_a_skip_ahead_relaunch_does_not_restart_the_chain(self, policy):
        """s2 and s4 go down before the computation reaches them: the guard
        at s1 skips s2 and its twin runs hop 2 at s3.  s2 is back up at the
        guard's later timeouts, but a skip sticks -- the next relaunch goes
        to s3 again, where the hop already ran and departed, and is
        absorbed.  No hop executes twice (re-shipping to s2 ran hops 2-4 a
        second time there)."""
        sites = ["h", "s1", "s2", "s3", "s4", "d"]
        kernel = Kernel(lan(sites), transport="tcp",
                        config=KernelConfig(rng_seed=5, durability=policy,
                                            store_commit_window=0.05))
        ft_id = launch_ft_computation(kernel, "h", sites[1:], per_hop=0.5,
                                      work_seconds=0.25, max_relaunches=4,
                                      durable_checkpoints=True)
        (FailureSchedule().crash("s2", at=0.2).crash("s4", at=0.2)
         .recover("s2", at=6.2).recover("s4", at=6.2).install(kernel))
        kernel.run(until=60.0)
        records = completions(kernel, "d", ft_id)
        assert [record["skipped"] for record in records] == [["s2"]]
        executions = [message for _at, _agent, _site, message in kernel.event_log
                      if message.startswith(f"hop-exec {ft_id} ")]
        assert len(executions) == 5
        assert len(set(executions)) == 5, executions

    def test_released_checkpoints_are_pruned_after_completion(self):
        """Durable checkpoints must not accumulate forever: once the
        computation's releases retire a hop, its checkpoint is dropped."""
        kernel, ft_id = run_protected("wal-group-commit", until=120.0)
        assert len(completions(kernel, DELIVERY, ft_id)) == 1
        for site_name in SITES:
            site = kernel.site(site_name)
            if not site.has_cabinet(REARGUARD_CABINET):
                continue
            cabinet = site.cabinet(REARGUARD_CABINET)
            stale = [checkpoint
                     for checkpoint in cabinet.elements(CHECKPOINTS_FOLDER)
                     if isinstance(checkpoint, dict)
                     and checkpoint.get("ft_id") == ft_id]
            assert stale == [], site_name


class TestRelaunchAckRetry:
    def test_envelope_dropped_by_partition_mid_batch_is_resent(self):
        """Regression (delivery-fabric ack/retry): with batching on, an
        accepted ft-relaunch only means queued-in-outbox.  A partition that
        drops the batch at flush time must not cost the guard its budget —
        the un-acked shipment is re-sent on the next timeout and the
        computation still completes with max_relaunches=1."""
        # Pilot: crash s1 while the agent works there, recover it quickly so
        # the guard's relaunch is *posted* to a routable site (it queues in
        # the outbox rather than being refused).
        def crash_only(kernel, ft_id):
            strike = hop_time(pilot, pilot_id, 1) + 0.3
            (FailureSchedule()
                .crash("s1", at=strike)
                .recover("s1", at=strike + 1.0)
             ).install(kernel)

        pilot, pilot_id = run_protected("none", None, work_seconds=1.0,
                                        per_hop=3.0, batch_window=0.5)
        kernel2, ft2 = run_protected("none", crash_only, work_seconds=1.0,
                                     per_hop=3.0, max_relaunches=1,
                                     batch_window=0.5)
        relaunches = kernel2.site("h").cabinet(REARGUARD_CABINET).elements("relaunches")
        assert relaunches, "pilot: the guard at h must have relaunched"
        relaunch_at = relaunches[0]["at"]

        # Real run: same crash, plus a partition landing right after the
        # relaunch is queued (inside the 0.5s flush window) that severs
        # h from the rest, dropping the batch at flush time.
        def schedule(kernel, ft_id):
            strike = hop_time(pilot, pilot_id, 1) + 0.3
            (FailureSchedule()
                .crash("s1", at=strike)
                .recover("s1", at=strike + 1.0)
                .partition([["h"], ["s1", "s2", "d"]], at=relaunch_at + 0.05)
                .heal(at=relaunch_at + 2.0)
             ).install(kernel)

        kernel, ft_id = run_protected("none", schedule, work_seconds=1.0,
                                      per_hop=3.0, max_relaunches=1,
                                      batch_window=0.5, until=300.0)
        cabinet = kernel.site("h").cabinet(REARGUARD_CABINET)
        retries = cabinet.elements("relaunch_retries")
        assert retries, "the lost envelope must be re-sent, not skipped ahead"
        assert all(entry["retry"] >= 1 for entry in retries)
        # The budget was NOT burned by the network's loss: with
        # max_relaunches=1 the computation still completed exactly once.
        assert len(completions(kernel, DELIVERY, ft_id)) == 1
        acks = cabinet.elements("relaunch_acks")
        assert acks and all(notice["ack"] for notice in acks)


class TestDurableApps:
    def test_mail_spool_survives_crash_under_wal(self):
        from repro.apps.mail import MailSystem
        from repro.apps.mail.mailbox import MAILBOX_CABINET
        config = KernelConfig(rng_seed=11, durability="wal-group-commit",
                              store_commit_window=0.05)
        mail = MailSystem.build(sites=["t", "c"], config=config)
        kernel = mail.kernel
        mail.send("dag", "t", "fred", "c", "hi", "durable?")
        kernel.run(until=30.0)
        assert len(mail.inbox("c", "fred")) == 1
        kernel.crash_site("c")
        assert mail.inbox("c", "fred") == []   # honest: live state discarded
        kernel.recover_site("c")
        kernel.run(until=60.0)
        assert len(mail.inbox("c", "fred")) == 1   # the spool was durable
        assert kernel.store("c").durable_state().get(MAILBOX_CABINET)

    def test_mail_spool_is_durable_under_flush_on_demand(self):
        # The mailbox agent itself is the flush point: no manual flush call
        # anywhere, yet delivered letters survive a crash.
        from repro.apps.mail import MailSystem
        config = KernelConfig(rng_seed=11, durability="flush-on-demand")
        mail = MailSystem.build(sites=["t", "c"], config=config)
        kernel = mail.kernel
        mail.send("dag", "t", "fred", "c", "hi", "spooled")
        kernel.run(until=30.0)
        assert len(mail.inbox("c", "fred")) == 1
        kernel.crash_site("c")
        kernel.recover_site("c")
        kernel.run(until=60.0)
        assert len(mail.inbox("c", "fred")) == 1

    def test_stormcast_runs_with_durability_enabled(self):
        from repro.apps.stormcast.workload import StormCastParams, run_agent_pipeline
        params = StormCastParams(n_sensors=3, samples_per_site=40,
                                 durability="wal-group-commit")
        result = run_agent_pipeline(params)
        assert result.sites_covered == 3
        assert result.predictions

    def test_stormcast_sensor_readings_survive_a_sensor_crash(self):
        # Pre-loaded readings model data already on disk: they are the
        # durable base image even though populate pushes Folders directly.
        from repro.apps.stormcast.sensors import READINGS_FOLDER, SENSOR_CABINET
        from repro.apps.stormcast.workload import (StormCastParams,
                                                   build_stormcast_kernel)
        params = StormCastParams(n_sensors=3, samples_per_site=25,
                                 durability="wal-group-commit")
        kernel = build_stormcast_kernel(params)
        site = kernel.site("sensor00")
        before = len(site.cabinet(SENSOR_CABINET).elements(READINGS_FOLDER))
        assert before == 25
        kernel.crash_site("sensor00")
        kernel.recover_site("sensor00")
        kernel.run(until=30.0)
        after = len(site.cabinet(SENSOR_CABINET).elements(READINGS_FOLDER))
        assert after == before
