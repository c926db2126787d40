"""Unit tests for fault-tolerant itinerant computations (repro.fault.ftmove)."""

from __future__ import annotations

import pytest

from repro.core import Kernel, KernelConfig
from repro.core.errors import FaultToleranceError
from repro.fault import (RELEASE_AGENT_NAME, RESULTS_CABINET, completions, fan_out_ids, launch_ft_computation,
                         launch_plain_computation, pending_guards)
from repro.net import FailureSchedule, lan, ring


def make_kernel(sites=6, seed=31, topology="ring", **config):
    names = [f"s{i}" for i in range(sites)]
    topo = ring(names) if topology == "ring" else lan(names)
    kernel = Kernel(topo, transport="tcp", config=KernelConfig(rng_seed=seed, **config))
    for index, name in enumerate(names):
        kernel.site(name).cabinet("data").put("VALUE", f"value-{index}")
    return kernel, names


class TestHappyPath:
    def test_ft_computation_completes_and_collects_data(self):
        kernel, names = make_kernel()
        ft_id = launch_ft_computation(kernel, "s0", names[1:], per_hop=0.3)
        kernel.run(until=60.0)
        records = completions(kernel, names[-1], ft_id)
        assert len(records) == 1
        record = records[0]
        assert record["hops"] == len(names) - 1
        assert [entry["site"] for entry in record["results"]] == names
        assert [entry["value"] for entry in record["results"]] == \
               [f"value-{i}" for i in range(len(names))]
        assert record["skipped"] == []
        assert record["relaunched"] is False

    def test_all_guards_retire_after_a_clean_run(self):
        kernel, names = make_kernel()
        launch_ft_computation(kernel, "s0", names[1:], per_hop=0.3)
        kernel.run(until=60.0)
        outcomes = {entry["outcome"] for entry in pending_guards(kernel)}
        assert outcomes == {"released"}

    def test_plain_computation_completes_without_failures(self):
        kernel, names = make_kernel()
        plain_id = launch_plain_computation(kernel, "s0", names[1:])
        kernel.run(until=60.0)
        assert len(completions(kernel, names[-1], plain_id)) == 1

    def test_ft_costs_more_messages_than_plain(self):
        kernel_ft, names = make_kernel()
        launch_ft_computation(kernel_ft, "s0", names[1:], per_hop=0.3)
        kernel_ft.run(until=60.0)

        kernel_plain, names = make_kernel()
        launch_plain_computation(kernel_plain, "s0", names[1:])
        kernel_plain.run(until=60.0)

        assert kernel_ft.stats.messages_sent > kernel_plain.stats.messages_sent

    def test_ft_message_overhead_is_bounded_without_failures(self):
        """What the guards cost when nothing fails: releases (and an
        occasional spurious relaunch) on top of the migrations, a small
        multiple of the unprotected run's messages."""
        def messages(launch, **kwargs):
            kernel, names = make_kernel(sites=8, seed=11, topology="lan")
            for index in range(5):
                rotation = index % 6
                middle = names[1:-1][rotation:] + names[1:-1][:rotation]
                launch(kernel, names[0], middle + names[-1:], work_seconds=0.25,
                       delay=0.05 * index, **kwargs)
            kernel.run(until=500.0)
            return kernel.stats.messages_sent

        protected = messages(launch_ft_computation, per_hop=0.5, max_relaunches=4)
        plain = messages(launch_plain_computation)
        assert 1.0 < protected / plain < 6.0

    def test_custom_task_agent_is_met_at_each_site(self):
        kernel, names = make_kernel(sites=4)

        def counter_task(ctx, bc):
            ctx.cabinet("tasks").put("ran", bc.get("SEQ"))
            yield ctx.end_meet(ctx.site_name.upper())

        kernel.install_agent(None, "counter_task", counter_task, replace=True)
        ft_id = launch_ft_computation(kernel, "s0", names[1:], per_hop=0.3,
                                      task="counter_task")
        kernel.run(until=60.0)
        record = completions(kernel, names[-1], ft_id)[0]
        assert [entry["value"] for entry in record["results"]] == \
               [name.upper() for name in names]
        for name in names:
            assert kernel.site(name).cabinet("tasks").elements("ran")


class TestUnderFailures:
    def test_ft_survives_a_crashed_intermediate_site(self):
        kernel, names = make_kernel()
        ft_id = launch_ft_computation(kernel, "s0", names[1:], per_hop=0.3)
        FailureSchedule().crash("s3", at=0.05).recover("s3", at=100.0).install(kernel)
        kernel.run(until=200.0)
        records = completions(kernel, names[-1], ft_id)
        assert len(records) == 1, "the protected computation must complete exactly once"
        assert "s3" in records[0]["skipped"]
        assert records[0]["relaunched"] is True

    def test_plain_computation_dies_with_the_crashed_site(self):
        kernel, names = make_kernel()
        plain_id = launch_plain_computation(kernel, "s0", names[1:])
        FailureSchedule().crash("s3", at=0.05).recover("s3", at=100.0).install(kernel)
        kernel.run(until=200.0)
        assert completions(kernel, names[-1], plain_id) == []

    def test_crash_of_resident_site_is_survived(self):
        kernel, names = make_kernel()
        ft_id = launch_ft_computation(kernel, "s0", names[1:], per_hop=0.3,
                                      work_seconds=0.3)
        # Crash the site while the agent is busy working there.
        FailureSchedule().crash("s2", at=0.8).recover("s2", at=100.0).install(kernel)
        kernel.run(until=200.0)
        records = completions(kernel, names[-1], ft_id)
        assert len(records) == 1

    def test_completion_is_exactly_once_even_with_duplicate_relaunches(self):
        kernel, names = make_kernel()
        # Aggressive timers force spurious relaunches of a perfectly healthy
        # agent; the dedup markers must still give exactly one completion.
        ft_id = launch_ft_computation(kernel, "s0", names[1:], per_hop=0.01,
                                      max_relaunches=3, work_seconds=0.2)
        kernel.run(until=200.0)
        records = completions(kernel, names[-1], ft_id)
        assert len(records) == 1

    def test_two_computations_do_not_interfere(self):
        kernel, names = make_kernel()
        first = launch_ft_computation(kernel, "s0", names[1:], per_hop=0.3)
        second = launch_ft_computation(kernel, "s1", names[2:] + ["s0"], per_hop=0.3,
                                       delay=0.1)
        kernel.run(until=120.0)
        assert len(completions(kernel, names[-1], first)) == 1
        assert len(completions(kernel, "s0", second)) == 1


class TestUnguardable:
    @pytest.mark.parametrize("per_hop", [0.0, -1.0, float("inf"), float("nan")],
                             ids=["zero", "negative", "inf", "nan"])
    def test_a_per_hop_no_guard_can_time_is_refused_before_anything_launches(
            self, per_hop):
        # A guard's deadline is a multiple of per_hop: without a positive,
        # finite one, every guard would fail and the computation run unguarded.
        kernel, names = make_kernel(sites=3)
        with pytest.raises(FaultToleranceError, match="per_hop"):
            launch_ft_computation(kernel, "s0", names[1:], per_hop=per_hop)
        assert kernel.counters()["launched"] == 0
        assert not kernel.site("s0").is_installed(RELEASE_AGENT_NAME)


class TestReleasesOnTheFabric:
    def test_releases_travel_as_ft_release_kind(self):
        from repro.net.message import MessageKind
        kernel, names = make_kernel()
        ft_id = launch_ft_computation(kernel, "s0", names[1:], per_hop=0.3)
        kernel.run(until=60.0)
        assert len(completions(kernel, names[-1], ft_id)) == 1
        assert kernel.stats.per_kind[MessageKind.FT_RELEASE] > 0
        # Nothing ships release notices as generic folder deliveries anymore.
        assert kernel.stats.per_kind.get(MessageKind.FOLDER_DELIVERY, 0) == 0

    def test_cyclic_itinerary_gets_one_envelope_per_guard_site(self):
        # The walk s0 -> s1 -> s0 -> s1 -> s2 parks two retiring guards at
        # s1 by delivery time; the final release is one envelope listing
        # both hops, acknowledged once.
        kernel, names = make_kernel(sites=3, topology="lan")
        ft_id = launch_ft_computation(kernel, "s0", ["s1", "s0", "s1", "s2"],
                                      per_hop=0.3)
        kernel.run(until=60.0)
        assert len(completions(kernel, "s2", ft_id)) == 1
        from repro.fault import REARGUARD_CABINET
        cabinet = kernel.site("s1").cabinet(REARGUARD_CABINET)
        acks = cabinet.elements("release_acks")
        assert len(acks) == 1                       # one envelope, one ack
        notices = [notice for notice in cabinet.elements("releases")
                   if notice.get("done")]
        assert len(notices) == 1
        assert notices[0]["released_seqs"] == [2, 4]
        outcomes = {entry["outcome"] for entry in pending_guards(kernel)}
        assert outcomes == {"released"}

    @staticmethod
    def run_staggered(batched):
        """Four guarded computations over one itinerary while s3 is down."""
        kernel, names = make_kernel(delivery_batch_window=0.1 if batched else 0.0)
        ids = [launch_ft_computation(kernel, "s0", names[1:], per_hop=0.3,
                                     delay=0.05 * index)
               for index in range(4)]
        FailureSchedule().crash("s3", at=0.05).recover("s3", at=100.0).install(kernel)
        kernel.run(until=300.0)
        return kernel, [len(completions(kernel, names[-1], ft_id)) for ft_id in ids]

    def test_guarded_computations_complete_exactly_once_on_the_fabric(self):
        kernel, per_id = self.run_staggered(batched=True)
        assert per_id == [1, 1, 1, 1]
        # Guard traffic genuinely coalesced on the wire.
        assert kernel.stats.batches > 0
        assert kernel.stats.batched_messages > 0

    def test_guards_on_the_fabric_put_fewer_messages_on_the_wire(self):
        """Batching the protection traffic costs no completions and saves
        wire messages: consecutive computations release the same guard
        sites, so their notices share envelopes."""
        unbatched, unbatched_per_id = self.run_staggered(batched=False)
        fabric, fabric_per_id = self.run_staggered(batched=True)
        assert fabric_per_id == unbatched_per_id == [1, 1, 1, 1]
        assert unbatched.stats.batches == 0
        assert fabric.stats.messages_sent < unbatched.stats.messages_sent


class TestHelpers:
    def test_fan_out_ids_are_unique_and_prefixed(self):
        ids = fan_out_ids("ft-main", 4)
        assert len(set(ids)) == 4
        assert all(branch.startswith("ft-main/") for branch in ids)

    def test_completions_filters_by_id(self):
        kernel, names = make_kernel(sites=3)
        first = launch_ft_computation(kernel, "s0", ["s1", "s2"], per_hop=0.3)
        second = launch_ft_computation(kernel, "s0", ["s1", "s2"], per_hop=0.3, delay=0.1)
        kernel.run(until=60.0)
        assert len(completions(kernel, "s2")) == 2
        assert len(completions(kernel, "s2", first)) == 1
        assert len(completions(kernel, "s2", second)) == 1

    def test_results_cabinet_name_is_stable(self):
        assert RESULTS_CABINET == "ft_results"
