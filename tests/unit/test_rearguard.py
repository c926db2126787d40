"""Unit tests for the rear-guard machinery (guards, releases, relaunches)."""

from __future__ import annotations

import pickle

import pytest

from repro.core import Briefcase, FileCabinet, Folder, Kernel, KernelConfig
from repro.core.codec import code_for
from repro.core.engine import STEP_COST
from repro.fault import rearguard
from repro.fault.rearguard import (CHECKPOINTS_FOLDER, REARGUARD_CABINET, RELEASE_AGENT_NAME,
                                   _relaunch_acked, _released, guard_snapshot,
                                   install_fault_agents, make_release_folder, pending_guards,
                                   prune_released_checkpoints, rear_guard_behaviour,
                                   release_agent_behaviour)
from repro.fault.ftmove import completions, launch_ft_computation
from repro.fault.recovery import record_checkpoint
from repro.net import FailureSchedule, lan
from repro.sysagents.rexec import rexec_behaviour
from scenarios import RECORDER_NAME, recorded_arrivals


@pytest.fixture
def kernel():
    kernel = Kernel(lan(["a", "b", "c"]), transport="tcp", config=KernelConfig(rng_seed=7))
    install_fault_agents(kernel)
    return kernel


def make_snapshot(target="b", ft_id="ft-1"):
    """A minimal shippable snapshot: runs the arrival recorder at the target."""
    shipment = Briefcase()
    shipment.set("FT_ID", ft_id)
    shipment.set("TARGET_SITE", target)
    shipment.set("CODE", code_for(RECORDER_NAME))
    shipment.folder("ITINERARY", create=True).enqueue("c")
    return shipment


def spawn_guard(kernel, site="a", ft_id="ft-1", protects_seq=1, per_hop=0.2,
                max_relaunches=2, snapshot=None):
    briefcase = guard_snapshot(ft_id, protects_seq,
                               snapshot if snapshot is not None else make_snapshot(ft_id=ft_id),
                               per_hop_time=per_hop, max_relaunches=max_relaunches)
    return kernel.launch(site, rear_guard_behaviour, briefcase, name="guard")


class TestReleaseAgent:
    def test_release_folder_shape(self):
        folder = make_release_folder("ft-1", 3, done=True)
        assert folder.name == "FT_RELEASE"
        assert folder.elements() == [{"ft_id": "ft-1", "reached_seq": 3, "done": True}]

    def test_release_agent_records_notices(self, kernel):
        def sender(ctx, bc):
            result = yield ctx.send_folder(make_release_folder("ft-1", 2), "b",
                                           RELEASE_AGENT_NAME)
            return result.value

        agent_id = kernel.launch("a", sender)
        kernel.run()
        assert kernel.result_of(agent_id) is True
        releases = kernel.site("b").cabinet(REARGUARD_CABINET).elements("releases")
        assert releases == [{"ft_id": "ft-1", "reached_seq": 2, "done": False}]

    def test_release_agent_ignores_malformed_notices(self, kernel):
        def sender(ctx, bc):
            folder = Folder("FT_RELEASE", ["not a dict", {"no_ft_id": 1}])
            result = yield ctx.send_folder(folder, "b", RELEASE_AGENT_NAME)
            return result.value

        kernel.launch("a", sender)
        kernel.run()
        assert kernel.site("b").cabinet(REARGUARD_CABINET).elements("releases") == []

    def test_install_fault_agents_covers_every_site(self, kernel):
        for name in kernel.site_names():
            assert kernel.site(name).is_installed(RELEASE_AGENT_NAME)


class TestBatchedReleases:
    def test_release_folder_lists_released_hops(self):
        folder = make_release_folder("ft-1", 5, released_seqs=[3, 1])
        assert folder.elements() == [{"ft_id": "ft-1", "reached_seq": 5,
                                      "done": False, "released_seqs": [1, 3]}]

    def test_release_folder_without_seqs_keeps_legacy_shape(self):
        folder = make_release_folder("ft-1", 3, done=True)
        assert folder.elements() == [{"ft_id": "ft-1", "reached_seq": 3,
                                      "done": True}]

    def test_release_agent_acknowledges_an_envelope_once(self, kernel):
        # One envelope carrying several notices is acknowledged exactly
        # once — not once per notice, as N separate couriers would be.
        def sender(ctx, bc):
            folder = Folder("FT_RELEASE", [
                {"ft_id": "ft-1", "reached_seq": 3, "done": False},
                {"ft_id": "ft-2", "reached_seq": 7, "done": True},
            ])
            result = yield ctx.send_folder(folder, "b", RELEASE_AGENT_NAME)
            return result.value

        agent_id = kernel.launch("a", sender)
        kernel.run()
        assert kernel.result_of(agent_id) is True   # the courier accepted it
        cabinet = kernel.site("b").cabinet(REARGUARD_CABINET)
        assert len(cabinet.elements("releases")) == 2
        acks = cabinet.elements("release_acks")
        assert len(acks) == 1
        assert acks[0]["notices"] == 2

    def test_multi_hop_notice_retires_guards_by_reached_seq(self, kernel):
        # A single envelope listing several released hops retires every
        # matching guard at the site.
        early = spawn_guard(kernel, site="b", ft_id="ft-1", protects_seq=1,
                            per_hop=1.0)
        later = spawn_guard(kernel, site="b", ft_id="ft-1", protects_seq=3,
                            per_hop=1.0)
        kernel.site("b").cabinet(REARGUARD_CABINET).put(
            "releases", {"ft_id": "ft-1", "reached_seq": 5, "done": False,
                         "released_seqs": [1, 3]})
        kernel.run(until=30.0)
        assert kernel.result_of(early) == "released"
        assert kernel.result_of(later) == "released"


class TestRelaunchBudget:
    """Pin the relaunch budget semantics: a guard with max_relaunches=N
    relaunches exactly N times, never N+1 — even when every relaunched twin
    also stalls (nothing ever sends a release here)."""

    def test_exactly_two_relaunches_for_budget_of_two(self, kernel):
        guard_id = spawn_guard(kernel, protects_seq=1, per_hop=0.05,
                               max_relaunches=2)
        kernel.run(until=120.0)     # far past any further deadline
        relaunches = kernel.site("a").cabinet(REARGUARD_CABINET).elements("relaunches")
        assert [entry["attempt"] for entry in relaunches] == [1, 2]
        outcomes = kernel.site("a").cabinet(REARGUARD_CABINET).elements("guard_outcomes")
        assert outcomes[-1]["outcome"] == "gave-up"
        assert outcomes[-1]["relaunches"] == 2
        assert kernel.result_of(guard_id) == "gave-up"

    def test_budget_of_zero_never_relaunches(self, kernel):
        guard_id = spawn_guard(kernel, protects_seq=1, per_hop=0.05,
                               max_relaunches=0)
        kernel.run(until=60.0)
        assert kernel.site("a").cabinet(REARGUARD_CABINET).elements("relaunches") == []
        assert kernel.stats.migrations == 0
        assert kernel.result_of(guard_id) == "gave-up"

    def test_relaunch_ships_as_batchable_ft_relaunch_kind(self, kernel):
        from repro.net.message import MessageKind
        spawn_guard(kernel, protects_seq=1, per_hop=0.1, max_relaunches=1)
        kernel.run(until=30.0)
        # The snapshot re-shipment went out as ft-relaunch (fabric-eligible),
        # not as a plain agent transfer — and still counts as a migration.
        assert kernel.stats.per_kind[MessageKind.FT_RELAUNCH] >= 1
        assert kernel.stats.per_kind.get(MessageKind.AGENT_TRANSFER, 0) == 0
        assert kernel.stats.migrations >= 1


class TestRearGuard:
    def test_guard_terminates_when_release_arrives(self, kernel):
        guard_id = spawn_guard(kernel, protects_seq=1)
        # A release saying the computation reached hop 2 retires a guard
        # protecting hop 1.
        kernel.site("a").cabinet(REARGUARD_CABINET).put(
            "releases", {"ft_id": "ft-1", "reached_seq": 2, "done": False})
        kernel.run(until=30.0)
        assert kernel.result_of(guard_id) == "released"
        assert kernel.stats.migrations == 0     # never had to relaunch

    def test_done_release_retires_guard_regardless_of_seq(self, kernel):
        guard_id = spawn_guard(kernel, protects_seq=5)
        kernel.site("a").cabinet(REARGUARD_CABINET).put(
            "releases", {"ft_id": "ft-1", "reached_seq": 0, "done": True})
        kernel.run(until=30.0)
        assert kernel.result_of(guard_id) == "released"

    def test_release_for_other_computation_is_ignored(self, kernel):
        guard_id = spawn_guard(kernel, protects_seq=1, max_relaunches=0, per_hop=0.1)
        kernel.site("a").cabinet(REARGUARD_CABINET).put(
            "releases", {"ft_id": "other", "reached_seq": 99, "done": True})
        kernel.run(until=30.0)
        assert kernel.result_of(guard_id) == "gave-up"

    def test_silence_triggers_relaunch_of_the_snapshot(self, kernel):
        guard_id = spawn_guard(kernel, protects_seq=1, per_hop=0.1, max_relaunches=1)
        kernel.run(until=30.0)
        # The guard relaunched the snapshot: an agent transfer went to b and
        # the recorder there was started by ag_py.
        assert kernel.stats.migrations >= 1
        relaunches = kernel.site("a").cabinet(REARGUARD_CABINET).elements("relaunches")
        assert relaunches and relaunches[0]["accepted"] is True
        assert [record["site"] for record in recorded_arrivals(kernel, "b")] == ["b"]
        assert kernel.result_of(guard_id) in ("relaunched", "gave-up")

    @pytest.mark.parametrize("per_hop", [0.05, 0.1, 0.4])
    def test_first_relaunch_is_at_the_first_poll_past_the_timeout(
            self, kernel, monkeypatch, per_hop):
        # The timeout is max(0.5, 6 * per_hop) after the guard starts; the
        # guard notices it at its next poll, and only then.
        polls, relaunched_at = [], []
        released, relaunch = rearguard._released, rearguard._relaunch

        def polled(*args):
            polls.append(kernel.now)
            return released(*args)

        def recorded(ctx, guard, *args):
            relaunched_at.append(ctx.now)
            return (yield from relaunch(ctx, guard, *args))

        monkeypatch.setattr(rearguard, "_released", polled)
        monkeypatch.setattr(rearguard, "_relaunch", recorded)
        spawn_guard(kernel, protects_seq=1, per_hop=per_hop, max_relaunches=1)
        kernel.run(until=30.0)
        deadline = polls[0] + max(0.5, 6 * per_hop)
        first_due = next(at for at in polls if at >= deadline)
        assert relaunched_at[0] == first_due
        assert polls[polls.index(first_due) - 1] < deadline

    @pytest.mark.parametrize("per_hop", [0.05, 0.1, 0.4])
    def test_polls_are_spaced_by_the_poll_interval(self, kernel, monkeypatch, per_hop):
        # Until it gives up at its timeout, an unreleased guard sleeps
        # max(0.125, per_hop / 2) between polls (each sleep is one step).
        polls = []
        released = rearguard._released

        def polled(*args):
            polls.append(kernel.now)
            return released(*args)

        monkeypatch.setattr(rearguard, "_released", polled)
        spawn_guard(kernel, protects_seq=1, per_hop=per_hop, max_relaunches=0)
        kernel.run(until=5.0)
        gaps = [later - earlier for earlier, later in zip(polls, polls[1:])]
        assert len(gaps) >= 2
        assert gaps == pytest.approx([max(0.125, per_hop / 2) + STEP_COST] * len(gaps))

    def test_guard_gives_up_after_max_relaunches(self, kernel):
        guard_id = spawn_guard(kernel, protects_seq=1, per_hop=0.05, max_relaunches=2)
        kernel.run(until=60.0)
        outcomes = kernel.site("a").cabinet(REARGUARD_CABINET).elements("guard_outcomes")
        assert outcomes[-1]["outcome"] == "gave-up"
        assert outcomes[-1]["relaunches"] == 2
        assert kernel.result_of(guard_id) == "gave-up"

    def test_relaunch_skips_unreachable_target(self, kernel):
        kernel.crash_site("b")
        snapshot = make_snapshot(target="b")
        guard_id = spawn_guard(kernel, per_hop=0.1, max_relaunches=1, snapshot=snapshot)
        kernel.run(until=30.0)
        # b is down, so the relaunch skipped ahead to the itinerary entry c.
        relaunches = kernel.site("a").cabinet(REARGUARD_CABINET).elements("relaunches")
        assert relaunches and relaunches[0]["accepted"] is True
        assert kernel.counters()["arrivals"] == 1
        assert [record["site"] for record in recorded_arrivals(kernel, "c")] == ["c"]
        assert kernel.result_of(guard_id) in ("relaunched", "gave-up")

    def test_a_relaunch_follows_the_skip(self, kernel):
        # b is down at the first relaunch, so it skips to c; b is back up at
        # the second, which still goes to c -- a skip is never undone.
        kernel.crash_site("b")
        FailureSchedule().recover("b", at=1.0).install(kernel)
        spawn_guard(kernel, per_hop=0.1, max_relaunches=2)
        kernel.run(until=30.0)
        relaunches = kernel.site("a").cabinet(REARGUARD_CABINET).elements("relaunches")
        assert [record["accepted"] for record in relaunches] == [True, True]
        assert relaunches[1]["at"] > 1.0
        assert recorded_arrivals(kernel, "b") == []
        assert [record["site"] for record in recorded_arrivals(kernel, "c")] == ["c", "c"]

    def test_relaunch_with_everything_down_is_not_accepted(self, kernel):
        kernel.crash_site("b")
        kernel.crash_site("c")
        spawn_guard(kernel, per_hop=0.1, max_relaunches=1)
        kernel.run(until=30.0)
        relaunches = kernel.site("a").cabinet(REARGUARD_CABINET).elements("relaunches")
        assert relaunches and relaunches[0]["accepted"] is False

    def test_pending_guards_reports_outcomes_across_sites(self, kernel):
        spawn_guard(kernel, site="a", ft_id="ft-1", per_hop=0.05, max_relaunches=0)
        spawn_guard(kernel, site="b", ft_id="ft-2", per_hop=0.05, max_relaunches=0)
        kernel.run(until=30.0)
        outcomes = pending_guards(kernel)
        assert len(outcomes) == 2
        assert {entry["guard_site"] for entry in outcomes} == {"a", "b"}


class TestGuardHoldsTheShipment:
    """A guard's briefcase holds one parameter element and the shipment's
    stored elements, shared and never pickled; the shipment is rebuilt only
    when the guard relaunches."""

    #: the folders a relaunch adds or edits; every other one ships as shipped
    RELAUNCH_EDITS = {"RELAUNCHED", "ACK_GUARD_SITE", "HOST", "CONTACT", "KIND",
                      "ITINERARY", "SKIPPED", "TARGET_SITE"}

    def test_a_relaunch_ships_the_stored_elements_the_visitor_shipped(self):
        kernel = Kernel(lan(["s0", "s1", "s2", "s3"]), transport="tcp",
                        config=KernelConfig(rng_seed=7))
        shipped = []    # every briefcase rexec was asked to move, as stored

        def recording_rexec(ctx, briefcase):
            shipped.append(dict(briefcase.stored_items()))
            return (yield from rexec_behaviour(ctx, briefcase))

        kernel.install_agent(None, "rexec", recording_rexec, system=True, replace=True)
        ft_id = launch_ft_computation(kernel, "s0", ["s1", "s2", "s3"], per_hop=0.3)
        FailureSchedule().crash("s2", at=0.05).recover("s2", at=100.0).install(kernel)
        kernel.run(until=200.0)
        assert len(completions(kernel, "s3", ft_id)) == 1

        def seq(items):
            return Briefcase.from_stored_items(
                (name, list(elements)) for name, elements in items.items()).get("SEQ")

        visitor = {seq(items): items for items in shipped if "RELAUNCHED" not in items}
        relaunches = [items for items in shipped if "RELAUNCHED" in items]
        assert any("SKIPPED" in items for items in relaunches)   # s2 was skipped
        for relaunch in relaunches:
            original = visitor[seq(relaunch)]
            assert set(original) <= set(relaunch)
            assert set(relaunch) - set(original) <= self.RELAUNCH_EDITS
            for name in set(original) - self.RELAUNCH_EDITS:
                assert len(relaunch[name]) == len(original[name]), name
                assert all(held is sent for held, sent
                           in zip(relaunch[name], original[name])), name

    def test_spawning_and_starting_a_guard_pickles_nothing_the_size_of_the_shipment(
            self, kernel, monkeypatch):
        shipment = make_snapshot()
        shipment.set("PAYLOAD", b"\0" * 4096)
        dumped, loaded = [], []
        real_dumps, real_loads = pickle.dumps, pickle.loads

        def dumps(value, *args, **kwargs):
            data = real_dumps(value, *args, **kwargs)
            dumped.append(len(data))
            return data

        def loads(data, *args, **kwargs):
            loaded.append(len(data))
            return real_loads(data, *args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", dumps)
        monkeypatch.setattr(pickle, "loads", loads)

        def visitor(ctx, briefcase):
            yield ctx.spawn(rear_guard_behaviour,
                            guard_snapshot("ft-1", 1, shipment, per_hop_time=5.0),
                            name="guard")

        kernel.launch("a", visitor)
        kernel.run(until=1.0)    # the guard is polling, its deadline far off
        assert [agent.finished for agent in kernel.agents_named("guard")] == [False]
        assert dumped and loaded             # its parameters, once each way
        assert max(dumped + loaded) < 1024

    def test_the_shipment_stays_below_the_top_level_of_the_guard(self):
        shipment = make_snapshot()
        shipment.set("TRACE_ID", "ft-1")
        guard = guard_snapshot("ft-1", 1, shipment, per_hop_time=0.5)
        assert guard.names() == ["GUARD", "GUARD_SHIPMENT"]
        held = guard.folder("GUARD_SHIPMENT").raw_elements()
        sent = [element for _, elements in shipment.stored_items() for element in elements]
        assert len(held) == len(sent) and all(a is b for a, b in zip(held, sent))

    def test_a_traced_computation_has_no_run_span_for_a_rear_guard(self):
        kernel = Kernel(lan(["s0", "s1", "s2"]), transport="tcp",
                        config=KernelConfig(rng_seed=7, obs_enabled=True))
        ft_id = launch_ft_computation(kernel, "s0", ["s1", "s2"], per_hop=0.3)
        kernel.run(until=50.0)
        assert len(completions(kernel, "s2", ft_id)) == 1
        assert kernel.agents_named(f"rear-guard-{ft_id}-1")
        runs = [span for span in kernel.trace_spans() if span["name"] == "run"]
        assert runs
        assert not [span for span in runs
                    if str(span.get("attrs", {}).get("agent")).startswith("rear-guard")]

    def test_guard_snapshot_takes_a_wire_dict_as_it_takes_the_briefcase(self):
        shipment = make_snapshot()
        wire = shipment.to_wire()
        from_wire = guard_snapshot("ft-1", 1, wire, per_hop_time=0.5)
        assert from_wire == guard_snapshot("ft-1", 1, shipment, per_hop_time=0.5)
        held = from_wire.folder("GUARD_SHIPMENT").raw_elements()
        sent = [element for folder in wire["folders"] for element in folder["elements"]]
        assert len(held) == len(sent) and all(a is b for a, b in zip(held, sent))


class TestIncrementalReads:
    """The rearguard cabinet is read incrementally: a poll decodes what was
    filed since the previous poll, not the whole log; a prune decodes each
    parked snapshot once.  Counted at ``repro.core.folder._decode`` — every
    stored element becomes a value there — never by timing."""

    @pytest.fixture
    def decoded(self, monkeypatch):
        import repro.core.folder as folder_module
        real, values = folder_module._decode, []

        def counting(stored):
            value = real(stored)
            values.append(value)
            return value

        monkeypatch.setattr(folder_module, "_decode", counting)
        return values

    def test_polls_decode_each_release_notice_once(self, decoded):
        cabinet = FileCabinet(REARGUARD_CABINET)
        unrelated, polls = 60, 40
        for index in range(unrelated):
            cabinet.put("releases", {"ft_id": f"other-{index}", "reached_seq": 9,
                                     "done": False})
        for _ in range(polls):
            assert not _released(cabinet, "ft-1", 1)
        assert len(decoded) == unrelated          # not polls * unrelated
        cabinet.put("releases", {"ft_id": "ft-1", "reached_seq": 2, "done": False})
        assert _released(cabinet, "ft-1", 1)
        assert not _released(cabinet, "ft-1", 2)
        assert len(decoded) == unrelated + 1

    def test_ack_polls_decode_each_ack_once(self, decoded):
        cabinet = FileCabinet(REARGUARD_CABINET)
        for index in range(10):
            cabinet.put("relaunch_acks", {"ft_id": "ft-1", "seq": 1, "at": float(index),
                                          "ack": True})
        for _ in range(20):
            assert _relaunch_acked(cabinet, "ft-1", 1, since=9.0)
            assert not _relaunch_acked(cabinet, "ft-1", 1, since=9.5)
            assert not _relaunch_acked(cabinet, "ft-1", 2, since=0.0)
        assert len(decoded) == 10

    def test_prune_decodes_no_filed_snapshot_and_each_restored_one_once(self, decoded):
        from repro.store.snapshot import capture_cabinet, restore_cabinet
        cabinet = FileCabinet(REARGUARD_CABINET)
        wire = make_snapshot().to_wire()
        parked = 12
        for seq in range(parked):
            record_checkpoint(cabinet, "ft-1", seq, wire, 0.5, 2)

        def snapshots_decoded():
            return sum(isinstance(value, dict) and "snapshot_wire" in value
                       for value in decoded)

        assert prune_released_checkpoints(cabinet) == 0
        assert decoded == []                      # filing seeded every head
        stored = cabinet.folder(CHECKPOINTS_FOLDER).raw_elements()

        cabinet.put("releases", {"ft_id": "ft-1", "reached_seq": 3, "done": False})
        assert prune_released_checkpoints(cabinet) == 3   # hops 0, 1, 2
        assert snapshots_decoded() == 0 and len(decoded) == 1   # the notice only
        survivors = cabinet.folder(CHECKPOINTS_FOLDER).raw_elements()
        assert all(kept is original for kept, original in zip(survivors, stored[3:]))
        del decoded[:]
        record_checkpoint(cabinet, "ft-1", parked, wire, 0.5, 2)
        assert prune_released_checkpoints(cabinet) == 0
        assert decoded == []                      # nor the newcomer

        # A crash-recovery restore drops the memo with the index: each
        # restored snapshot is decoded once, then never again.
        restore_cabinet(cabinet, capture_cabinet(cabinet))
        assert prune_released_checkpoints(cabinet) == 0
        assert snapshots_decoded() == parked - 3 + 1
        del decoded[:]
        assert prune_released_checkpoints(cabinet) == 0
        assert snapshots_decoded() == 0
