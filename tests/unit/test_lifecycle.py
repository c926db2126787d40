"""Unit tests for the lifecycle ledger: AgentTable, records, indexes.

Also holds the regression test for ``Kernel.launch`` accepting a negative
delay (it used to silently schedule into the past while ``launch_many``
raised).
"""

from __future__ import annotations

import gc
import traceback
import weakref

import pytest

from repro.core import Briefcase, Kernel, KernelConfig
from repro.core.agent import AgentInstance, AgentState
from repro.core.errors import KernelError
from repro.core.lifecycle import AgentRecord, AgentTable
from repro.net import lan
from repro.shard import process_backend_available


def worker(ctx, bc):
    """Sleeps ``WORK`` seconds (0.01 by default), returns ``N`` or its site."""
    yield ctx.sleep(float(bc.get("WORK", 0.01)))
    return bc.get("N", ctx.site_name)


def broken(ctx, bc):
    yield ctx.sleep(0)
    raise RuntimeError("boom")


def ledger_kernel():
    """A 3-site TCP kernel."""
    return Kernel(lan(["a", "b", "c"]), transport="tcp", config=KernelConfig(rng_seed=7))


def _numbered(number):
    briefcase = Briefcase()
    briefcase.set("N", number)
    return briefcase


@pytest.mark.usefixtures("strategy")
class TestRecords:
    def test_a_finished_agent_is_a_compact_record(self):
        kernel = ledger_kernel()
        briefcase = Briefcase()
        briefcase.set("N", 42)
        briefcase.set("BALLAST", b"\0" * 1024)
        agent_id = kernel.launch("a", worker, briefcase, name="kept")
        kernel.run()
        record = kernel.agent(agent_id)
        assert type(record) is AgentRecord
        assert record.finished and record.ok
        assert kernel.result_of(agent_id) == 42
        assert (record.name, record.site_name) == ("kept", "a")
        assert len(AgentRecord.__slots__) == 10
        # The expensive state is genuinely gone from the ledger entry.
        assert not hasattr(record, "briefcase")
        assert not hasattr(record, "behaviour")
        assert not hasattr(record, "generator")

    def test_failed_agents_keep_their_error(self):
        kernel = ledger_kernel()
        agent_id = kernel.launch("a", broken)
        kernel.run()
        record = kernel.agent(agent_id)
        assert record.state == AgentState.FAILED
        with pytest.raises(KernelError, match="boom"):
            kernel.result_of(agent_id)

    def test_meets_work_under_archival(self):
        kernel = ledger_kernel()

        def service(ctx, bc):
            yield ctx.end_meet("answer")

        def client(ctx, bc):
            result = yield ctx.meet("service", Briefcase())
            return result.value

        kernel.install_agent("a", "service", service)
        agent_id = kernel.launch("a", client)
        kernel.run()
        assert kernel.result_of(agent_id) == "answer"

    def test_historical_site_scan_sees_records(self):
        kernel = ledger_kernel()
        kernel.launch("a", worker)
        kernel.launch("a", worker)
        kernel.run()
        assert kernel.site("a").residents() == []
        assert len([record for record in kernel.agents.values()
                    if record.site_name == "a"]) == 2


@pytest.mark.usefixtures("strategy")
class TestRetainEverything:
    """The ledger keeps a record of every agent, the counters stay exact,
    and the name index holds exactly what the ledger holds."""

    @pytest.fixture
    def kernel(self):
        return ledger_kernel()

    def test_counters_stay_exact_and_the_ledger_keeps_every_agent(self, kernel):
        for index in range(6):
            kernel.launch("abc"[index % 3], worker)
        for _ in range(2):
            kernel.launch("a", broken)
        kernel.run()
        counters = kernel.counters()
        assert (counters["launched"], counters["completed"], counters["failed"],
                counters["killed"], counters["retained"]) == (8, 6, 2, 0, 8)
        assert len(kernel.agents) == 8

    def test_every_finished_agent_is_kept(self, kernel):
        ids = [kernel.launch("a", worker, _numbered(number)) for number in range(10)]
        kernel.run()
        for number, agent_id in enumerate(ids):
            assert type(kernel.agent(agent_id)) is AgentRecord
            assert kernel.result_of(agent_id) == number

    def test_the_name_index_holds_what_the_ledger_holds(self, kernel):
        for index in range(10):
            kernel.launch("abc"[index % 3], worker,
                          name="even" if index % 2 == 0 else "odd")
        kernel.run()
        for name in ("even", "odd", "missing"):
            indexed = [entry.agent_id for entry in kernel.agents_named(name)]
            scanned = [entry.agent_id for entry in kernel.agents.values()
                       if entry.name == name]
            assert indexed == scanned
        assert len(kernel.agents_named("even")) + len(kernel.agents_named("odd")) == 10

    def test_an_entry_is_a_record_exactly_when_its_agent_finished(self, kernel):
        for step in range(4):
            for index in range(3):
                briefcase = Briefcase()
                briefcase.set("WORK", 0.01 + 0.02 * index)
                kernel.launch("abc"[index], worker if index else broken, briefcase)
            kernel.run(until=0.03 * (step + 1))     # some terminal, some still live
            entries = list(kernel.table.entries.values())
            assert [type(entry) for entry in entries] == [
                AgentRecord if entry.finished else AgentInstance for entry in entries]
            assert sum(entry.finished for entry in entries) == kernel.table.terminal

    def test_a_failure_keeps_its_error_not_its_frame_locals(self, kernel):
        held = []

        class Ballast:
            pass

        def fails_holding(ctx, bc):
            ballast = Ballast()
            held.append(weakref.ref(ballast))
            yield ctx.sleep(0)
            raise RuntimeError("boom")

        agent_id = kernel.launch("a", fails_holding)
        kernel.run()
        gc.collect()
        assert held[0]() is None
        error = kernel.agent(agent_id).error
        assert repr(error) == "RuntimeError('boom')"
        shown = "".join(traceback.format_exception(type(error), error,
                                                   error.__traceback__))
        assert "in fails_holding" in shown and 'raise RuntimeError("boom")' in shown


class TestShardCount:
    def test_the_ledger_does_not_depend_on_the_shard_count(self, backend):
        # Every engine keeps every record, so two engines hold what one does
        # (a per-engine bound on finished records once made them differ).
        def ledger(shards):
            with Kernel(lan([f"s{index}" for index in range(6)]), transport="tcp",
                        config=KernelConfig(rng_seed=7, shards=shards,
                                            shard_backend=backend)) as kernel:
                for index in range(24):
                    kernel.launch(f"s{index % 6}", worker if index % 5 else broken,
                                  _numbered(index), name=f"n{index % 4}")
                kernel.run()
                rows = sorted((entry.name, entry.site_name, entry.state,
                               entry.result, entry.steps)
                              for entry in kernel.agents.values())
                return kernel.counters(), rows

        counters, rows = ledger(1)
        assert (counters["launched"], counters["retained"], counters["failed"]) == (24, 24, 5)
        assert ledger(2) == (counters, rows)


@pytest.mark.usefixtures("strategy")
class TestNameIndex:
    def test_meet_callees_and_spawns_are_indexed(self):
        kernel = ledger_kernel()

        def child(ctx, bc):
            yield ctx.sleep(0)

        def parent(ctx, bc):
            yield ctx.spawn(child, name="spawnling")
            result = yield ctx.meet("helper", Briefcase())
            return result.value

        def helper(ctx, bc):
            yield ctx.end_meet("hi")

        kernel.install_agent("a", "helper", helper)
        kernel.launch("a", parent)
        kernel.run()
        assert len(kernel.agents_named("spawnling")) == 1
        assert len(kernel.agents_named("helper")) == 1


class TestNameIndexAcrossRuns:
    @pytest.mark.parametrize("shards, backend", [(1, "inproc"), (2, "inproc"), (2, "process")],
                             ids=["one-engine", "2xinproc", "process"])
    def test_each_agent_is_named_once_in_launch_order(self, shards, backend):
        # A process shard's digest re-ships the row of an agent that changed
        # since the last one: the name index must not list it twice.
        if backend == "process" and not process_backend_available():
            pytest.skip("cannot fork shard workers on this host")
        with Kernel(lan(["a", "b", "c"]), transport="tcp", config=KernelConfig(
                rng_seed=7, shards=shards, shard_backend=backend)) as kernel:
            launched = []
            for horizon in (0.05, 0.15, None):
                for index in range(6):
                    briefcase = Briefcase()
                    briefcase.set("WORK", 0.02 * (index + 1))
                    launched.append(kernel.launch("a", worker, briefcase, name="paced"))
                kernel.launch("b", worker, name="other")
                kernel.run(until=horizon)
                named = kernel.agents_named("paced")
                assert [entry.agent_id for entry in named] == launched
                if horizon is not None:     # some finished, some still running
                    assert {entry.finished for entry in named} == {True, False}
            assert all(entry.finished for entry in named)
            assert len(kernel.agents_named("other")) == 3


class TestTableUnit:
    def test_state_counts_snapshot(self):
        kernel = ledger_kernel()
        kernel.launch("a", worker)
        kernel.launch("b", broken)
        kernel.run()
        counts = kernel.table.state_counts()
        assert counts["launched"] == 2
        assert counts["completed"] == 1
        assert counts["failed"] == 1
        assert counts["active"] == 0
        assert counts["retained"] == 2

    def test_a_record_round_trips_through_its_row(self):
        kernel = ledger_kernel()
        briefcase = Briefcase()
        briefcase.set("N", [1, 2])
        done = kernel.agent(kernel.launch("a", worker, briefcase, name="rowed"))
        kernel.run()
        row = AgentRecord.row(done)
        assert len(row) == len(AgentRecord.__slots__) == 10
        for record in (AgentRecord(done), AgentRecord(row)):
            assert AgentRecord.row(record) == row
            assert [getattr(record, slot) for slot in AgentRecord.__slots__] == list(row)
        assert (row[1], row[2], row[3], row[4]) == ("rowed", "a", AgentState.DONE, [1, 2])

    @pytest.mark.parametrize("state, finished", [
        ("created", False), ("running", False), ("waiting", False),
        ("done", True), ("failed", True), ("killed", True)])
    def test_a_record_is_finished_exactly_when_its_state_is_terminal(self, state, finished):
        row = ("agent-1", "n", "a", state, None, None, 0, None, 0.0, None)
        assert AgentRecord(row).finished is finished

    def test_a_live_agent_does_not_read_as_finished_on_any_backend(self, backend):
        # A process shard's coordinator builds records of running agents from
        # digest rows: they must read as live, as the engine's instances do.
        with Kernel(lan(["a", "b"]), transport="tcp", config=KernelConfig(
                rng_seed=7, shards=2, shard_backend=backend)) as kernel:
            briefcase = Briefcase()
            briefcase.set("WORK", 5.0)
            agent_id = kernel.launch("a", worker, briefcase)
            kernel.run(until=1.0)
            live = kernel.agent(agent_id)
            assert (live.state, live.finished) == (AgentState.WAITING, False)
            assert [entry.agent_id for entry in kernel.agents.values()
                    if not entry.finished] == [agent_id]
            kernel.run()
            done = kernel.agent(agent_id)
            assert (done.state, done.finished) == (AgentState.DONE, True)

    @pytest.mark.usefixtures("strategy")
    def test_site_handshake_keeps_resident_index_exact(self):
        kernel = ledger_kernel()

        def sleeper(ctx, bc):
            yield ctx.sleep(5)

        agent_id = kernel.launch("a", sleeper)
        kernel.run(until=0.1)
        assert [agent.agent_id for agent in kernel.site("a").residents()] == [agent_id]
        kernel.run()
        assert kernel.site("a").residents() == []

    def test_repr_reads_the_counts(self):
        assert repr(AgentTable()) == "AgentTable(retained=0, launched=0, terminal=0)"


def _child(ctx, bc):
    yield ctx.sleep(0)


def _ends_by(ctx, bc):
    """Spawn one child, then end the way the HOW folder says."""
    yield ctx.spawn(_child)
    how = bc.get("HOW")
    bc.set("SEEN", how)
    if how == "failed":
        raise RuntimeError("boom")
    if how == "terminate":
        yield ctx.terminate("terminated")
    while how in ("crashed", "runaway"):
        yield ctx.sleep(0.01)
    return "done"


#: how an agent ends -> (its site, its final state, its result)
ENDINGS = {
    "done": ("a", AgentState.DONE, "done"),
    "failed": ("a", AgentState.FAILED, None),
    "terminate": ("b", AgentState.DONE, "terminated"),
    "crashed": ("c", AgentState.KILLED, None),      # crash_site
    "runaway": ("b", AgentState.KILLED, None),      # the step budget
}


@pytest.fixture(scope="module", params=["inproc", "process"])
def ended(request):
    """One agent per ending on a two-engine kernel of each backend:
    ``(ledger entries by ending, whether every instance still held has shed)``."""
    if request.param == "process" and not process_backend_available():
        pytest.skip("cannot fork shard workers on this host")
    # The step budget is read on every step, in the coordinator and in the
    # workers forked while the patch holds.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.core.engine.MAX_AGENT_STEPS", 20)
        kernel = Kernel(lan(["a", "b", "c"]), transport="tcp", config=KernelConfig(
            rng_seed=7, shards=2, shard_backend=request.param))
        ids = {}
        for how, (site, _state, _result) in ENDINGS.items():
            briefcase = Briefcase()
            briefcase.set("HOW", how)
            briefcase.set("BALLAST", b"\0" * 256)
            ids[how] = kernel.launch(site, _ends_by, briefcase, name=f"ends-{how}")
        # An in-process caller can hold an instance past its end (a process
        # shard's live entries are records built from digests).
        held = ([kernel.agent(agent_id) for agent_id in ids.values()]
                if request.param == "inproc" else [])
        kernel.run(until=0.1)
        kernel.crash_site("c")
        kernel.run()
    entries = {how: kernel.agent(agent_id) for how, agent_id in ids.items()}
    shed = all(getattr(instance, slot) is None for instance in held
               for slot in ("briefcase", "behaviour", "code", "generator"))
    assert kernel.counters()["launched"] == 2 * len(ENDINGS)     # each with a child
    kernel.close()
    return entries, shed


class TestRetirementSheds:
    @pytest.mark.parametrize("how", list(ENDINGS))
    def test_every_end_sheds_the_luggage_and_keeps_the_record(self, ended, how):
        entries, shed = ended
        entry = entries[how]
        site, state, result = ENDINGS[how]
        assert shed
        assert entry.finished and entry.state == state
        assert entry.result == result
        assert (entry.error is None) == (state == AgentState.DONE)
        if how == "runaway":        # killed on the first step past the patched budget
            assert "step budget" in str(entry.error) and entry.steps == 21
        assert entry.site_name == site
        assert type(entry) is AgentRecord and entry.name == f"ends-{how}"

    def test_a_meet_caller_gets_the_briefcase_the_callee_finished_with(self):
        kernel = ledger_kernel()

        def service(ctx, bc):
            bc.set("ANSWER", 42)
            bc.put("LOG", "first")
            bc.put("LOG", "second")
            bc.remove("QUESTION")
            yield ctx.sleep(0)
            return "served"         # ending, not end_meet, releases the caller

        def client(ctx, bc):
            request = Briefcase()
            request.set("QUESTION", "six by nine")
            met = yield ctx.meet("service", request)
            return (met.value, met.briefcase.names(), met.briefcase.get("ANSWER"),
                    met.briefcase.folder("LOG").elements())

        kernel.install_agent("a", "service", service)
        agent_id = kernel.launch("a", client)
        kernel.run()
        assert kernel.result_of(agent_id) == (
            "served", ["ANSWER", "LOG"], 42, ["first", "second"])
        (callee,) = kernel.agents_named("service")
        assert callee.ok and type(callee) is AgentRecord


class TestLaunchDelayValidation:
    """Regression: launch() silently accepted a negative delay while
    launch_many() raised; both must validate identically."""

    def test_launch_negative_delay_raises(self):
        kernel = ledger_kernel()
        with pytest.raises(KernelError):
            kernel.launch("a", worker, delay=-0.5)
        # Nothing was registered or indexed.
        assert kernel.counters()["launched"] == 0
        assert kernel.agents == {}
        assert kernel.site("a").resident_count() == 0

    def test_launch_many_negative_delay_still_raises(self):
        kernel = ledger_kernel()
        with pytest.raises(KernelError):
            kernel.launch_many([("a", worker)], delay=-0.1)
        assert kernel.counters()["launched"] == 0

    def test_zero_and_positive_delays_accepted(self):
        kernel = ledger_kernel()
        kernel.launch("a", worker, delay=0.0)
        kernel.launch("a", worker, delay=1.5)
        kernel.run()
        assert kernel.counters()["completed"] == 2
