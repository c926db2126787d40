"""Unit tests for the agent model (repro.core.agent) and sites (repro.core.site)."""

from __future__ import annotations

import itertools

import pytest

from repro.core import Briefcase, KernelConfig
from repro.core.agent import AgentInstance, AgentState
from repro.core.engine import Engine
from repro.core.errors import UnknownAgentError
from repro.core.site import Site
from repro.net import lan


def noop(ctx, bc):
    yield None


class TestAgentState:
    def test_terminal_states(self):
        assert AgentState.is_terminal(AgentState.DONE)
        assert AgentState.is_terminal(AgentState.FAILED)
        assert AgentState.is_terminal(AgentState.KILLED)

    def test_non_terminal_states(self):
        for state in (AgentState.CREATED, AgentState.RUNNING, AgentState.WAITING):
            assert not AgentState.is_terminal(state)


class TestAgentInstance:
    ids = itertools.count(1)

    def make(self, **kwargs):
        return AgentInstance(f"agent-{next(self.ids):06d}", noop, "alpha",
                             Briefcase(), **kwargs)

    def test_ids_are_unique(self):
        # The engine that creates an instance mints its id.
        engine = Engine(lan(["alpha"]), KernelConfig(), install_system_agents=False)
        assert engine.launch("alpha", noop) != engine.launch("alpha", noop)

    def test_name_defaults_to_agent_id(self):
        instance = self.make()
        assert instance.name == instance.agent_id

    def test_explicit_name_is_kept(self):
        assert self.make(name="rexec").name == "rexec"

    def test_lifecycle_done(self):
        instance = self.make()
        assert not instance.finished
        instance.mark_running()
        assert instance.state == AgentState.RUNNING
        instance.mark_done("result", at=1.5)
        assert instance.finished and instance.ok
        assert instance.result == "result"
        assert instance.finished_at == 1.5

    def test_lifecycle_failed(self):
        instance = self.make()
        error = ValueError("boom")
        instance.mark_failed(error, at=2.0)
        assert instance.finished and not instance.ok
        assert instance.error is error

    def test_lifecycle_killed(self):
        instance = self.make()
        instance.mark_killed(at=3.0, reason="site crash")
        assert instance.state == AgentState.KILLED
        assert "site crash" in str(instance.error)

    def test_meet_parent_tracking(self):
        parent = self.make()
        child = AgentInstance("agent-child", noop, "alpha",
                              parent_id=parent.agent_id, meet_parent=parent.agent_id)
        assert child.meet_parent == parent.agent_id
        assert child.meet_ended is False
        orphan = self.make()
        assert orphan.meet_ended is True


class TestSite:
    def test_install_resolve(self):
        site = Site("alpha")
        site.install("svc", noop, system=True)
        behaviour, is_system = site.resolve("svc")
        assert behaviour is noop and is_system
        assert site.is_installed("svc")
        assert not site.is_installed("other")

    def test_install_conflict_raises(self):
        site = Site("alpha")
        site.install("svc", noop)

        def other(ctx, bc):
            yield None

        with pytest.raises(UnknownAgentError):
            site.install("svc", other)

    def test_install_same_behaviour_again_is_ok(self):
        site = Site("alpha")
        site.install("svc", noop)
        site.install("svc", noop)

    def test_install_replace(self):
        site = Site("alpha")
        site.install("svc", noop)

        def other(ctx, bc):
            yield None

        site.install("svc", other, replace=True)
        assert site.resolve("svc")[0] is other

    def test_resolve_unknown_raises(self):
        with pytest.raises(UnknownAgentError):
            Site("alpha").resolve("ghost")

    def test_cabinets_created_on_demand(self):
        site = Site("alpha")
        assert not site.has_cabinet("store")
        cabinet = site.cabinet("store")
        assert site.has_cabinet("store")
        assert site.cabinet("store") is cabinet
        assert cabinet in site.cabinets()

    def test_load_metric_scales_with_capacity(self):
        fast = Site("fast", capacity=4.0)
        slow = Site("slow", capacity=1.0)
        assert fast.load_metric(4) == pytest.approx(1.0)
        assert slow.load_metric(4) == pytest.approx(4.0)

    def test_load_metric_includes_background_load(self):
        site = Site("alpha")
        site.background_load = 2.0
        assert site.load_metric(1) == pytest.approx(3.0)

    def test_load_metric_with_zero_capacity_does_not_divide_by_zero(self):
        site = Site("alpha", capacity=0.0)
        assert site.load_metric(1) > 0

    def test_crash_and_recover(self):
        site = Site("alpha")
        site.cabinet("store").put("X", 1)
        site.mark_crashed()
        assert not site.alive
        assert site.crash_count == 1
        site.mark_recovered()
        assert site.alive
        # Cabinets model disk-backed storage and survive the crash.
        assert site.cabinet("store").get("X") == 1

    def test_repr_shows_status(self):
        site = Site("alpha")
        assert "up" in repr(site)
        site.mark_crashed()
        assert "DOWN" in repr(site)
