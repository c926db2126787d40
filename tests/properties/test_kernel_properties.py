"""Property-based tests for kernel-level invariants.

These drive whole (small) agent systems with generated parameters and check
global invariants: the agent ledger always balances, itineraries visit what
they were asked to visit, and the diffusion agent covers exactly the
reachable part of the network.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Briefcase, Kernel, KernelConfig, register_behaviour
from repro.core.agent import AgentState
from repro.net import lan, random_topology
from repro.sysagents.diffusion import DIFFUSION_CABINET


def visitor(ctx, bc):
    trail = bc.folder("TRAIL", create=True)
    trail.push(ctx.site_name)
    itinerary = bc.folder("ITINERARY", create=True)
    if itinerary:
        yield ctx.jump(bc, itinerary.dequeue())
        return "moved"
    ctx.cabinet("trail_results").put("TRAIL", list(trail.elements()))
    return "done"


register_behaviour("property_visitor", visitor, replace=True)


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=10),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_itinerant_agent_visits_exactly_the_requested_sites(n_sites, hops, seed):
    sites = [f"s{i}" for i in range(n_sites)]
    kernel = Kernel(lan(sites), transport="tcp", config=KernelConfig(rng_seed=seed))
    import random as _random
    rng = _random.Random(seed)
    itinerary = [rng.choice(sites) for _ in range(hops)]

    briefcase = Briefcase()
    folder = briefcase.folder("ITINERARY", create=True)
    for site in itinerary:
        folder.enqueue(site)
    kernel.launch(sites[0], "property_visitor", briefcase)
    kernel.run()

    final_site = itinerary[-1] if itinerary else sites[0]
    trail = kernel.site(final_site).cabinet("trail_results").get("TRAIL")
    assert trail == [sites[0]] + itinerary
    # Migrations equal the number of inter-site moves (same-site hops are local).
    expected_moves = sum(1 for before, after in zip([sites[0]] + itinerary, itinerary)
                         if before != after)
    assert kernel.stats.migrations == expected_moves


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_agent_ledger_always_balances(n_agents, seed):
    kernel = Kernel(lan(["a", "b", "c"]), transport="tcp",
                    config=KernelConfig(rng_seed=seed))

    def worker(ctx, bc):
        yield ctx.sleep(ctx.rng.random() * 0.1)
        if bc.get("EXPLODE"):
            raise RuntimeError("boom")
        return "ok"

    import random as _random
    rng = _random.Random(seed)
    for index in range(n_agents):
        briefcase = Briefcase()
        if rng.random() < 0.3:
            briefcase.set("EXPLODE", True)
        kernel.launch(rng.choice(["a", "b", "c"]), worker, briefcase)
    kernel.run()

    counters = kernel.counters()
    assert counters["completed"] + counters["failed"] + counters["killed"] == \
        counters["launched"]
    for agent in kernel.agents.values():
        assert AgentState.is_terminal(agent.state)


def _index_helper(ctx, bc):
    yield ctx.end_meet("hi")
    return "helper-done"


def _index_child(ctx, bc):
    yield ctx.sleep(0.02)
    return "child-done"


def _index_worker(ctx, bc):
    action = bc.get("ACTION", "idle")
    if action == "spawn":
        yield ctx.spawn(_index_child)
    elif action == "meet":
        yield ctx.meet("index_helper", Briefcase())
    elif action == "jump":
        # Re-ship ourselves to TARGET via rexec -> network -> arrival, which
        # exercises the arrival path of the index.
        bc.set("ACTION", "idle")
        yield ctx.jump(bc, bc.get("TARGET"))
        return "moved"
    yield ctx.sleep(0.05)
    return "done"


register_behaviour("index_worker", _index_worker, replace=True)


def _assert_index_matches_brute_force(kernel):
    for name in kernel.site_names():
        indexed = sorted(agent.agent_id for agent in kernel.site(name).residents())
        # The O(all agents) ledger scan the index is checked against.
        brute = sorted(agent.agent_id for agent in kernel.agents.values()
                       if agent.site_name == name and not agent.finished)
        assert indexed == brute
        assert kernel.site(name).resident_count() == len(brute)


@given(st.lists(st.tuples(st.sampled_from(["launch", "crash", "recover", "step"]),
                          st.integers(min_value=0, max_value=3)),
                max_size=25),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_per_site_index_always_matches_brute_force_scan(ops, seed):
    """site(s).residents() via the index == the O(all agents) ledger scan, at every
    point of a random launch/meet/spawn/jump/crash/recover/arrival history."""
    sites = [f"s{i}" for i in range(4)]
    kernel = Kernel(lan(sites), transport="tcp", config=KernelConfig(rng_seed=seed))
    for name in sites:
        kernel.install_agent(name, "index_helper", _index_helper)
    import random as _random
    rng = _random.Random(seed)

    for kind, value in ops:
        site = sites[value % len(sites)]
        if kind == "launch":
            briefcase = Briefcase()
            briefcase.set("ACTION", rng.choice(["idle", "spawn", "meet", "jump"]))
            briefcase.set("TARGET", rng.choice(sites))
            kernel.launch(site, "index_worker", briefcase)
        elif kind == "crash":
            kernel.crash_site(site)
        elif kind == "recover":
            kernel.recover_site(site)
        elif kind == "step":
            kernel.run(max_events=5 * (value + 1))
        _assert_index_matches_brute_force(kernel)

    for name in sites:
        kernel.recover_site(name)
    kernel.run()
    _assert_index_matches_brute_force(kernel)
    for name in sites:
        assert kernel.site(name).residents() == []
    counters = kernel.counters()
    assert counters["completed"] + counters["failed"] + counters["killed"] == \
        counters["launched"]


@given(st.integers(min_value=4, max_value=14), st.integers(min_value=0, max_value=100))
@settings(max_examples=25, deadline=None)
def test_diffusion_covers_exactly_the_reachable_sites(n_sites, seed):
    topology = random_topology(n_sites, edge_probability=0.25, seed=seed)
    kernel = Kernel(topology, transport="tcp", config=KernelConfig(rng_seed=seed))
    origin = topology.sites()[0]
    briefcase = Briefcase()
    briefcase.set("PAYLOAD", "wave")
    kernel.launch(origin, "diffusion", briefcase)
    kernel.run()

    covered = {name for name in kernel.site_names()
               if kernel.site(name).cabinet(DIFFUSION_CABINET).get("PAYLOAD") == "wave"}
    reachable = {name for name in kernel.site_names()
                 if topology.can_communicate(origin, name)}
    assert covered == reachable
