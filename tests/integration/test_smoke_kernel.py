"""End-to-end smoke tests for the core kernel: launch, meet, migrate, diffuse."""

from __future__ import annotations

from repro.core import Briefcase, Kernel
from repro.core.agent import AgentState
from repro.core.codec import code_from_source
from repro.net import FailureSchedule, lan, random_topology


def test_simple_agent_runs_and_returns(lan_kernel: Kernel):
    def hello(ctx, bc):
        bc.put("OUT", f"hello from {ctx.site_name}")
        yield ctx.sleep(0.01)
        return bc.get("OUT")

    agent_id = lan_kernel.launch("alpha", hello)
    lan_kernel.run()
    assert lan_kernel.result_of(agent_id) == "hello from alpha"
    assert lan_kernel.agent(agent_id).state == AgentState.DONE


def test_meet_runs_callee_and_returns_result(lan_kernel: Kernel):
    def service(ctx, bc):
        bc.put("ANSWER", 42)
        yield ctx.end_meet("served")
        # continues concurrently after ending the meet
        ctx.cabinet("log").put("after", ctx.now)
        return "done-after-meet"

    lan_kernel.install_agent("alpha", "service", service)

    def client(ctx, bc):
        request = Briefcase()
        result = yield ctx.meet("service", request)
        return (result.value, request.get("ANSWER"))

    agent_id = lan_kernel.launch("alpha", client)
    lan_kernel.run()
    assert lan_kernel.result_of(agent_id) == ("served", 42)
    # the callee kept running after the meet ended
    assert lan_kernel.site("alpha").cabinet("log").get("after") is not None


def test_agent_migrates_via_rexec(lan_kernel: Kernel):
    """An itinerant agent visits every site by jumping through rexec."""

    def visitor(ctx, bc):
        trail = bc.folder("TRAIL", create=True)
        trail.push(ctx.site_name)
        itinerary = bc.folder("ITINERARY", create=True)
        if itinerary:
            next_site = itinerary.dequeue()
            yield ctx.jump(bc, next_site)
            return "jumped"
        # Last site: record the full trail in the local cabinet.
        ctx.cabinet("results").put("TRAIL", list(trail.elements()))
        return "finished"

    from repro.core.registry import register_behaviour
    register_behaviour("visitor", visitor, replace=True)

    briefcase = Briefcase()
    itinerary = briefcase.folder("ITINERARY", create=True)
    for site in ["beta", "gamma", "delta"]:
        itinerary.enqueue(site)

    lan_kernel.launch("alpha", "visitor", briefcase)
    lan_kernel.run()

    trail = lan_kernel.site("delta").cabinet("results").get("TRAIL")
    assert trail == ["alpha", "beta", "gamma", "delta"]
    assert lan_kernel.stats.migrations == 3


def test_source_shipped_agent_executes_remotely(lan_kernel: Kernel):
    """Shipping raw source demonstrates the 'different machine language' property."""
    source = """
def agent_main(ctx, bc):
    ctx.cabinet("results").put("VISITED", ctx.site_name)
    yield ctx.sleep(0)
    return ctx.site_name
"""

    def launcher(ctx, bc):
        payload = Briefcase()
        payload.set("CODE", code_from_source(source))
        payload.set("HOST", "gamma")
        payload.set("CONTACT", "ag_py")
        result = yield ctx.meet("rexec", payload)
        return result.value

    agent_id = lan_kernel.launch("alpha", launcher)
    lan_kernel.run()
    assert lan_kernel.result_of(agent_id) is True
    assert lan_kernel.site("gamma").cabinet("results").get("VISITED") == "gamma"


def test_source_shipped_agent_jumps_on_with_its_own_source(lan_kernel: Kernel):
    """ag_py hands the agent it starts the source it popped, so the agent
    re-ships that source at every jump, not only at the first."""
    source = """
def agent_main(ctx, bc):
    trail = bc.folder("TRAIL", create=True)
    trail.push(ctx.site_name)
    ctx.cabinet("hops").put("TRAIL", list(trail.elements()))
    itinerary = bc.folder("ITINERARY")
    if itinerary:
        yield ctx.jump(bc, itinerary.dequeue())
    return ctx.site_name
"""

    def launcher(ctx, bc):
        payload = Briefcase()
        payload.set("CODE", code_from_source(source))
        for site in ("beta", "gamma"):
            payload.put("ITINERARY", site)
        payload.set("HOST", "alpha")
        payload.set("CONTACT", "ag_py")
        result = yield ctx.meet("rexec", payload)
        return result.value

    agent_id = lan_kernel.launch("delta", launcher)
    lan_kernel.run()
    assert lan_kernel.result_of(agent_id) is True
    hops = ["alpha", "beta", "gamma"]
    for index, site in enumerate(hops):
        assert lan_kernel.site(site).cabinet("hops").get("TRAIL") == hops[:index + 1]
        assert not lan_kernel.site(site).has_cabinet("_errors")
    assert lan_kernel.stats.migrations == 3


def test_courier_delivers_folder_without_meeting(lan_kernel: Kernel):
    received = {}

    def mailbox(ctx, bc):
        received["payload"] = bc.folder(bc.get("PAYLOAD_NAME")).elements()
        received["site"] = ctx.site_name
        yield ctx.sleep(0)
        return "stored"

    lan_kernel.install_agent("delta", "mailbox", mailbox)

    def sender(ctx, bc):
        from repro.core import Folder
        letter = Folder("LETTER", ["dear delta", "regards alpha"])
        result = yield ctx.send_folder(letter, "delta", "mailbox")
        return result.value

    agent_id = lan_kernel.launch("alpha", sender)
    lan_kernel.run()
    assert lan_kernel.result_of(agent_id) is True
    assert received["site"] == "delta"
    assert received["payload"] == ["dear delta", "regards alta".replace("alta", "alpha")]


def test_diffusion_reaches_every_site_boundedly():
    topo = random_topology(12, edge_probability=0.25, seed=3)
    kernel = Kernel(topo, transport="tcp")
    briefcase = Briefcase()
    briefcase.set("PAYLOAD", "storm warning")
    origin = topo.sites()[0]
    kernel.launch(origin, "diffusion", briefcase)
    kernel.run()

    visited = [
        name for name in kernel.site_names()
        if kernel.site(name).cabinet("diffusion").get("PAYLOAD") == "storm warning"
    ]
    assert sorted(visited) == sorted(kernel.site_names())
    # Bounded: number of migrations is at most one per directed edge, far
    # below the exponential blow-up of naive flooding.
    assert kernel.stats.migrations <= 2 * len(topo.sites()) ** 2


def test_crashed_site_kills_agents_and_refuses_arrivals():
    kernel = Kernel(lan(["a", "b", "c"]), transport="tcp")

    def sleeper(ctx, bc):
        yield ctx.sleep(10.0)
        return "woke"

    victim = kernel.launch("b", sleeper)
    FailureSchedule().crash("b", at=1.0).install(kernel)
    kernel.run()
    assert kernel.agent(victim).state == AgentState.KILLED
    assert not kernel.site("b").alive
