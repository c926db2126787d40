"""Service providers and scheduled clients: the workload side of paper section 4.

These are the pieces ``tests/integration/test_scheduling_endtoend.py`` and
``examples/load_balancing.py`` launch around the broker machinery:

* :func:`make_compute_service_behaviour` — a provider installed at a site.
  Each request costs ``work / capacity`` simulated seconds, so slow sites
  really are slower, which is what makes load-aware policies win.
* :func:`scheduled_client_behaviour` — a mobile client that consults a
  broker, travels to the assigned provider's site, has the work done, and
  returns home with the result.
* :func:`install_scheduling` — wires brokers, monitors and providers into a
  kernel in one call; returns the handles tests and the example read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.core.briefcase import Briefcase
from repro.core.context import AgentContext
from repro.core.kernel import Kernel
from repro.core.registry import register_behaviour
from repro.scheduling.broker import BROKER_AGENT_NAME, make_broker_behaviour
from repro.scheduling.monitor import make_monitor_behaviour

__all__ = [
    "make_compute_service_behaviour", "scheduled_client_behaviour",
    "install_scheduling", "SchedulingDeployment",
    "SERVICE_AGENT_NAME", "CLIENT_BEHAVIOUR_NAME",
]

#: the well-known name compute providers are installed under
SERVICE_AGENT_NAME = "compute"
#: the registered name of the mobile client behaviour (so it can jump)
CLIENT_BEHAVIOUR_NAME = "scheduled_client"

#: cabinet where providers record the jobs they executed
SERVICE_CABINET = "service"


def make_compute_service_behaviour(work_seconds: float = 0.05) -> Callable:
    """Build a compute-service provider behaviour.

    Each met request costs ``work_seconds / site.capacity`` simulated
    seconds of busy time.
    """

    def compute_behaviour(ctx: AgentContext, briefcase: Briefcase):
        # Service time models contention: the more agents currently active at
        # this site, the longer each request takes, normalised by capacity.
        # ``site_load`` is exactly (active agents + background) / capacity.
        busy = work_seconds * max(1.0 / max(1e-9, _site_capacity(ctx)), ctx.site_load())
        yield ctx.sleep(busy)

        job = {
            "client": briefcase.get("CLIENT", "anonymous"),
            "request": briefcase.get("REQUEST"),
            "site": ctx.site_name,
            "started_at": ctx.now - busy,
            "finished_at": ctx.now,
            "busy": busy,
        }
        ctx.cabinet(SERVICE_CABINET).put("jobs", job)
        briefcase.set("RESULT", {"site": ctx.site_name, "busy": busy,
                                 "finished_at": ctx.now})
        yield ctx.end_meet(briefcase.get("RESULT"))
        return briefcase.get("RESULT")

    return compute_behaviour


def _site_capacity(ctx: AgentContext) -> float:
    """The executing site's declared capacity (reached through the kernel)."""
    return ctx._kernel.site(ctx.site_name).capacity  # noqa: SLF001 - deliberate kernel peek


def scheduled_client_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """A mobile client: ask a broker for a provider, travel there, get served, go home.

    Briefcase folders set by the workload:

    * ``HOME`` — where results are deposited;
    * ``BROKER_SITE`` — which broker to consult;
    * ``SERVICE`` — the service name to acquire;
    * ``CLIENT`` — the client's principal name;
    * ``REQUEST`` — opaque request payload handed to the provider.

    The client is written in the TACOMA state-machine style (PHASE folder)
    because it crosses sites twice.
    """
    phase = briefcase.get("PHASE", "consult")
    broker_site = briefcase.get("BROKER_SITE")
    home = briefcase.get("HOME", ctx.site_name)
    service = briefcase.get("SERVICE", SERVICE_AGENT_NAME)

    if phase == "consult":
        if broker_site is not None and broker_site != ctx.site_name:
            briefcase.set("PHASE", "consult")
            yield ctx.jump(briefcase, broker_site)
            return "travelling-to-broker"

        acquire = Briefcase()
        acquire.set("OP", "acquire")
        acquire.set("SERVICE", service)
        acquire.set("CLIENT", briefcase.get("CLIENT", "anonymous"))
        result = yield ctx.meet(BROKER_AGENT_NAME, acquire)
        provider = result.value
        if provider is None:
            briefcase.set("OUTCOME", {"status": "no-provider", "at": ctx.now})
            briefcase.set("PHASE", "home")
            if home != ctx.site_name:
                yield ctx.jump(briefcase, home)
                return "travelling-home"
        else:
            briefcase.set("PROVIDER", provider)
            briefcase.set("PHASE", "execute")
            if provider["site"] != ctx.site_name:
                yield ctx.jump(briefcase, provider["site"])
                return "travelling-to-provider"

    if briefcase.get("PHASE") == "execute":
        provider = briefcase.get("PROVIDER")
        request = Briefcase()
        request.set("CLIENT", briefcase.get("CLIENT", "anonymous"))
        request.set("REQUEST", briefcase.get("REQUEST"))
        result = yield ctx.meet(provider["agent_name"], request)
        outcome = {
            "status": "refused" if result.value is None else "served",
            "provider_site": provider["site"],
            "result": result.value,
            "finished_at": ctx.now,
        }
        briefcase.set("OUTCOME", outcome)
        briefcase.set("PHASE", "home")
        if home != ctx.site_name:
            yield ctx.jump(briefcase, home)
            return "travelling-home"

    # Home (or never left): deposit the outcome for the workload to collect.
    outcome = briefcase.get("OUTCOME", {"status": "lost"})
    outcome = dict(outcome)
    outcome.setdefault("client", briefcase.get("CLIENT", "anonymous"))
    outcome["completed_at"] = ctx.now
    ctx.cabinet("results").put("outcomes", outcome)
    yield ctx.sleep(0)
    return outcome


register_behaviour(CLIENT_BEHAVIOUR_NAME, scheduled_client_behaviour, replace=True)


@dataclass
class SchedulingDeployment:
    """Handles returned by :func:`install_scheduling` for tests and the example."""

    kernel: Kernel
    broker_sites: List[str]
    provider_sites: List[str]
    monitor_agent_ids: List[str] = field(default_factory=list)

    def provider_job_counts(self) -> Dict[str, int]:
        """Jobs executed per provider site (what the policy comparisons read)."""
        counts = {}
        for site in self.provider_sites:
            cabinet = self.kernel.site(site).cabinet(SERVICE_CABINET)
            counts[site] = len(cabinet.elements("jobs"))
        return counts

    def client_outcomes(self, home_sites: Sequence[str]) -> List[dict]:
        """Every client outcome deposited at the given home sites."""
        outcomes = []
        for site in home_sites:
            outcomes.extend(self.kernel.site(site).cabinet("results").elements("outcomes"))
        return outcomes


def install_scheduling(kernel: Kernel, broker_sites: Sequence[str],
                       provider_specs: Sequence[dict],
                       policy: str = "least-loaded",
                       monitor_interval: float = 0.5,
                       monitor_rounds: int = 10,
                       work_seconds: float = 0.05) -> SchedulingDeployment:
    """Install brokers, monitors and providers into *kernel*.

    ``provider_specs`` is a list of dicts: ``{"site": ..., "capacity": ...}``
    (capacity also updates ``Site.capacity`` so the load metric and the
    service time both reflect it).  Every provider is registered at every
    broker.  Returns a :class:`SchedulingDeployment`.
    """
    broker_behaviour = make_broker_behaviour(policy=policy)
    for broker_site in broker_sites:
        kernel.install_agent(broker_site, BROKER_AGENT_NAME, broker_behaviour, replace=True)

    provider_sites: List[str] = []
    service_behaviour = make_compute_service_behaviour(work_seconds=work_seconds)
    for spec in provider_specs:
        site_name = spec["site"]
        capacity = float(spec.get("capacity", 1.0))
        provider_sites.append(site_name)
        kernel.site(site_name).capacity = capacity
        kernel.install_agent(site_name, SERVICE_AGENT_NAME, service_behaviour, replace=True)
        # Register the provider with every broker by launching a one-shot
        # registration agent at the broker site (ordinary agents do the
        # plumbing — there is no out-of-band configuration channel).
        for broker_site in broker_sites:
            registration = Briefcase()
            registration.set("OP", "register")
            registration.set("SERVICE", spec.get("service", SERVICE_AGENT_NAME))
            registration.set("SITE", site_name)
            registration.set("AGENT", SERVICE_AGENT_NAME)
            registration.set("CAPACITY", capacity)
            kernel.launch(broker_site, _registration_behaviour, registration)

    monitor_ids = []
    monitor_behaviour = make_monitor_behaviour(
        broker_sites, interval=monitor_interval, rounds=monitor_rounds)
    for site_name in provider_sites:
        monitor_ids.append(kernel.launch(site_name, monitor_behaviour,
                                         name=f"monitor-{site_name}"))

    return SchedulingDeployment(kernel=kernel, broker_sites=list(broker_sites),
                                provider_sites=provider_sites,
                                monitor_agent_ids=monitor_ids)


def _registration_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """One-shot agent that registers a provider with the local broker."""
    result = yield ctx.meet(BROKER_AGENT_NAME, briefcase)
    return result.value
