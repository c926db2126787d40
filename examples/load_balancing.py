#!/usr/bin/env python
"""Broker-based scheduling: mobile clients, load monitors, and policies.

Section 4 of the paper: brokers are well-known agents that match service
consumers with providers "based on load and capacity", fed by monitor
agents that report site status.  The example deploys one broker, three
compute providers of very different capacity, and a stream of mobile
clients, then compares how evenly each assignment policy spreads the work.
Last, a guardian broker is "the only way to meet with the protected
agent", whose name it keeps secret: it admits one requester and queues
another, by a policy written inline.

Run with::

    python examples/load_balancing.py
"""

from __future__ import annotations

from repro.core import Briefcase, Kernel, KernelConfig
from repro.net import lan
from repro.scheduling import (CLIENT_BEHAVIOUR_NAME, POLICY_NAMES, install_scheduling,
                              jains_fairness, make_guardian_behaviour)


def run_policy(policy: str, n_clients: int = 30):
    """Run one scheduling experiment under the given policy."""
    sites = ["home", "brokerage", "fast", "medium", "slow"]
    kernel = Kernel(lan(sites), transport="tcp", config=KernelConfig(rng_seed=17))
    deployment = install_scheduling(
        kernel,
        broker_sites=["brokerage"],
        provider_specs=[
            {"site": "fast", "capacity": 4.0},
            {"site": "medium", "capacity": 2.0},
            {"site": "slow", "capacity": 1.0},
        ],
        policy=policy,
        monitor_interval=0.25,
        monitor_rounds=20,
        work_seconds=0.08,
    )
    kernel.run(until=0.5)    # let registrations and the first reports land

    for index in range(n_clients):
        briefcase = Briefcase()
        briefcase.set("HOME", "home")
        briefcase.set("BROKER_SITE", "brokerage")
        briefcase.set("SERVICE", "compute")
        briefcase.set("CLIENT", f"client-{index:02d}")
        kernel.launch("home", CLIENT_BEHAVIOUR_NAME, briefcase,
                      delay=0.5 + index * 0.05)
    kernel.run()

    jobs = deployment.provider_job_counts()
    outcomes = deployment.client_outcomes(["home"])
    served = [outcome for outcome in outcomes if outcome["status"] == "served"]
    turnaround = [outcome["completed_at"] for outcome in served]
    return jobs, len(served), jains_fairness(list(jobs.values())), max(turnaround or [0.0])


def protected_agent(ctx, briefcase):
    """The agent only the guardian knows by name."""
    yield ctx.end_meet(f"served {briefcase.get('JOB')}")


def requester(ctx, briefcase):
    """Ask the guardian for a meeting: (admitted, the protected agent's answer
    or the request's place in the queue)."""
    result = yield ctx.meet("guardian", briefcase)
    return result.value, briefcase.get("RESULT" if result.value else "QUEUED_POSITION")


def meet_through_guardian() -> dict:
    """Requester -> (admitted, answer or queue place), through one guardian."""
    kernel = Kernel(lan(["fort"]), transport="tcp", config=KernelConfig(rng_seed=17))
    kernel.install_agent("fort", "protected-7f3a", protected_agent)
    kernel.install_agent("fort", "guardian", make_guardian_behaviour(
        "protected-7f3a", policy=lambda ctx, request: request["requester"] == "alice"))
    agent_ids = {}
    for name in ("alice", "mallory"):
        job = Briefcase()
        job.set("JOB", f"{name}'s job")
        request = Briefcase()
        request.set("REQUESTER", name)
        request.set("REQUEST", job.to_wire())
        agent_ids[name] = kernel.launch("fort", requester, request)
    kernel.run()
    return {name: kernel.result_of(agent_id) for name, agent_id in agent_ids.items()}


def main() -> None:
    print(f"{'policy':<20} {'fast':>5} {'medium':>7} {'slow':>5} "
          f"{'served':>7} {'fairness':>9} {'makespan':>9}")
    for policy in POLICY_NAMES:
        jobs, served, fairness, makespan = run_policy(policy)
        print(f"{policy:<20} {jobs.get('fast', 0):>5} {jobs.get('medium', 0):>7} "
              f"{jobs.get('slow', 0):>5} {served:>7} {fairness:>9.3f} {makespan:>8.2f}s")
    print("\nLoad-aware brokering sends most work to the fast site and finishes sooner;")
    print("load-oblivious policies overload the slow site and stretch the makespan.")

    print("\nA guardian admitting alice only:")
    for name, (admitted, answer) in meet_through_guardian().items():
        print(f"  {name:<8} {'admitted: ' if admitted else 'refused: queued at #'}{answer}")


if __name__ == "__main__":
    main()
