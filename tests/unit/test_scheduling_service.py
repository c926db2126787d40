"""Unit tests for the scheduling workload layer: providers, clients, deployment."""

from __future__ import annotations

import pytest

from repro.core import Briefcase, Kernel, KernelConfig
from repro.net import lan
from repro.scheduling import (CLIENT_BEHAVIOUR_NAME, SERVICE_AGENT_NAME, install_scheduling,
                              make_compute_service_behaviour)
from repro.scheduling.monitor import make_monitor_behaviour
from repro.scheduling.routing import gossip_convergence, make_gossip_behaviour
from repro.scheduling.broker import BROKER_CABINET, BrokerState


def make_kernel(sites=("home", "brokerage", "s1", "s2"), seed=12):
    return Kernel(lan(list(sites)), transport="tcp", config=KernelConfig(rng_seed=seed))


def launch_client(kernel, index=0, delay=0.5, broker_site="brokerage", home="home"):
    briefcase = Briefcase()
    briefcase.set("HOME", home)
    briefcase.set("BROKER_SITE", broker_site)
    briefcase.set("SERVICE", "compute")
    briefcase.set("CLIENT", f"client-{index}")
    kernel.launch(home, CLIENT_BEHAVIOUR_NAME, briefcase, delay=delay)


class TestComputeService:
    def test_busy_time_scales_with_capacity(self):
        kernel = make_kernel()
        kernel.site("s1").capacity = 4.0
        kernel.site("s2").capacity = 1.0
        behaviour = make_compute_service_behaviour(work_seconds=0.4)
        kernel.install_agent("s1", SERVICE_AGENT_NAME, behaviour, replace=True)
        kernel.install_agent("s2", SERVICE_AGENT_NAME, behaviour, replace=True)

        def client(site):
            def body(ctx, bc):
                result = yield ctx.meet(SERVICE_AGENT_NAME, Briefcase())
                return result.value["busy"]
            return kernel.launch(site, body)

        fast_id = client("s1")
        slow_id = client("s2")
        kernel.run()
        assert kernel.result_of(fast_id) < kernel.result_of(slow_id)

    def test_jobs_are_recorded_in_the_service_cabinet(self):
        kernel = make_kernel()
        kernel.install_agent("s1", SERVICE_AGENT_NAME,
                             make_compute_service_behaviour(work_seconds=0.01), replace=True)

        def client(ctx, bc):
            request = Briefcase()
            request.set("CLIENT", "tester")
            yield ctx.meet(SERVICE_AGENT_NAME, request)
            return "ok"

        kernel.launch("s1", client)
        kernel.run()
        jobs = kernel.site("s1").cabinet("service").elements("jobs")
        assert len(jobs) == 1 and jobs[0]["client"] == "tester"


class TestMonitorAndGossip:
    def test_monitor_reports_reach_remote_broker(self):
        kernel = make_kernel()
        from repro.scheduling import BROKER_AGENT_NAME, make_broker_behaviour
        kernel.install_agent("brokerage", BROKER_AGENT_NAME, make_broker_behaviour(),
                             replace=True)
        kernel.launch("s1", make_monitor_behaviour(["brokerage"], interval=0.2, rounds=3))
        kernel.run()
        state = BrokerState(kernel.site("brokerage").cabinet(BROKER_CABINET))
        assert "s1" in state.loads()
        assert state.reports_seen() >= 1

    def test_local_broker_is_met_without_network_traffic(self):
        kernel = make_kernel(sites=("brokerage",))
        from repro.scheduling import BROKER_AGENT_NAME, make_broker_behaviour
        kernel.install_agent("brokerage", BROKER_AGENT_NAME, make_broker_behaviour(),
                             replace=True)
        kernel.launch("brokerage", make_monitor_behaviour(["brokerage"], rounds=2))
        kernel.run()
        assert kernel.stats.messages_sent == 0
        state = BrokerState(kernel.site("brokerage").cabinet(BROKER_CABINET))
        assert "brokerage" in state.loads()

    def test_gossip_spreads_load_tables_between_brokers(self):
        kernel = make_kernel(sites=("b1", "b2", "s1"))
        from repro.scheduling import BROKER_AGENT_NAME, make_broker_behaviour
        for broker_site in ("b1", "b2"):
            kernel.install_agent(broker_site, BROKER_AGENT_NAME, make_broker_behaviour(),
                                 replace=True)
        # Only b1 hears from the monitor directly.
        kernel.launch("s1", make_monitor_behaviour(["b1"], interval=0.2, rounds=2))
        kernel.run(until=1.0)
        # Gossip from b1 to b2.
        kernel.launch("b1", make_gossip_behaviour(["b2"], interval=0.2, rounds=2))
        kernel.run()
        state_b2 = BrokerState(kernel.site("b2").cabinet(BROKER_CABINET))
        assert "s1" in state_b2.loads()

        convergence = gossip_convergence({
            "b1": BrokerState(kernel.site("b1").cabinet(BROKER_CABINET)),
            "b2": state_b2,
        })
        assert convergence["__coverage__"] == pytest.approx(1.0)

    def test_faster_gossip_costs_more_messages(self):
        """Fresher load tables at the second broker are paid for in
        broker-to-broker traffic over the same six simulated seconds."""
        from repro.scheduling import BROKER_AGENT_NAME, make_broker_behaviour

        def messages(gossip_interval):
            kernel = make_kernel(sites=("b1", "b2", "s1", "s2", "s3"))
            for broker_site in ("b1", "b2"):
                kernel.install_agent(broker_site, BROKER_AGENT_NAME,
                                     make_broker_behaviour(), replace=True)
            for worker in ("s1", "s2", "s3"):      # monitors report to b1 only
                kernel.launch(worker, make_monitor_behaviour(["b1"], interval=0.5,
                                                             rounds=10))
            kernel.launch("b1", make_gossip_behaviour(["b2"], rounds=10,
                                                      interval=gossip_interval))
            kernel.run(until=6.0)
            state_b2 = BrokerState(kernel.site("b2").cabinet(BROKER_CABINET))
            assert {"s1", "s2", "s3"} <= set(state_b2.loads())
            return kernel.stats.messages_sent

        assert messages(0.5) > messages(1.0) > messages(2.0)


class TestDeployment:
    def test_install_scheduling_serves_clients_end_to_end(self):
        kernel = make_kernel()
        deployment = install_scheduling(
            kernel, ["brokerage"],
            [{"site": "s1", "capacity": 2.0}, {"site": "s2", "capacity": 1.0}],
            policy="least-loaded", monitor_rounds=4, work_seconds=0.02)
        kernel.run(until=0.5)
        for index in range(6):
            launch_client(kernel, index, delay=0.5 + index * 0.05)
        kernel.run()

        outcomes = deployment.client_outcomes(["home"])
        assert len(outcomes) == 6
        assert all(outcome["status"] == "served" for outcome in outcomes)
        jobs = deployment.provider_job_counts()
        assert sum(jobs.values()) == 6

    def test_client_with_no_provider_reports_gracefully(self):
        kernel = make_kernel()
        install_scheduling(kernel, ["brokerage"], [], monitor_rounds=1)
        kernel.run(until=0.2)
        launch_client(kernel, 0, delay=0.3)
        kernel.run()
        outcomes = kernel.site("home").cabinet("results").elements("outcomes")
        assert outcomes and outcomes[0]["status"] == "no-provider"

    def test_provider_capacity_is_applied_to_sites(self):
        kernel = make_kernel()
        install_scheduling(kernel, ["brokerage"],
                           [{"site": "s1", "capacity": 7.5}], monitor_rounds=1)
        assert kernel.site("s1").capacity == 7.5

    def test_a_provider_ending_its_meet_with_none_files_refused(self):
        # A meet always resumes its caller with a MeetResult; a user-written
        # provider that ends the meet with no value is the one way to the
        # client's "refused" outcome (the shipped provider always answers).
        kernel = make_kernel()
        install_scheduling(kernel, ["brokerage"], [{"site": "s1"}], monitor_rounds=2)

        def declining(ctx, bc):
            yield ctx.end_meet(None)
            return "declined"

        kernel.install_agent("s1", SERVICE_AGENT_NAME, declining, replace=True)
        kernel.run(until=0.5)
        launch_client(kernel, 0, delay=0.5)
        kernel.run()
        outcomes = kernel.site("home").cabinet("results").elements("outcomes")
        assert [(outcome["status"], outcome["result"], outcome["provider_site"])
                for outcome in outcomes] == [("refused", None, "s1")]
