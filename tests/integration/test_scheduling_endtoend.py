"""Integration test: broker scheduling end to end, comparing policies (paper section 4)."""

from __future__ import annotations

import pytest

from repro.core import Briefcase, Kernel, KernelConfig
from repro.net import lan
from repro.scheduling import CLIENT_BEHAVIOUR_NAME, install_scheduling, jains_fairness

PROVIDERS = [
    {"site": "fast", "capacity": 4.0},
    {"site": "medium", "capacity": 2.0},
    {"site": "slow", "capacity": 1.0},
]


def run_workload(policy, n_clients=24, seed=55, with_tickets=False):
    sites = ["home", "brokerage", "fast", "medium", "slow"]
    kernel = Kernel(lan(sites), transport="tcp", config=KernelConfig(rng_seed=seed))
    deployment = install_scheduling(kernel, ["brokerage"], PROVIDERS, policy=policy,
                                    with_tickets=with_tickets, monitor_interval=0.25,
                                    monitor_rounds=16, work_seconds=0.08)
    kernel.run(until=0.5)
    for index in range(n_clients):
        briefcase = Briefcase()
        briefcase.set("HOME", "home")
        briefcase.set("BROKER_SITE", "brokerage")
        briefcase.set("SERVICE", "compute")
        briefcase.set("CLIENT", f"client-{index:02d}")
        kernel.launch("home", CLIENT_BEHAVIOUR_NAME, briefcase, delay=0.5 + index * 0.05)
    kernel.run()
    outcomes = deployment.client_outcomes(["home"])
    return kernel, deployment, outcomes


class TestSchedulingEndToEnd:
    def test_every_client_is_served_under_every_policy(self):
        for policy in ("least-loaded", "random", "round-robin", "weighted-capacity"):
            _, _, outcomes = run_workload(policy, n_clients=12)
            assert len(outcomes) == 12
            assert all(outcome["status"] == "served" for outcome in outcomes), policy

    def test_least_loaded_respects_capacity_differences(self):
        _, deployment, _ = run_workload("least-loaded")
        jobs = deployment.provider_job_counts()
        assert jobs["fast"] > jobs["slow"]
        assert sum(jobs.values()) == 24

    def test_round_robin_is_perfectly_even(self):
        _, deployment, _ = run_workload("round-robin")
        jobs = deployment.provider_job_counts()
        assert jains_fairness(list(jobs.values())) == pytest.approx(1.0)

    def test_least_loaded_finishes_sooner_than_round_robin(self):
        """The load/capacity-aware broker wins on makespan (contended service)."""
        def makespan(policy):
            _, _, outcomes = run_workload(policy)
            return max(outcome["completed_at"] for outcome in outcomes)

        assert makespan("least-loaded") < makespan("round-robin")

    def test_least_loaded_tracks_capacity_where_round_robin_is_blind(self):
        """Paper section 4: requests are distributed "based on load and
        capacity".  The load-aware split is closer to the 4:2:1 capacities
        than the even one, which pushes more work onto the slow site."""
        capacities = {spec["site"]: spec["capacity"] for spec in PROVIDERS}

        def split(policy):
            _, deployment, _ = run_workload(policy)
            jobs = deployment.provider_job_counts()
            error = sum(abs(jobs.get(site, 0) / sum(jobs.values())
                            - capacity / sum(capacities.values()))
                        for site, capacity in capacities.items())
            return jobs, error

        aware_jobs, aware_error = split("least-loaded")
        blind_jobs, blind_error = split("round-robin")
        assert aware_error < blind_error
        assert blind_jobs["slow"] > aware_jobs["slow"]

    def test_ticketed_deployment_serves_and_redeems(self):
        _, deployment, outcomes = run_workload("least-loaded", n_clients=8,
                                               with_tickets=True)
        assert all(outcome["status"] == "served" for outcome in outcomes)
        assert deployment.issuer.redeemed == 8

    def test_broker_assignments_match_served_jobs(self):
        kernel, deployment, outcomes = run_workload("least-loaded", n_clients=10)
        from repro.scheduling import BROKER_CABINET, broker_state
        state = broker_state(kernel.site("brokerage").cabinet(BROKER_CABINET))
        assert sum(state.assignments().values()) == 10
        assert sum(deployment.provider_job_counts().values()) == 10


class TestShardedScheduling:
    def test_broker_load_tables_merge_across_shards(self):
        """Monitors report across shard boundaries; the merged table sees all.

        Two brokers are pinned to different shards and every provider's
        monitor reports to both, so the LOAD_REPORT traffic crosses the
        shard boundary in both directions; merged_load_table then
        assembles the cluster-wide load picture from the per-shard
        cabinets.
        """
        from repro.scheduling import merged_load_table

        sites = ["home", "broker-a", "broker-b", "fast", "medium", "slow"]
        placement = {"home": 0, "broker-a": 0, "broker-b": 1,
                     "fast": 1, "medium": 2, "slow": 3}
        kernel = Kernel(lan(sites), transport="tcp",
                        config=KernelConfig(rng_seed=55, shards=4,
                                            shard_placement=placement))
        install_scheduling(kernel, ["broker-a", "broker-b"], PROVIDERS,
                           monitor_interval=0.25, monitor_rounds=6,
                           work_seconds=0.08)
        kernel.run(until=3.0)

        merged = merged_load_table(kernel, ["broker-a", "broker-b"])
        provider_sites = {spec["site"] for spec in PROVIDERS}
        assert provider_sites <= set(merged)
        # Both brokers individually heard from every provider, including
        # the ones on other shards.
        from repro.scheduling import BROKER_CABINET, BrokerState
        for broker_site in ("broker-a", "broker-b"):
            table = BrokerState(
                kernel.site(broker_site).cabinet(BROKER_CABINET)).loads()
            assert provider_sites <= set(table)
        # Reports genuinely crossed shard boundaries to get there.
        assert kernel.stats.shard_handoffs > 0
        assert kernel.stats.shard_late_arrivals == 0
