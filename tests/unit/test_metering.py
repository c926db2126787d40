"""Unit tests for metered migration (electronic cash as runaway containment)."""

from __future__ import annotations

import pytest

from repro.cash import Mint, Wallet
from repro.cash.metering import (TOLL_CABINET, UNMETERED_REXEC, fund_briefcase,
                                 install_metering, make_metered_rexec, toll_revenue)
from repro.core import Briefcase, Kernel, KernelConfig, register_behaviour
from repro.core.codec import code_for
from repro.net import lan
from scenarios import RECORDER_NAME, recorded_arrivals


def hopper(ctx, bc):
    """Visit the next site in HOPS_LEFT order; record where it was stopped."""
    remaining = bc.folder("ROUTE", create=True)
    bc.put("TRAIL", ctx.site_name)
    if remaining:
        target = remaining.dequeue()
        result = yield ctx.jump(bc, target)
        if not result.value:
            ctx.cabinet("halted").put("at", {"site": ctx.site_name,
                                             "hops_done": len(bc.folder("TRAIL")) - 1})
            return "halted"
        return "moved"
    return "finished"


register_behaviour("metered_hopper", hopper, replace=True)


def runaway(ctx, bc):
    """Hop round-robin forever (until something stops it)."""
    sites = ctx.sites()
    target = sites[(sites.index(ctx.site_name) + 1) % len(sites)]
    bc.set("HOPS", bc.get("HOPS", 0) + 1)
    result = yield ctx.jump(bc, target)
    if not result.value:
        ctx.cabinet("halted").put("at", {"hops": bc.get("HOPS")})
        return "halted"
    return "moved"


register_behaviour("metered_runaway", runaway, replace=True)


@pytest.fixture
def world():
    kernel = Kernel(lan([f"s{i}" for i in range(4)]), transport="tcp",
                    config=KernelConfig(rng_seed=2))
    mint = Mint(seed=2)
    install_metering(kernel, mint, toll=1)
    return kernel, mint


def halted_records(kernel):
    records = []
    for site in kernel.site_names():
        records.extend(kernel.site(site).cabinet("halted").elements("at"))
    return records


class TestFunding:
    def test_fund_briefcase_deposits_requested_amount(self):
        mint = Mint(seed=1)
        briefcase = Briefcase()
        assert fund_briefcase(mint, briefcase, 7) == 7
        assert Wallet(briefcase).balance() == 7

    def test_fund_with_larger_denomination(self):
        mint = Mint(seed=1)
        briefcase = Briefcase()
        fund_briefcase(mint, briefcase, 10, denomination=3)
        wallet = Wallet(briefcase)
        assert wallet.balance() == 10
        assert sorted(ecu.amount for ecu in wallet.ecus()) == [1, 3, 3, 3]


class TestInstallation:
    def test_metered_rexec_replaces_the_standard_one(self, world):
        kernel, _ = world
        for site in kernel.site_names():
            assert kernel.site(site).is_installed("rexec")
            assert kernel.site(site).is_installed(UNMETERED_REXEC)
            assert kernel.site(site).is_installed("validation")

    def test_existing_validation_agent_is_kept(self):
        from repro.cash import VALIDATION_AGENT_NAME, make_validation_behaviour
        kernel = Kernel(lan(["a", "b"]), config=KernelConfig(rng_seed=1))
        mint = Mint(seed=1)
        original = make_validation_behaviour(mint)
        kernel.install_agent("a", VALIDATION_AGENT_NAME, original, system=True)
        install_metering(kernel, mint, toll=1)
        assert kernel.site("a").resolve(VALIDATION_AGENT_NAME)[0] is original


class TestTollCollection:
    def test_funded_agent_travels_and_pays_per_hop(self, world):
        kernel, mint = world
        briefcase = Briefcase()
        fund_briefcase(mint, briefcase, 3)
        route = briefcase.folder("ROUTE", create=True)
        route.extend(["s1", "s2", "s3"])
        kernel.launch("s0", "metered_hopper", briefcase)
        kernel.run()
        assert kernel.stats.migrations == 3
        assert toll_revenue(kernel) == 3
        assert halted_records(kernel) == []

    def test_underfunded_agent_is_stopped_midway(self, world):
        kernel, mint = world
        briefcase = Briefcase()
        fund_briefcase(mint, briefcase, 2)
        route = briefcase.folder("ROUTE", create=True)
        route.extend(["s1", "s2", "s3"])
        kernel.launch("s0", "metered_hopper", briefcase)
        kernel.run()
        assert kernel.stats.migrations == 2
        halted = halted_records(kernel)
        assert halted and halted[0]["site"] == "s2"
        # The refusal is documented at the refusing site.
        refusals = [record for site in kernel.site_names()
                    for record in kernel.site(site).cabinet(TOLL_CABINET).elements("refusals")]
        assert refusals and refusals[0]["balance"] == 0

    def test_runaway_damage_is_bounded_by_its_funding(self, world):
        kernel, mint = world
        briefcase = Briefcase()
        fund_briefcase(mint, briefcase, 5)
        kernel.launch("s0", "metered_runaway", briefcase)
        kernel.run(max_events=200_000)
        assert kernel.stats.migrations == 5
        assert toll_revenue(kernel) == 5
        assert kernel.counters()["killed"] == 0       # stopped by its wallet, not by the kernel

    def test_step_budget_alone_does_not_contain_a_hopping_runaway(self, monkeypatch):
        """Why the paper reaches for cash: every hop starts a fresh instance
        with a fresh step budget, so the kernel's per-agent limit never
        trips and the unmetered runaway spreads until the operator (here:
        the event cap) pulls the plug — far past what 5 ECUs bought above."""
        monkeypatch.setattr("repro.core.engine.MAX_AGENT_STEPS", 400)
        kernel = Kernel(lan([f"s{i}" for i in range(4)]), transport="tcp",
                        config=KernelConfig(rng_seed=2))
        kernel.launch("s0", "metered_runaway", Briefcase())
        kernel.run(max_events=10_000)
        assert kernel.counters()["killed"] == 0
        assert kernel.stats.migrations > 20 * 5

    def test_unfunded_agent_never_leaves_its_site(self, world):
        kernel, mint = world
        briefcase = Briefcase()
        kernel.launch("s0", "metered_runaway", briefcase)
        kernel.run(max_events=50_000)
        assert kernel.stats.migrations == 0

    def test_local_moves_are_free(self, world):
        kernel, mint = world

        def local_mover(ctx, bc):
            request = Briefcase()
            request.set("HOST", ctx.site_name)
            request.set("CODE", code_for(RECORDER_NAME))
            result = yield ctx.meet("rexec", request)
            return result.value

        agent_id = kernel.launch("s0", local_mover)
        kernel.run()
        assert kernel.result_of(agent_id) is True
        assert [record["site"] for record in recorded_arrivals(kernel, "s0")] == ["s0"]
        assert toll_revenue(kernel) == 0

    def test_toll_of_zero_behaves_like_unmetered(self):
        kernel = Kernel(lan(["a", "b"]), config=KernelConfig(rng_seed=1))
        mint = Mint(seed=1)
        install_metering(kernel, mint, toll=0)
        briefcase = Briefcase()
        route = briefcase.folder("ROUTE", create=True)
        route.extend(["b"])
        kernel.launch("a", "metered_hopper", briefcase)
        kernel.run()
        assert kernel.stats.migrations == 1
        assert toll_revenue(kernel) == 0

    def test_money_supply_is_conserved_by_tolls(self, world):
        kernel, mint = world
        briefcase = Briefcase()
        fund_briefcase(mint, briefcase, 4)
        supply = mint.outstanding_value()
        route = briefcase.folder("ROUTE", create=True)
        route.extend(["s1", "s2"])
        kernel.launch("s0", "metered_hopper", briefcase)
        kernel.run()
        assert mint.outstanding_value() == supply

    def test_missing_host_is_still_refused(self, world):
        kernel, _ = world

        def confused(ctx, bc):
            result = yield ctx.meet("rexec", Briefcase())
            return result.value

        agent_id = kernel.launch("s0", confused)
        kernel.run()
        assert kernel.result_of(agent_id) is False
