"""Integration test: the full electronic-commerce story of paper section 3.

Several shoppers (honest and cheating) travel from their home site to a
market, pay a vendor with untraceable electronic cash, and carry signed
audit records home; a third-party auditor then reconstructs each exchange.
"""

from __future__ import annotations

import pytest

from repro.cash import (Auditor, AuditRecord, KeyDirectory, Mint, VALIDATION_AGENT_NAME,
                        Wallet, identity_for, make_validation_behaviour,
                        make_vendor_behaviour, shopper_behaviour)
from repro.core import Briefcase, Kernel, KernelConfig, register_behaviour
from repro.net import two_clusters

PRICE = 10


def open_market(config):
    """A transatlantic marketplace: shoppers in Tromsø, the vendor at Cornell."""
    kernel = Kernel(two_clusters(["tromso", "narvik"], ["cornell"]), transport="tcp",
                    config=config)
    mint = Mint(seed=77)
    directory = KeyDirectory()
    register_behaviour("shopper", shopper_behaviour, replace=True)
    kernel.install_agent("cornell", VALIDATION_AGENT_NAME,
                         make_validation_behaviour(mint), replace=True)
    kernel.install_agent("cornell", "vendor",
                         make_vendor_behaviour(price=PRICE,
                                               signer=directory.new_signer("vendor-corp")),
                         replace=True)
    return kernel, mint, directory


@pytest.fixture
def marketplace():
    return open_market(KernelConfig(rng_seed=77))


def launch_shopper(kernel, mint, directory, name, cheat=None):
    signer = directory.new_signer(name)
    briefcase = Briefcase()
    briefcase.set("HOME", "tromso")
    briefcase.set("VENDOR_SITE", "cornell")
    briefcase.set("VENDOR_NAME", "vendor")
    briefcase.set("PRICE", PRICE)
    briefcase.set("EXCHANGE_ID", f"exchange-{name}")
    briefcase.set("IDENTITY", identity_for(signer))
    if cheat:
        briefcase.set("CHEAT", cheat)
    if cheat == "double_spend":
        spent = mint.issue_many([PRICE])
        for ecu in spent:
            mint.retire_and_reissue(ecu)
        copies = briefcase.folder("SPENT_COPIES", create=True)
        for ecu in spent:
            copies.push(ecu.to_wire())
    else:
        Wallet(briefcase).deposit(mint.issue_many([5, 5, 5]))
    kernel.launch("tromso", "shopper", briefcase, name=name)


def outcomes(kernel):
    return {entry["exchange_id"]: entry
            for entry in kernel.site("tromso").cabinet("purchases").elements("outcomes")}


def till_value(kernel):
    return sum(record["amount"]
               for record in kernel.site("cornell").cabinet("till").elements("ECUS"))


def test_full_marketplace_run(marketplace):
    kernel, mint, directory = marketplace
    supply_before = 45     # 3 honest shoppers x 15, minted below

    launch_shopper(kernel, mint, directory, "alice")
    launch_shopper(kernel, mint, directory, "bob")
    launch_shopper(kernel, mint, directory, "carol")
    launch_shopper(kernel, mint, directory, "mallory", cheat="double_spend")
    launch_shopper(kernel, mint, directory, "trudy", cheat="claim_paid")
    kernel.run(until=120.0)

    results = outcomes(kernel)
    assert len(results) == 5

    # Honest shoppers got the service and their change.
    for honest in ("alice", "bob", "carol"):
        outcome = results[f"exchange-{honest}"]
        assert outcome["got_service"] is True
        assert outcome["remaining_balance"] == 5

    # The double spender was foiled by the validation agent.
    assert results["exchange-mallory"]["got_service"] is False
    assert mint.double_spend_attempts >= 1

    # The claims-to-have-paid cheat got nothing either.
    assert results["exchange-trudy"]["got_service"] is False

    # Money is conserved: what the honest shoppers kept plus the vendor's
    # till equals what was minted for them (the cheats added nothing real).
    kept = sum(results[f"exchange-{name}"]["remaining_balance"]
               for name in ("alice", "bob", "carol"))
    assert till_value(kernel) + kept == supply_before

    # Audits: the auditor pins the trudy fraud on trudy, and clears alice.
    auditor = Auditor(directory)
    records = [AuditRecord.from_wire(record) for record in
               kernel.site("tromso").cabinet("purchases").elements("audit")]
    witnesses = kernel.site("cornell").cabinet("audit").elements("witness")

    clean = auditor.audit("exchange-alice", records, witness_records=witnesses,
                          expected_price=PRICE)
    assert clean.clean

    fraud = auditor.audit("exchange-trudy", records, witness_records=witnesses,
                          expected_price=PRICE)
    assert not fraud.clean
    assert "trudy" in fraud.guilty


def test_commerce_works_over_every_transport(marketplace):
    _, mint, directory = marketplace
    for transport in ("rsh", "tcp", "horus"):
        kernel = Kernel(two_clusters(["tromso"], ["cornell"]), transport=transport,
                        config=KernelConfig(rng_seed=5))
        kernel.install_agent("cornell", VALIDATION_AGENT_NAME,
                             make_validation_behaviour(mint), replace=True)
        kernel.install_agent("cornell", "vendor",
                             make_vendor_behaviour(price=PRICE,
                                                   signer=directory.new_signer("vendor-corp")),
                             replace=True)
        launch_shopper(kernel, mint, directory, f"traveller-{transport}")
        kernel.run(until=120.0)
        results = outcomes(kernel)
        assert results[f"exchange-traveller-{transport}"]["got_service"] is True


def test_a_durable_till_keeps_every_sale_across_a_crash():
    """Each sale's deposit into the vendor's till is a journaled cabinet write,
    so a till made durable comes back from a crash holding every committed sale."""
    kernel, mint, directory = open_market(
        KernelConfig(rng_seed=77, durability="wal-group-commit"))
    kernel.make_durable("till", sites=["cornell"])
    launch_shopper(kernel, mint, directory, "alice")
    kernel.run(until=60.0)           # the first sale, committed
    launch_shopper(kernel, mint, directory, "bob")
    kernel.run(until=120.0)          # the second, then long past the commit window
    assert till_value(kernel) == 2 * PRICE
    kernel.crash_site("cornell")
    kernel.recover_site("cornell")
    kernel.run(until=150.0)          # the replay completes
    assert kernel.site("cornell").alive
    assert till_value(kernel) == 2 * PRICE
