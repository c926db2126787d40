"""Every delivered message is accounted for at its destination.

Nothing reaches a site except a message to an agent there: a delivered
message starts the contact it names (an arrival) or is counted
undeliverable, and a delivered batch envelope does the same for each message
it carries.  So after any run

    messages_delivered - batches + batched_messages == arrivals + undeliverable

on every transport, on one engine and on two, with the delivery fabric off
or on, through a crash and a recovery.
"""

from __future__ import annotations

import random

import pytest

from contracts import fabric_kernel, install_receiver, transmit_n
from repro.core import Briefcase, Folder, Kernel, KernelConfig, register_behaviour
from repro.net import lan

SITES = ["a", "b", "c", "d", "e"]
#: kinds the senders use: the courier's default, the monitors', and one no
#: system agent of this package sends
KINDS = ["folder-delivery", "status", "control"]


def sink(ctx, bc):
    yield ctx.sleep(0)
    return bc.get("PAYLOAD_NAME")


def sender(ctx, bc):
    """Sleep WORK, then courier one folder per (peer, contact, kind) in SENDS."""
    yield ctx.sleep(float(bc.get("WORK")))
    for peer, contact, kind in bc.get("SENDS"):
        yield ctx.send_folder(Folder("NOTE", [ctx.site_name]), peer, contact, kind=kind)
    return "sent"


def hopper(ctx, bc):
    """Jump along ROUTE (rexec agent transfers), then idle a moment."""
    route = bc.folder("ROUTE", create=True)
    if route:
        yield ctx.jump(bc, route.dequeue())
        return "moved"
    yield ctx.sleep(0.01)
    return ctx.site_name


register_behaviour("conservation_sender", sender, replace=True)
register_behaviour("conservation_hopper", hopper, replace=True)


def assert_arrivals_conserved(kernel):
    stats, counters = kernel.stats, kernel.counters()
    assert (stats.messages_delivered - stats.batches + stats.batched_messages
            == counters["arrivals"] + counters["undeliverable"])


def seeded_run(transport, window, seed):
    """Couriers of every kind (some to a contact nobody installed), hopping
    agents, and one site crashed and recovered while traffic is in flight."""
    rng = random.Random(seed)
    kernel = Kernel(lan(SITES, latency=0.01), transport=transport,
                    config=KernelConfig(rng_seed=seed, delivery_batch_window=window))
    kernel.install_agent(None, "sink", sink)
    for _ in range(20):
        briefcase = Briefcase()
        briefcase.set("WORK", rng.uniform(0.0, 0.4))
        briefcase.set("SENDS", [(rng.choice(SITES), rng.choice(["sink"] * 5 + ["nobody"]),
                                 rng.choice(KINDS)) for _ in range(rng.randint(1, 4))])
        kernel.launch(rng.choice(SITES), "conservation_sender", briefcase)
    for _ in range(8):
        briefcase = Briefcase()
        route = briefcase.folder("ROUTE", create=True)
        for _ in range(rng.randint(1, 4)):
            route.enqueue(rng.choice(SITES))
        kernel.launch(rng.choice(SITES), "conservation_hopper", briefcase)
    victim = rng.choice(SITES[1:])
    crash_at = rng.uniform(0.05, 0.35)
    kernel.run(until=crash_at)
    kernel.crash_site(victim)
    kernel.run(until=crash_at + 0.2)
    kernel.recover_site(victim)
    kernel.run()
    return kernel


@pytest.mark.parametrize("window", [0.0, 0.05], ids=["fabric-off", "window-0.05"])
@pytest.mark.parametrize("transport", ["tcp", "rsh", "horus"])
def test_every_delivered_message_is_an_arrival_or_undeliverable(strategy, transport,
                                                                window):
    lost = batched = 0
    for seed in range(4):
        kernel = seeded_run(transport, window, seed)
        assert_arrivals_conserved(kernel)
        assert kernel.stats.messages_delivered > 0
        assert kernel.counters()["arrivals"] > 0 and kernel.counters()["undeliverable"] > 0
        lost += kernel.stats.messages_dropped
        batched += kernel.stats.batched_messages
    assert lost > 0                     # the crash cost some traffic in flight
    assert (batched > 0) == (window > 0)


def test_a_control_transmit_is_an_arrival(strategy):
    def transmitter(ctx, bc):
        payload = Briefcase()
        payload.set("PAYLOAD_NAME", "NOTE")
        accepted = yield ctx.transmit("b", "sink", payload, kind="control")
        return accepted

    kernel = Kernel(lan(["a", "b"], latency=0.01), transport="tcp")
    kernel.install_agent("b", "sink", sink)
    agent_id = kernel.launch("a", transmitter, system=True)
    kernel.run()
    assert kernel.result_of(agent_id) is True
    assert kernel.counters()["arrivals"] == 1
    assert_arrivals_conserved(kernel)


def test_a_batch_lost_in_flight_is_dropped_not_delivered(strategy):
    kernel = fabric_kernel(window=0.05)
    install_receiver(kernel)
    transmit_n(kernel, 3)
    kernel.run(until=0.075)         # flushed at 0.05, due at b at about 0.1
    assert kernel.stats.messages_sent == 1 and kernel.stats.messages_delivered == 0
    kernel.crash_site("b")
    kernel.run()
    assert kernel.stats.messages_dropped == 3
    assert kernel.stats.batches == kernel.stats.batched_messages == 0
    assert_arrivals_conserved(kernel)
