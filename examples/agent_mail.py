#!/usr/bin/env python
"""The agent-based mail system: messages that carry themselves.

Section 6 of the paper: "an interactive mail system where messages are
implemented by agents."  A letter is an agent that travels to the
recipient's site, files itself in the mailbox cabinet there, retries while
the destination is down (store-and-forward), and can send a receipt back.
A broadcast rides the diffusion agent as the mailing-list transport.

Run with::

    python examples/agent_mail.py
"""

from __future__ import annotations

from repro.apps.mail import MailSystem
from repro.core import KernelConfig
from repro.net import FailureSchedule, two_clusters


def main() -> None:
    # Two LANs (Tromso and Cornell) joined by one slow transatlantic link —
    # the paper's own deployment.  MailSystem.build installs a mailbox at
    # every site: letters are churn, their outcomes live in the mailbox
    # cabinets.
    topology = two_clusters(["tromso", "narvik", "bergen"], ["cornell", "ithaca"])
    mail = MailSystem.build(topology=topology, config=KernelConfig(rng_seed=4))
    kernel = mail.kernel

    mail.send("dag", "tromso", "fred", "cornell",
              "TACOMA status", "The rexec agent now runs over Horus.", want_receipt=True)
    mail.send("robbert", "cornell", "dag", "tromso",
              "Re: TACOMA status", "Group communication is holding up well.")

    # ithaca is down when this letter is sent; the letter agent waits at its
    # stranded site and retries until the destination recovers.
    FailureSchedule().crash("ithaca", at=0.0).recover("ithaca", at=4.0).install(kernel)
    mail.send("fred", "cornell", "ken", "ithaca",
              "workshop", "HotOS slides attached.", retry_interval=0.75, delay=0.2)

    # A department-wide announcement delivered by the diffusion agent.
    mail.broadcast("dag", "tromso", "seminar", "Mobile agents seminar on Friday.",
                   delay=5.0)

    kernel.run(until=40.0)

    for user, site in [("fred", "cornell"), ("dag", "tromso"), ("ken", "ithaca")]:
        letters = mail.inbox(site, user)
        print(f"{user}@{site} has {len(letters)} letter(s):")
        for letter in letters:
            print(f"   from {letter['from_user']:<10} {letter['subject']!r}")
    reached = [site for site in kernel.site_names()
               if any(letter["subject"] == "seminar" for letter in mail.inbox(site, "all"))]
    print(f"\nbroadcast reached {len(reached)}/{len(kernel.site_names())} sites: {reached}")
    print(f"letters delivered in total: {mail.delivered_count()}")


if __name__ == "__main__":
    main()
