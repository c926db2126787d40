"""User-facing mail operations: a thin facade over letter agents and mailboxes.

This is what the interactive mail example drives: send a letter, read an
inbox, broadcast an announcement to every site (using the diffusion agent
as the mailing-list transport), all against a running kernel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.apps.mail.letter import LETTER_AGENT_NAME, make_letter
from repro.apps.mail.mailbox import (MAILBOX_AGENT_NAME, MAILBOX_CABINET, inbox_of,
                                     install_mailboxes)
from repro.core.briefcase import Briefcase
from repro.core.kernel import Kernel, KernelConfig
from repro.net.topology import Topology, lan

__all__ = ["MailSystem", "build_mail_kernel"]


def build_mail_kernel(sites: Optional[Sequence[str]] = None,
                      topology: Optional[Topology] = None,
                      transport: str = "tcp", seed: Optional[int] = None,
                      config: Optional[KernelConfig] = None) -> Kernel:
    """A kernel configured for a long-running mail deployment.

    Mail is churn: every letter is a short-lived agent (plus its couriers
    and mailbox meets), and every observable outcome is read back through
    the mailbox cabinets or ``Kernel.result_of`` — never from a terminal
    agent's briefcase, which the lifecycle ledger does not keep.

    The mailbox cabinets are the system's spool: when the kernel runs with
    a durability policy other than "none" they are opted into the durable
    store, so a site crash loses at most the letters filed since the last
    commit/flush instead of silently keeping (or losing) everything.
    """
    if config is not None and seed is not None:
        raise ValueError("pass either seed or a full KernelConfig, not both "
                         "(a seed alongside an explicit config would be "
                         "silently ignored)")
    if topology is None:
        topology = lan(list(sites) if sites is not None
                       else ["tromso", "cornell", "sanfrancisco"])
    if config is None:
        config = KernelConfig(rng_seed=11 if seed is None else seed)
    kernel = Kernel(topology, transport=transport, config=config)
    kernel.make_durable(MAILBOX_CABINET)   # no-op under policy "none"
    return kernel


class MailSystem:
    """A mail deployment over one kernel.

    >>> mail = MailSystem(kernel)            # doctest: +SKIP
    >>> mail.send("dag", "tromso", "fred", "cornell", "hello", "greetings!")
    >>> kernel.run()                         # doctest: +SKIP
    >>> mail.inbox("cornell", "fred")        # doctest: +SKIP
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        install_mailboxes(kernel)
        #: letter ids handed to the system, in send order
        self.sent_letter_ids: List[str] = []

    @classmethod
    def build(cls, sites: Optional[Sequence[str]] = None,
              topology: Optional[Topology] = None, transport: str = "tcp",
              seed: Optional[int] = None,
              config: Optional[KernelConfig] = None) -> "MailSystem":
        """A MailSystem over a fresh :func:`build_mail_kernel` kernel."""
        return cls(build_mail_kernel(sites=sites, topology=topology,
                                     transport=transport, seed=seed,
                                     config=config))

    # -- sending ---------------------------------------------------------------

    def send(self, from_user: str, from_site: str, to_user: str, to_site: str,
             subject: str, body: str, want_receipt: bool = False,
             max_retries: int = 10, retry_interval: float = 0.5,
             delay: float = 0.0) -> str:
        """Launch a letter agent; returns the letter id (not the agent id)."""
        letter = make_letter(from_user, from_site, to_user, to_site, subject, body,
                             want_receipt=want_receipt)
        briefcase = Briefcase()
        briefcase.set("LETTER", letter)
        briefcase.set("MAX_RETRIES", max_retries)
        briefcase.set("RETRY_INTERVAL", retry_interval)
        self.kernel.launch(from_site, LETTER_AGENT_NAME, briefcase, delay=delay)
        self.sent_letter_ids.append(letter["letter_id"])
        return letter["letter_id"]

    def broadcast(self, from_user: str, from_site: str, subject: str, body: str,
                  delay: float = 0.0) -> str:
        """Announce to every site using the diffusion agent as the mailing list.

        The announcement is delivered by meeting each visited site's mailbox
        agent with a LETTER folder addressed to the local user ``"all"``.
        """
        letter = make_letter(from_user, from_site, "all", "*", subject, body)
        briefcase = Briefcase()
        briefcase.set("PAYLOAD", letter)
        briefcase.set("TASK", "mail_announce")
        briefcase.set("ORIGIN", from_site)
        # The TASK agent must exist at every site before the diffusion wave
        # arrives; install it lazily (idempotent).
        self.kernel.install_agent(None, "mail_announce", _announce_behaviour, replace=True)
        self.kernel.launch(from_site, "diffusion", briefcase, delay=delay)
        self.sent_letter_ids.append(letter["letter_id"])
        return letter["letter_id"]

    # -- reading -----------------------------------------------------------------

    def inbox(self, site_name: str, user: str) -> List[Dict[str, object]]:
        """Letters filed for *user* at *site_name*."""
        return inbox_of(self.kernel, site_name, user)

    def delivery_log(self, site_name: str) -> List[Dict[str, object]]:
        """The mailbox cabinet's event log at one site."""
        cabinet = self.kernel.site(site_name).cabinet(MAILBOX_CABINET)
        return [entry for entry in cabinet.elements("log") if isinstance(entry, dict)]

    def outcomes(self, sites: Optional[Sequence[str]] = None) -> List[Dict[str, object]]:
        """Every letter-agent outcome recorded across the given sites (default: all)."""
        results = []
        for site_name in (sites if sites is not None else self.kernel.site_names()):
            cabinet = self.kernel.site(site_name).cabinet(MAILBOX_CABINET)
            for outcome in cabinet.elements("outcomes"):
                if isinstance(outcome, dict):
                    entry = dict(outcome)
                    entry["site"] = site_name
                    results.append(entry)
        return results

    def delivered_count(self) -> int:
        """Letters delivered anywhere in the system so far."""
        return sum(1 for outcome in self.outcomes() if outcome.get("status") == "delivered")


def _announce_behaviour(ctx, briefcase):
    """Diffusion TASK body: file the broadcast letter with the local mailbox."""
    letter = briefcase.get("PAYLOAD")
    if not isinstance(letter, dict):
        yield ctx.sleep(0)
        return 0
    delivery = Briefcase()
    local_copy = dict(letter)
    local_copy["to_site"] = ctx.site_name
    local_copy["delivered_at"] = ctx.now
    delivery.folder("LETTER", create=True).push(local_copy)
    result = yield ctx.meet(MAILBOX_AGENT_NAME, delivery)
    return result.value
