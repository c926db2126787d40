"""Metered migration: charging agents for services to contain runaways (paper section 3).

"We also hoped that electronic cash would provide a mechanism for
controlling run-away agents.  Specifically, charging for services would
limit possible damage by a run-away agent."

The kernel already has a blunt step budget; this module implements the
economic mechanism the paper actually proposes: a *metered* ``rexec`` that
charges a toll (in ECUs, drawn from the travelling agent's own wallet and
validated through the local validation agent) before shipping the agent.
An agent that runs out of cash simply cannot move any further — its damage
radius is bounded by its funding, no matter how buggy or malicious its
code is.

Usage::

    install_metering(kernel, mint, toll=1)
    fund_briefcase(mint, briefcase, amount=5)      # agent can afford 5 hops
    kernel.launch(origin, "runaway", briefcase)    # will be stopped after 5 hops

The metered rexec keeps the standard name ``rexec`` so *every* migration in
the system — including ``ctx.jump`` — goes through the toll booth; the
original behaviour is reinstalled under ``rexec_unmetered`` for system
workloads that must stay free (none of the standard agents need it).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cash.mint import Mint
from repro.cash.validation import VALIDATION_AGENT_NAME, make_validation_behaviour
from repro.cash.wallet import ECUS_FOLDER, Wallet
from repro.core.briefcase import CONTACT_FOLDER, HOST_FOLDER, Briefcase
from repro.core.context import AgentContext
from repro.core.errors import InsufficientFundsError
from repro.core.kernel import Kernel
from repro.net.message import MessageKind

__all__ = ["make_metered_rexec", "install_metering", "fund_briefcase",
           "toll_revenue", "TOLL_CABINET"]

#: site-local cabinet where collected tolls are banked
TOLL_CABINET = "tolls"
#: name the unmetered rexec is preserved under after install_metering
UNMETERED_REXEC = "rexec_unmetered"


def fund_briefcase(mint: Mint, briefcase: Briefcase, amount: int,
                   denomination: int = 1) -> int:
    """Put *amount* ECUs (in ``denomination``-sized coins) into a briefcase wallet."""
    coins = [denomination] * (amount // denomination)
    remainder = amount - sum(coins)
    if remainder:
        coins.append(remainder)
    Wallet(briefcase).deposit(mint.issue_many(coins))
    return amount


def make_metered_rexec(toll: int = 1,
                       validation_agent: str = VALIDATION_AGENT_NAME) -> Callable:
    """Build a rexec behaviour that charges *toll* ECUs per migration.

    The toll is taken from the travelling briefcase's own ``ECUS`` folder,
    validated (and thereby retired) through the local validation agent, and
    banked in the site's ``tolls`` cabinet.  A briefcase that cannot pay is
    not shipped; the meet ends with ``False`` and a ``METERING`` folder
    explains why, so a *legitimate* caller can react (top up, go home),
    while a runaway simply stops spreading.
    """

    def metered_rexec_behaviour(ctx: AgentContext, briefcase: Briefcase):
        host = briefcase.get(HOST_FOLDER)
        contact = briefcase.get(CONTACT_FOLDER, "ag_py")
        if host is None:
            ctx.log("metered rexec: briefcase has no HOST folder")
            yield ctx.end_meet(False)
            return False
        if host == ctx.site_name:
            # Local "moves" are free, exactly like the unmetered rexec.
            result = yield ctx.meet(contact, briefcase)
            yield ctx.end_meet(True)
            return result.value

        if toll > 0:
            wallet = Wallet(briefcase, ECUS_FOLDER)
            try:
                payment, paid_total = wallet.select_payment(toll)
            except InsufficientFundsError:
                briefcase.set("METERING", {"refused": True, "reason": "insufficient funds",
                                           "toll": toll, "balance": wallet.balance(),
                                           "at": ctx.now})
                ctx.cabinet(TOLL_CABINET).put("refusals", {
                    "agent": ctx.agent_name, "toll": toll, "balance": wallet.balance(),
                    "at": ctx.now})
                ctx.log(f"metered rexec: refused transfer to {host!r} "
                        f"(balance {wallet.balance()} < toll {toll})")
                yield ctx.end_meet(False)
                return False

            # Validate (retire) the toll so copies of it are worthless, then
            # bank the fresh replacement coins in the site's toll cabinet.
            validation_request = Briefcase()
            submit = validation_request.folder("SUBMIT", create=True)
            for ecu in payment:
                submit.push(ecu.to_wire())
            result = yield ctx.meet(validation_agent, validation_request)
            validated = result.value or 0
            if validated < toll:
                # The agent tried to pay with bad money; treat as unpaid.
                briefcase.set("METERING", {"refused": True, "reason": "invalid payment",
                                           "toll": toll, "at": ctx.now})
                ctx.cabinet(TOLL_CABINET).put("refusals", {
                    "agent": ctx.agent_name, "toll": toll, "reason": "invalid payment",
                    "at": ctx.now})
                yield ctx.end_meet(False)
                return False
            till = ctx.cabinet(TOLL_CABINET)
            for record in validation_request.folder("FRESH", create=True).elements():
                till.put("collected", record)
            # Overshoot beyond the toll (paying a 5-ECU coin for a 1-ECU toll)
            # is noted rather than refunded — funding with 1-ECU coins avoids
            # it entirely, and a real deployment would run the split protocol
            # of the validation agent here.
            change = validated - toll
            if change > 0:
                briefcase.set("METERING_CHANGE_OWED", change)

        accepted = yield ctx.transmit(host, contact, briefcase,
                                      kind=MessageKind.AGENT_TRANSFER)
        if not accepted:
            ctx.log(f"metered rexec: transfer to {host!r} was refused by the network")
        yield ctx.end_meet(bool(accepted))
        return bool(accepted)

    return metered_rexec_behaviour


def install_metering(kernel: Kernel, mint: Mint, toll: int = 1,
                     validation_behaviour: Optional[Callable] = None) -> None:
    """Meter every migration in *kernel*: toll ECUs per inter-site hop.

    Installs (a) a validation agent backed by *mint* at every site (unless
    one is already installed), (b) the metered rexec under the well-known
    ``rexec`` name, and (c) the original rexec under ``rexec_unmetered``.
    """
    from repro.sysagents.rexec import rexec_behaviour

    validator = validation_behaviour or make_validation_behaviour(mint)
    metered = make_metered_rexec(toll=toll)
    for site_name in kernel.site_names():
        site = kernel.site(site_name)
        if not site.is_installed(VALIDATION_AGENT_NAME):
            site.install(VALIDATION_AGENT_NAME, validator, system=True)
        site.install(UNMETERED_REXEC, rexec_behaviour, system=True, replace=True)
        site.install("rexec", metered, system=True, replace=True)


def toll_revenue(kernel: Kernel) -> int:
    """Total toll value collected across every site (experiment metric)."""
    total = 0
    for site_name in kernel.site_names():
        cabinet = kernel.site(site_name).cabinet(TOLL_CABINET)
        total += sum(int(record.get("amount", 0))
                     for record in cabinet.elements("collected")
                     if isinstance(record, dict))
    return total
