"""Exchanging funds for services: vendors, shoppers, and cheats (paper section 3).

"It must not be possible to obtain a service without paying for it or to
pay without obtaining the service."  The paper rejects transactions and
relies on documented actions plus audits.  This module provides the two
participant behaviours the experiments use:

* :func:`make_vendor_behaviour` — a service provider installed at a site
  under a well-known name.  It validates payment through the local
  validation agent (retiring the customer's ECUs), provides the service,
  and documents what it did.
* :func:`shopper_behaviour` — a mobile customer that travels to the vendor's
  site, pays out of the wallet in its briefcase, consumes the service,
  documents its side, and carries the audit records home.

Both sides support the cheating modes the paper worries about, so
``tests/integration/test_commerce.py`` can show that the validation agent
stops double spending and that audits attribute the remaining frauds
correctly:

* customer ``"double_spend"`` — pays with copies of already-spent ECUs;
* customer ``"claim_paid"`` — pays nothing but documents a payment;
* vendor ``"no_service"`` — accepts payment and provides nothing;
* vendor ``"deny_payment"`` — accepts payment but documents nothing.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.cash.audit import make_record
from repro.cash.crypto import Signer
from repro.cash.validation import VALIDATION_AGENT_NAME
from repro.cash.wallet import ECUS_FOLDER, Wallet
from repro.core.briefcase import Briefcase
from repro.core.context import AgentContext
from repro.core.errors import InsufficientFundsError

__all__ = ["make_vendor_behaviour", "shopper_behaviour", "identity_for", "signer_from_identity"]


# ---------------------------------------------------------------------------
# identities carried in briefcases
# ---------------------------------------------------------------------------

def identity_for(signer: Signer) -> Dict[str, str]:
    """The briefcase-carriable form of a principal's signing identity (toy crypto)."""
    return {"principal": signer.principal, "secret_hex": signer._secret.hex()}  # noqa: SLF001


def signer_from_identity(identity: Dict[str, str]) -> Signer:
    """Rebuild a signer from :func:`identity_for` output."""
    return Signer(identity["principal"], secret=bytes.fromhex(identity["secret_hex"]))


# ---------------------------------------------------------------------------
# the vendor (service provider)
# ---------------------------------------------------------------------------

def make_vendor_behaviour(price: int, signer: Signer,
                          service: Optional[Callable[[Briefcase], object]] = None,
                          service_name: str = "service",
                          cheat: Optional[str] = None) -> Callable:
    """Build a vendor behaviour with the given price, identity and (optional) cheat."""

    def default_service(briefcase: Briefcase) -> object:
        return {"service": service_name, "exchange": briefcase.get("EXCHANGE_ID")}

    provide = service or default_service

    def vendor_behaviour(ctx: AgentContext, briefcase: Briefcase):
        exchange_id = briefcase.get("EXCHANGE_ID", f"exchange-{ctx.agent_id}")
        audit_cabinet = ctx.cabinet("audit")
        till = ctx.cabinet("till")

        # 1. Validate whatever payment the customer handed over.  The
        #    submitted records are retired by the mint, so copies held by the
        #    customer become worthless — this is the double-spend defence.
        validation_request = Briefcase()
        if briefcase.has("PAYMENT"):
            submit = validation_request.folder("SUBMIT", create=True)
            for record in briefcase.folder("PAYMENT").elements():
                submit.push(record)
        validation_request.set("EXCHANGE_ID", exchange_id)
        result = yield ctx.meet(VALIDATION_AGENT_NAME, validation_request)
        validated_total = result.value or 0

        rejected = []
        if validation_request.has("REJECTED"):
            rejected = validation_request.folder("REJECTED").elements()
        if rejected:
            briefcase.set("PAYMENT_REJECTED", [entry["reason"] for entry in rejected])

        paid_enough = validated_total >= price

        # 2. Bank the fresh (reissued) ECUs in the site-local till.
        if validation_request.has("FRESH"):
            Wallet(till).deposit(
                [_ecu_from(record) for record in validation_request.folder("FRESH").elements()])

        # 3. Document the vendor's side (unless it is the denying cheat).
        if paid_enough and cheat != "deny_payment":
            record = make_record(signer, exchange_id, "provider", "received-payment",
                                 validated_total, ctx.now)
            audit_cabinet.put("records", record.to_wire())
            briefcase.folder("AUDIT", create=True).push(record.to_wire())

        # 4. Provide the service (unless cheating or unpaid).
        provided = False
        if paid_enough and cheat not in ("no_service", "deny_payment"):
            briefcase.set("SERVICE_RESULT", provide(briefcase))
            provided = True
            record = make_record(signer, exchange_id, "provider", "provided-service",
                                 price, ctx.now)
            audit_cabinet.put("records", record.to_wire())
            briefcase.folder("AUDIT", create=True).push(record.to_wire())

        # 5. Return change, if the till can make it.
        change_due = max(0, validated_total - price) if paid_enough else validated_total
        if change_due > 0 and cheat is None:
            try:
                Wallet(till).pay_into(briefcase, change_due, folder_name="CHANGE")
            except InsufficientFundsError:
                briefcase.set("CHANGE_OWED", change_due)

        summary = {
            "exchange_id": exchange_id,
            "validated_total": validated_total,
            "paid_enough": paid_enough,
            "provided": provided,
            "rejected": len(rejected),
        }
        briefcase.set("VENDOR_SUMMARY", summary)
        yield ctx.end_meet(summary)
        return summary

    return vendor_behaviour


def _ecu_from(record):
    from repro.cash.ecu import ECU
    return ECU.from_wire(record)


# ---------------------------------------------------------------------------
# the shopper (mobile customer)
# ---------------------------------------------------------------------------

def shopper_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """A mobile customer: travel to the vendor, pay, consume, document, go home.

    Briefcase folders (set up by the workload that launches the shopper):

    * ``HOME`` / ``VENDOR_SITE`` / ``VENDOR_NAME`` — itinerary;
    * ``PRICE`` — agreed price;
    * ``EXCHANGE_ID`` — identifier both parties use in audit records;
    * ``IDENTITY`` — :func:`identity_for` of the customer's signer;
    * ``ECUS`` — the wallet;
    * ``CHEAT`` — optional cheat mode (``"double_spend"`` / ``"claim_paid"``);
    * ``SPENT_COPIES`` — for the double spender: ECU records it already spent.

    Results deposited at HOME in the ``purchases`` cabinet: the vendor
    summary, audit records of both sides, and whether the service arrived.
    """
    home = briefcase.get("HOME")
    vendor_site = briefcase.get("VENDOR_SITE")
    vendor_name = briefcase.get("VENDOR_NAME", "vendor")
    price = briefcase.get("PRICE", 0)
    exchange_id = briefcase.get("EXCHANGE_ID", f"exchange-{ctx.agent_id}")
    cheat = briefcase.get("CHEAT")
    phase = briefcase.get("PHASE", "start")

    if phase == "start" and ctx.site_name != vendor_site:
        briefcase.set("PHASE", "shop")
        yield ctx.jump(briefcase, vendor_site)
        return "travelling-to-vendor"

    if phase in ("start", "shop") and ctx.site_name == vendor_site:
        signer = signer_from_identity(briefcase.get("IDENTITY"))
        wallet = Wallet(briefcase, ECUS_FOLDER)
        purchase = Briefcase()
        purchase.set("EXCHANGE_ID", exchange_id)
        purchase.set("CUSTOMER", signer.principal)

        paid_amount = 0
        payment = purchase.folder("PAYMENT", create=True)
        if cheat == "double_spend" and briefcase.has("SPENT_COPIES"):
            for record in briefcase.folder("SPENT_COPIES").elements():
                payment.push(record)
                paid_amount += int(record.get("amount", 0))
        elif cheat == "claim_paid":
            paid_amount = 0  # hands over nothing at all
        else:
            try:
                paid_amount = wallet.pay_into(purchase, price, folder_name="PAYMENT")
            except InsufficientFundsError:
                briefcase.set("OUTCOME", "insufficient-funds")
                paid_amount = 0

        # Document the customer's side.  The honest customer documents what
        # it actually paid; the "claim_paid" cheat documents the full price.
        documented = price if cheat == "claim_paid" else paid_amount
        if documented > 0 or cheat == "claim_paid":
            record = make_record(signer, exchange_id, "customer", "paid",
                                 documented, ctx.now)
            briefcase.folder("AUDIT", create=True).push(record.to_wire())

        summary = None
        if paid_amount > 0 or cheat in ("claim_paid", "double_spend"):
            result = yield ctx.meet(vendor_name, purchase)
            summary = result.value

        # Collect results: service, change, and the vendor's audit records.
        if purchase.has("SERVICE_RESULT"):
            briefcase.set("SERVICE_RESULT", purchase.get("SERVICE_RESULT"))
            record = make_record(signer, exchange_id, "customer", "received-service",
                                 price, ctx.now)
            briefcase.folder("AUDIT", create=True).push(record.to_wire())
        if purchase.has("CHANGE"):
            Wallet(briefcase, ECUS_FOLDER).deposit(
                [_ecu_from(rec) for rec in purchase.folder("CHANGE").elements()])
        if purchase.has("AUDIT"):
            audit = briefcase.folder("AUDIT", create=True)
            for record in purchase.folder("AUDIT").elements():
                audit.push(record)
        briefcase.set("VENDOR_SUMMARY", purchase.get("VENDOR_SUMMARY", summary))

        briefcase.set("PHASE", "home")
        if home is not None and home != ctx.site_name:
            yield ctx.jump(briefcase, home)
            return "travelling-home"
        # fall through when home is the vendor site

    if briefcase.get("PHASE") == "home" or ctx.site_name == home:
        outcome = {
            "exchange_id": exchange_id,
            "got_service": briefcase.has("SERVICE_RESULT"),
            "vendor_summary": briefcase.get("VENDOR_SUMMARY"),
            "remaining_balance": Wallet(briefcase, ECUS_FOLDER).balance(),
            "cheat": cheat,
            "outcome": briefcase.get("OUTCOME", "completed"),
        }
        cabinet = ctx.cabinet("purchases")
        cabinet.put("outcomes", outcome)
        if briefcase.has("AUDIT"):
            for record in briefcase.folder("AUDIT").elements():
                cabinet.put("audit", record)
        yield ctx.sleep(0)
        return outcome
    return "unexpected-phase"
