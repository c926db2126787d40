"""Letter agents: mail messages that are themselves mobile agents.

The mail system of paper section 6 implements "messages ... by agents": a
letter is not a passive payload handed to an MTA, it is an agent that
carries its own content, travels to the recipient's site, negotiates with
the mailbox there, retries while the destination is down (store-and-forward
at whatever site it is currently stranded on), and can send a delivery
receipt back — all using nothing but ``meet``, ``rexec`` and the courier.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.apps.mail.mailbox import MAILBOX_AGENT_NAME, MAILBOX_CABINET
from repro.core.briefcase import Briefcase
from repro.core.context import AgentContext
from repro.core.folder import Folder
from repro.core.registry import register_behaviour

__all__ = ["letter_agent_behaviour", "LETTER_AGENT_NAME", "make_letter",
           "RECEIPT_FOLDER"]

#: registered name of the letter agent (needed so it can jump between sites)
LETTER_AGENT_NAME = "letter_agent"
#: folder used for couriered delivery receipts
RECEIPT_FOLDER = "LETTER"

_letter_ids = itertools.count(1)


def make_letter(from_user: str, from_site: str, to_user: str, to_site: str,
                subject: str, body: str, want_receipt: bool = False,
                letter_id: Optional[str] = None) -> Dict[str, object]:
    """Build the letter record a letter agent carries."""
    return {
        "letter_id": letter_id or f"letter-{next(_letter_ids):06d}",
        "from_user": from_user, "from_site": from_site,
        "to_user": to_user, "to_site": to_site,
        "subject": subject, "body": body,
        "want_receipt": bool(want_receipt),
        "sent_at": None,          # stamped when the agent first runs
        "delivered_at": None,     # stamped by the agent at delivery time
        "hops": 0,
    }


def letter_agent_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """Carry the letter to its destination site and file it in the mailbox there.

    Briefcase folders:

    * ``LETTER`` — the letter record (exactly one element);
    * ``MAX_RETRIES`` / ``RETRY_INTERVAL`` — store-and-forward knobs used
      while the destination site is unreachable;
    * ``RETRIES`` — how many delivery attempts have been made so far.

    Outcomes recorded in the current site's ``mailbox`` cabinet under
    ``outcomes``: ``delivered``, ``gave-up``.
    """
    letter = briefcase.get("LETTER")
    if not isinstance(letter, dict):
        yield ctx.sleep(0)
        return "malformed-letter"

    letter = dict(letter)
    if letter.get("sent_at") is None:
        letter["sent_at"] = ctx.now
    max_retries = int(briefcase.get("MAX_RETRIES", 10))
    retry_interval = float(briefcase.get("RETRY_INTERVAL", 0.5))
    retries = int(briefcase.get("RETRIES", 0))
    destination = letter["to_site"]

    if ctx.site_name != destination:
        # Not there yet: try to move.  A refused transfer means the
        # destination is down or unreachable — wait and retry from here,
        # which is store-and-forward at the stranded site.
        letter["hops"] = int(letter.get("hops", 0)) + 1
        briefcase.set("LETTER", letter)
        while retries <= max_retries:
            shipment = briefcase.copy()
            move = ctx.jump(shipment, destination)
            result = yield move
            if result.value:
                return "forwarded"
            retries += 1
            briefcase.set("RETRIES", retries)
            ctx.cabinet(MAILBOX_CABINET).put(
                "log", {"event": "retry", "letter_id": letter.get("letter_id"),
                        "attempt": retries, "at": ctx.now})
            yield ctx.sleep(retry_interval)
        ctx.cabinet(MAILBOX_CABINET).put(
            "outcomes", {"status": "gave-up", "letter_id": letter.get("letter_id"),
                         "at": ctx.now, "stranded_at": ctx.site_name})
        return "gave-up"

    # At the destination: file the letter with the local mailbox agent.
    letter["delivered_at"] = ctx.now
    delivery = Briefcase()
    delivery_folder = delivery.folder("LETTER", create=True)
    delivery_folder.push(letter)
    result = yield ctx.meet(MAILBOX_AGENT_NAME, delivery)
    filed = result.value

    ctx.cabinet(MAILBOX_CABINET).put(
        "outcomes", {"status": "delivered" if filed else "mailbox-refused",
                     "letter_id": letter.get("letter_id"), "at": ctx.now,
                     "hops": letter.get("hops", 0)})

    # Optional delivery receipt, sent back as a couriered letter record
    # (cheaper than a whole agent for a one-line notification).
    if filed and letter.get("want_receipt") and letter.get("from_site") != ctx.site_name:
        receipt = {
            "letter_id": f"receipt-for-{letter.get('letter_id')}",
            "from_user": "postmaster", "from_site": ctx.site_name,
            "to_user": letter.get("from_user"), "to_site": letter.get("from_site"),
            "subject": f"delivered: {letter.get('subject')}",
            "body": f"your letter {letter.get('letter_id')} was delivered at {ctx.now:.3f}",
            "want_receipt": False, "sent_at": ctx.now, "delivered_at": None, "hops": 0,
        }
        yield ctx.send_folder(Folder(RECEIPT_FOLDER, [receipt]),
                              letter["from_site"], MAILBOX_AGENT_NAME)

    return "delivered" if filed else "mailbox-refused"


register_behaviour(LETTER_AGENT_NAME, letter_agent_behaviour, replace=True)
