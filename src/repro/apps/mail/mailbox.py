"""Mailboxes: file cabinets holding delivered letters (paper section 6).

"We have started to build an interactive mail system where messages are
implemented by agents."  Messages travel as agents
(:mod:`repro.apps.mail.letter`); what they travel *to* is a mailbox agent
installed at every participating site, which files delivered letters into
the site-local ``mailbox`` cabinet — one folder per local user.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.briefcase import Briefcase
from repro.core.context import AgentContext, wait_until_durable
from repro.core.folder import Folder
from repro.core.kernel import Kernel

__all__ = ["mailbox_behaviour", "MAILBOX_AGENT_NAME", "MAILBOX_CABINET",
           "inbox_of", "install_mailboxes"]

#: well-known name of the mailbox agent
MAILBOX_AGENT_NAME = "mailbox"
#: site-local cabinet where letters are filed
MAILBOX_CABINET = "mailbox"


def mailbox_behaviour(ctx: AgentContext, briefcase: Briefcase):
    """File arriving letters, or answer local list/read/delete requests.

    Two request shapes are accepted:

    * a ``LETTER`` folder (one or more letter records) — the delivery path
      used by letter agents and couriered receipts;
    * an ``OP`` folder with ``"list"`` / ``"read"`` / ``"delete"`` plus a
      ``USER`` folder — the local interactive path (what a mail reader
      application meets the mailbox with).
    """
    cabinet = ctx.cabinet(MAILBOX_CABINET)

    if briefcase.has("LETTER"):
        filed = 0
        for letter in briefcase.folder("LETTER").elements():
            if not isinstance(letter, dict) or "to_user" not in letter:
                cabinet.put("rejected", letter)
                continue
            cabinet.put(f"user:{letter['to_user']}", letter)
            cabinet.put("log", {"event": "delivered", "letter_id": letter.get("letter_id"),
                                "to_user": letter["to_user"], "at": ctx.now})
            filed += 1
        briefcase.set("FILED", filed)
        yield ctx.end_meet(filed)
        # The spool is this system's durable record: under an explicit-flush
        # policy the mailbox itself is the flush point (group-commit
        # policies sync in the background, "none" is a no-op).  Flushing
        # after end_meet keeps delivery latency out of the sender's meet.
        store = ctx.store
        if filed and store is not None and not store.group_commit:
            yield from wait_until_durable(ctx)
        return filed

    operation = briefcase.get("OP")
    user = briefcase.get("USER")
    if operation is None or user is None:
        briefcase.set("ERROR", "mailbox needs a LETTER folder or OP+USER folders")
        yield ctx.end_meet(None)
        return None

    folder_name = f"user:{user}"
    letters = [letter for letter in cabinet.elements(folder_name) if isinstance(letter, dict)]

    if operation == "list":
        listing = briefcase.folder("LISTING", create=True)
        listing.clear()
        for letter in letters:
            listing.push({"letter_id": letter.get("letter_id"),
                          "from_user": letter.get("from_user"),
                          "subject": letter.get("subject"), "sent_at": letter.get("sent_at")})
        yield ctx.end_meet(len(letters))
        return len(letters)

    if operation == "read":
        wanted = briefcase.get("LETTER_ID")
        body = briefcase.folder("MESSAGES", create=True)
        body.clear()
        for letter in letters:
            if wanted is None or letter.get("letter_id") == wanted:
                body.push(letter)
        yield ctx.end_meet(len(body))
        return len(body)

    if operation == "delete":
        wanted = briefcase.get("LETTER_ID")
        remaining = [letter for letter in letters
                     if wanted is not None and letter.get("letter_id") != wanted]
        if wanted is None:
            remaining = []
        deleted = len(letters) - len(remaining)
        if deleted:
            # A whole-folder rewrite: a durable spool journals it, so
            # recovery does not resurrect deleted letters.
            cabinet.add(Folder(folder_name, remaining), replace=True)
        briefcase.set("DELETED", deleted)
        yield ctx.end_meet(deleted)
        store = ctx.store
        if deleted and store is not None and not store.group_commit:
            yield from wait_until_durable(ctx)
        return deleted

    briefcase.set("ERROR", f"unknown mailbox operation {operation!r}")
    yield ctx.end_meet(None)
    return None


def install_mailboxes(kernel: Kernel) -> None:
    """Install the mailbox agent at every site of *kernel* (idempotent)."""
    kernel.install_agent(None, MAILBOX_AGENT_NAME, mailbox_behaviour, replace=True)


def inbox_of(kernel: Kernel, site_name: str, user: str) -> List[Dict[str, object]]:
    """The letters currently filed for *user* at *site_name* (newest last)."""
    cabinet = kernel.site(site_name).cabinet(MAILBOX_CABINET)
    return [letter for letter in cabinet.elements(f"user:{user}")
            if isinstance(letter, dict)]
