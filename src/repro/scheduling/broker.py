"""Broker agents: matchmaking between service consumers and providers (paper section 4).

"Scheduling is implemented by *broker agents*, which are ordinary agents
whose names are well known.  Some broker agents maintain databases of
service providers; these brokers serve as matchmakers.  An agent that
requires a given service consults a broker to identify which agents provide
that service."

A broker is an ordinary behaviour installed under the well-known name
``"broker"``.  Because behaviours are re-instantiated on every meet, all
broker state — the provider database, the load table, the assignment
ledger — lives in the site-local ``broker`` file cabinet, which is exactly
the paper's model of durable site state.

The meet protocol (all through the briefcase):

``OP = "register"``
    ``SERVICE``, ``SITE``, ``AGENT`` (+ optional ``CAPACITY``, ``PRICE``):
    add a provider to the database.
``OP = "report"``
    ``SITE``, ``LOAD``, ``AT``: a monitor agent reporting site load.
``OP = "lookup"``
    ``SERVICE``: return every known provider in the ``PROVIDERS`` folder.
``OP = "acquire"``
    ``SERVICE``: pick one provider according to the broker's policy and
    return it in ``PROVIDER`` (plus a ``TICKET`` when a ticket agent is
    installed locally).  The assignment is counted in the ledger.
``OP = "sync"``
    ``LOADS`` and ``PROVIDERS`` folders from another broker: merge gossiped
    state (newest report per site wins).  See :mod:`repro.scheduling.routing`.
``OP = "dump"``
    Return the broker's full state (used by tests and the benchmarks).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.core.briefcase import Briefcase
from repro.core.cabinet import FileCabinet
from repro.core.context import AgentContext
from repro.core.errors import NoProviderError
from repro.core.folder import Folder
from repro.scheduling.policies import LoadEstimate, Policy, ProviderInfo, make_policy

__all__ = [
    "BROKER_AGENT_NAME", "BROKER_CABINET",
    "make_broker_behaviour", "broker_state", "BrokerState",
    "merged_load_table",
]

#: the well-known name broker agents are installed under
BROKER_AGENT_NAME = "broker"
#: the site-local cabinet holding all broker state
BROKER_CABINET = "broker"

# Folder names inside the broker cabinet.
_PROVIDERS = "providers"
_LOADS = "loads"
_ASSIGNMENTS = "assignments"
_REPORTS_SEEN = "reports_seen"


class BrokerState:
    """A read/write view over the broker's cabinet state.

    The broker behaviour builds one of these per meet; tests and benchmarks
    build one directly from a site's cabinet to inspect what the broker
    believes.
    """

    def __init__(self, cabinet: FileCabinet):
        self._cabinet = cabinet

    # -- provider database ------------------------------------------------------

    def providers(self, service: Optional[str] = None) -> List[ProviderInfo]:
        """Every registered provider (optionally restricted to one service)."""
        rows = self._read_table(_PROVIDERS)
        providers = [ProviderInfo(**row) for row in rows.values()]
        if service is not None:
            providers = [provider for provider in providers if provider.service == service]
        return sorted(providers, key=lambda provider: provider.key())

    def add_provider(self, provider: ProviderInfo) -> None:
        """Insert or refresh a provider row."""
        rows = self._read_table(_PROVIDERS)
        rows[provider.key()] = {
            "service": provider.service, "site": provider.site,
            "agent_name": provider.agent_name, "capacity": provider.capacity,
            "price": provider.price,
        }
        self._write_table(_PROVIDERS, rows)

    # -- load table -------------------------------------------------------------

    def loads(self) -> Dict[str, LoadEstimate]:
        """The broker's current belief about per-site load."""
        rows = self._read_table(_LOADS)
        return {site: LoadEstimate(**row) for site, row in rows.items()}

    def record_report(self, site: str, load: float, at: float,
                      residents: int = 0) -> bool:
        """Record a monitor report.  Returns True if it was newer than what we had."""
        rows = self._read_table(_LOADS)
        existing = rows.get(site)
        if existing is not None and existing["reported_at"] >= at:
            return False
        rows[site] = {"site": site, "load": float(load), "reported_at": float(at),
                      "assigned_since_report": 0, "residents": int(residents)}
        self._write_table(_LOADS, rows)
        self._bump(_REPORTS_SEEN)
        return True

    def note_assignment(self, site: str) -> None:
        """Count one request we just routed to *site* (until the next report)."""
        rows = self._read_table(_LOADS)
        if site in rows:
            rows[site]["assigned_since_report"] = rows[site].get("assigned_since_report", 0) + 1
            self._write_table(_LOADS, rows)
        self._bump(_ASSIGNMENTS, key=site)

    # -- ledgers ------------------------------------------------------------------

    def assignments(self) -> Dict[str, int]:
        """How many acquire requests were routed to each site by this broker."""
        return {key: int(value) for key, value in self._read_table(_ASSIGNMENTS).items()}

    def reports_seen(self) -> int:
        """How many fresh monitor reports this broker has absorbed."""
        table = self._read_table(_REPORTS_SEEN)
        return int(table.get("count", 0))

    # -- gossip merge ----------------------------------------------------------------

    def merge_loads(self, rows: Dict[str, dict]) -> int:
        """Merge another broker's load table; newest ``reported_at`` per site wins."""
        mine = self._read_table(_LOADS)
        merged = 0
        for site, row in rows.items():
            existing = mine.get(site)
            if existing is None or existing["reported_at"] < row["reported_at"]:
                mine[site] = dict(row)
                merged += 1
        if merged:
            self._write_table(_LOADS, mine)
        return merged

    def merge_providers(self, rows: Dict[str, dict]) -> int:
        """Merge another broker's provider database (union by provider key)."""
        mine = self._read_table(_PROVIDERS)
        merged = 0
        for key, row in rows.items():
            if key not in mine:
                mine[key] = dict(row)
                merged += 1
        if merged:
            self._write_table(_PROVIDERS, mine)
        return merged

    def export(self) -> Dict[str, Dict[str, dict]]:
        """The gossip payload another broker can merge."""
        return {"providers": self._read_table(_PROVIDERS), "loads": self._read_table(_LOADS)}

    # -- cabinet plumbing ---------------------------------------------------------------

    def _read_table(self, folder_name: str) -> Dict[str, dict]:
        value = self._cabinet.get(folder_name)
        return dict(value) if isinstance(value, dict) else {}

    def _write_table(self, folder_name: str, rows: Dict[str, dict]) -> None:
        self._cabinet.add(Folder(folder_name, [rows]), replace=True)

    def _bump(self, folder_name: str, key: str = "count") -> None:
        rows = self._read_table(folder_name)
        rows[key] = int(rows.get(key, 0)) + 1
        self._write_table(folder_name, rows)


def broker_state(cabinet: FileCabinet) -> BrokerState:
    """Convenience constructor used by tests and benchmark reports."""
    return BrokerState(cabinet)


def merged_load_table(kernel, broker_sites: Sequence[str]) -> Dict[str, LoadEstimate]:
    """The cluster-wide load picture: the named brokers' tables merged.

    Each broker's table lives in its site-local cabinet — on a sharded
    kernel, on whichever shard owns that site — so merging across brokers
    is also how a sharded deployment assembles one load view without any
    broker knowing about shards.  The newest report per subject site wins;
    a tie keeps the earlier broker's row (in the given order).
    """
    merged: Dict[str, LoadEstimate] = {}
    for broker_site in broker_sites:
        state = BrokerState(kernel.site(broker_site).cabinet(BROKER_CABINET))
        for site, estimate in state.loads().items():
            kept = merged.get(site)
            if kept is None or estimate.reported_at > kept.reported_at:
                merged[site] = estimate
    return merged


def make_broker_behaviour(policy: str = "least-loaded",
                          policy_instance: Optional[Policy] = None,
                          ticket_agent: Optional[str] = None) -> Callable:
    """Build a broker behaviour using the named assignment *policy*.

    ``ticket_agent`` optionally names a locally installed ticket-issuing
    agent (see :mod:`repro.scheduling.ticket`); when set, every successful
    ``acquire`` also returns a ticket for the chosen provider.

    Round-robin state deliberately lives in the policy *object* (shared by
    every meet at a site because the same behaviour closure is installed),
    mirroring how a long-lived broker process would behave.
    """
    chosen_policy = policy_instance or make_policy(policy)

    def broker_behaviour(ctx: AgentContext, briefcase: Briefcase):
        state = BrokerState(ctx.cabinet(BROKER_CABINET))

        # Courier deliveries from monitor agents arrive as a LOAD_REPORT
        # folder rather than an OP folder (the monitor cannot meet a remote
        # broker directly — it sends a folder through the courier, exactly as
        # the paper's four-agent scheduling service does).
        if briefcase.has("LOAD_REPORT"):
            absorbed = 0
            for report in briefcase.folder("LOAD_REPORT").elements():
                if isinstance(report, dict) and "site" in report:
                    fresh = state.record_report(
                        str(report["site"]), float(report.get("load", 0.0)),
                        float(report.get("at", ctx.now)),
                        residents=int(report.get("residents", 0)))
                    absorbed += 1 if fresh else 0
            yield ctx.end_meet(absorbed)
            return absorbed

        operation = briefcase.get("OP", "lookup")

        if operation == "register":
            provider = ProviderInfo(
                service=briefcase.get("SERVICE"),
                site=briefcase.get("SITE", ctx.site_name),
                agent_name=briefcase.get("AGENT"),
                capacity=float(briefcase.get("CAPACITY", 1.0)),
                price=int(briefcase.get("PRICE", 0)),
            )
            state.add_provider(provider)
            briefcase.set("OK", True)
            yield ctx.end_meet(True)
            return True

        if operation == "report":
            site = briefcase.get("SITE")
            load = float(briefcase.get("LOAD", 0.0))
            at = float(briefcase.get("AT", ctx.now))
            fresh = state.record_report(site, load, at,
                                        residents=int(briefcase.get("RESIDENTS", 0)))
            briefcase.set("OK", fresh)
            yield ctx.end_meet(fresh)
            return fresh

        if operation == "lookup":
            service = briefcase.get("SERVICE")
            providers = state.providers(service)
            results = briefcase.folder("PROVIDERS", create=True)
            results.clear()
            for provider in providers:
                results.push({"service": provider.service, "site": provider.site,
                              "agent_name": provider.agent_name,
                              "capacity": provider.capacity, "price": provider.price})
            yield ctx.end_meet(len(providers))
            return len(providers)

        if operation == "acquire":
            service = briefcase.get("SERVICE")
            providers = state.providers(service)
            try:
                if not providers:
                    raise NoProviderError(f"no provider registered for {service!r}")
                chosen = chosen_policy.choose(providers, state.loads(), rng=ctx.rng)
            except NoProviderError as exc:
                briefcase.set("ERROR", str(exc))
                yield ctx.end_meet(None)
                return None
            state.note_assignment(chosen.site)
            briefcase.set("PROVIDER", {
                "service": chosen.service, "site": chosen.site,
                "agent_name": chosen.agent_name, "capacity": chosen.capacity,
                "price": chosen.price,
            })
            if ticket_agent is not None:
                ticket_request = Briefcase()
                ticket_request.set("OP", "issue")
                ticket_request.set("SERVICE", service)
                ticket_request.set("HOLDER", briefcase.get("CLIENT", "anonymous"))
                ticket_request.set("PROVIDER_SITE", chosen.site)
                result = yield ctx.meet(ticket_agent, ticket_request)
                if result is not None and ticket_request.has("TICKET"):
                    briefcase.set("TICKET", ticket_request.get("TICKET"))
            yield ctx.end_meet(briefcase.get("PROVIDER"))
            return briefcase.get("PROVIDER")

        if operation == "sync":
            merged_loads = 0
            merged_providers = 0
            loads_payload = briefcase.get("LOADS")
            providers_payload = briefcase.get("PROVIDERS_TABLE")
            if isinstance(loads_payload, dict):
                merged_loads = state.merge_loads(loads_payload)
            if isinstance(providers_payload, dict):
                merged_providers = state.merge_providers(providers_payload)
            briefcase.set("MERGED", {"loads": merged_loads, "providers": merged_providers})
            yield ctx.end_meet(merged_loads + merged_providers)
            return merged_loads + merged_providers

        if operation == "dump":
            export = state.export()
            briefcase.set("STATE", export)
            briefcase.set("ASSIGNMENTS", state.assignments())
            yield ctx.end_meet(export)
            return export

        briefcase.set("ERROR", f"unknown broker operation {operation!r}")
        yield ctx.end_meet(None)
        return None

    return broker_behaviour
