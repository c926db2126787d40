"""Sites: the places where agents execute.

"Each site in our system runs a Tcl interpreter, which provides the place
where agents execute" (paper section 6).  A :class:`Site` owns the
site-local file cabinets, the table of agents installed under well-known
names (``rexec``, ``ag_py``, the broker, ...), the index of its resident
agents, and the load/capacity attributes the scheduling experiments
manipulate.  The engine routes the messages that arrive here by kind
(:meth:`repro.core.engine.Engine._on_message`); a site holds no handlers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from repro.core.cabinet import FileCabinet
from repro.core.errors import UnknownAgentError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.agent import AgentInstance

__all__ = ["Site"]


class Site:
    """One place in the network where agents can execute."""

    def __init__(self, name: str, capacity: float = 1.0):
        self.name = name
        #: relative processing capacity; the scheduling experiments vary this
        self.capacity = capacity
        #: synthetic load added by workloads (e.g. "this machine is busy")
        self.background_load = 0.0
        #: False while the site is crashed
        self.alive = True
        #: how many times this site has crashed (ledger for experiments)
        self.crash_count = 0
        self._cabinets: Dict[str, FileCabinet] = {}
        #: name -> (behaviour, is_system_agent)
        self._installed: Dict[str, Tuple[Callable, bool]] = {}
        #: total messages that arrived addressed to an unknown contact
        self.undeliverable = 0
        #: live index of resident (non-terminal) agent instances, keyed by
        #: agent id.  Maintained by the kernel on start/finish/kill/arrival
        #: so per-site queries cost O(residents), not O(all agents ever).
        self._residents: Dict[str, "AgentInstance"] = {}
        #: the durable store attached by the kernel when it runs with a
        #: durability policy other than "none" (see :mod:`repro.store`);
        #: None means legacy free permanence — cabinets survive crashes.
        self.store = None

    # -- installed agents ---------------------------------------------------------

    def install(self, name: str, behaviour: Callable, system: bool = False,
                replace: bool = False) -> None:
        """Install *behaviour* under the well-known *name* at this site."""
        if name in self._installed and not replace:
            existing, _ = self._installed[name]
            if existing is not behaviour:
                raise UnknownAgentError(
                    f"site {self.name!r} already has an agent installed as {name!r}")
        self._installed[name] = (behaviour, system)

    def is_installed(self, name: str) -> bool:
        """True if an agent named *name* is installed here."""
        return name in self._installed

    def resolve(self, name: str) -> Tuple[Callable, bool]:
        """Return ``(behaviour, is_system)`` for the installed agent *name*."""
        try:
            return self._installed[name]
        except KeyError:
            raise UnknownAgentError(
                f"site {self.name!r} has no agent installed under {name!r}") from None

    # -- resident agents ----------------------------------------------------------
    #
    # The resident index is maintained by the kernel's lifecycle ledger
    # (:class:`~repro.core.lifecycle.AgentTable`): ``register`` calls
    # ``add_resident`` and ``retire`` calls ``remove_resident``, so the
    # index can never disagree with the ledger.

    def add_resident(self, instance: "AgentInstance") -> None:
        """Index *instance* as resident here (lifecycle-ledger handshake)."""
        self._residents[instance.agent_id] = instance

    def remove_resident(self, agent_id: str) -> None:
        """Drop an agent from the resident index (no effect if absent)."""
        self._residents.pop(agent_id, None)

    def residents(self) -> List["AgentInstance"]:
        """The resident (non-terminal) agent instances, in arrival order."""
        return list(self._residents.values())

    def resident_count(self) -> int:
        """How many non-terminal agents are currently resident (O(1))."""
        return len(self._residents)

    # -- file cabinets ----------------------------------------------------------------

    def attach_store(self, store) -> None:
        """Attach a durable :class:`~repro.store.SiteStore` to this site."""
        self.store = store
        for cabinet in self._cabinets.values():
            store.adopt(cabinet)

    def cabinet(self, name: str = "default") -> FileCabinet:
        """Return the named cabinet, creating it on first use."""
        if name not in self._cabinets:
            cabinet = FileCabinet(name, site=self.name)
            self._cabinets[name] = cabinet
            if self.store is not None:
                self.store.adopt(cabinet)
        return self._cabinets[name]

    def has_cabinet(self, name: str) -> bool:
        """True if the cabinet already exists (without creating it)."""
        return name in self._cabinets

    def cabinets(self) -> List[FileCabinet]:
        """Every cabinet at this site."""
        return list(self._cabinets.values())

    # -- load model ---------------------------------------------------------------------

    def load_metric(self, active_agents: int) -> float:
        """Load as seen by the monitor agent: queued work normalised by capacity."""
        capacity = self.capacity if self.capacity > 0 else 1e-9
        return (active_agents + self.background_load) / capacity

    # -- failure state --------------------------------------------------------------------

    def mark_crashed(self) -> None:
        """Record a crash.

        What the crash does to cabinet contents is the durability policy's
        business, not this ledger's: with policy ``none`` (no store
        attached) cabinets survive untouched — the legacy free-permanence
        model — while a durable store discards un-flushed state and
        rebuilds the durable part at recovery (see :mod:`repro.store`).
        """
        self.alive = False
        self.crash_count += 1

    def mark_recovered(self) -> None:
        """Record recovery from a crash."""
        self.alive = True

    def __repr__(self) -> str:
        status = "up" if self.alive else "DOWN"
        return (f"Site({self.name!r}, {status}, {len(self._installed)} agents installed, "
                f"{len(self._residents)} resident, {len(self._cabinets)} cabinets)")
