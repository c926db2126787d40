"""Agent lifecycle ledger: the :class:`AgentTable` and its records.

The kernel used to keep every :class:`~repro.core.agent.AgentInstance` ever
launched in one flat dict, each still holding the briefcase and behaviour it
finished with: a million-agent churn workload pinned a briefcase per agent
forever, and name lookups scanned the whole history.  The
:class:`AgentTable` extracts that bookkeeping into a subsystem:

* **registration** — instances enter the table exactly once; the table also
  performs the per-site resident-index handshake (``site.add_resident`` on
  registration, ``site.remove_resident`` on retirement) so the index can
  never disagree with the ledger;
* **retirement** — every terminal path (finish, fail, kill) funnels through
  :meth:`AgentTable.retire`, which updates the O(1) state counters, sheds
  what only a running agent reads (briefcase, behaviour, CODE element, the
  frames a failure's traceback holds) and replaces the instance with a
  compact :class:`AgentRecord` — the one form of a finished agent on every
  engine and shard backend;
* **retention** — the table keeps every record, so every id an engine
  minted stays queryable and ``counters()["retained"]`` equals
  ``launched``; a compact record is what a finished life costs;
* **indexes** — a name index (name -> agent ids in launch order) makes
  ``agents_named`` O(instances with that name) instead of O(all agents
  ever), and the state counters back the kernel's ``counters()`` snapshot
  without any scan.

The kernel's public API (``agents``, ``agent``, ``agents_named``,
``result_of``, ``counters``) delegates here.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.core.agent import AgentInstance, AgentState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.site import Site

__all__ = ["AgentRecord", "AgentTable", "MergedAgentTable"]


class AgentRecord:
    """Compact read-only view of an agent: identity, state, result and timing.

    Keeps only what result-collection and post-mortem queries read: identity,
    the site it ran at, state, result/error, steps and timing (ten fields; a
    jump starts a new agent, so one life runs at one site).  The ledger archives
    every terminal agent as a record; the meet and system bookkeeping, the
    launch name and the generator of the instance it replaces stay behind.
    A process shard's coordinator also builds records for agents still
    running in the worker, from the rows its digests ship.

    Records duck-type the read-only surface of an instance (``state``,
    ``result``, ``finished``, ``site_name``...), so ledger consumers do not
    need to distinguish a live entry from a finished one.
    """

    __slots__ = ("agent_id", "name", "site_name", "state", "result", "error",
                 "steps", "parent_id", "started_at", "finished_at")

    def __init__(self, source: Union[AgentInstance, tuple]):
        """From a terminal instance, or a :meth:`row` (what a shard worker ships)."""
        (self.agent_id, self.name, self.site_name, self.state, self.result,
         self.error, self.steps, self.parent_id, self.started_at,
         self.finished_at) = source if type(source) is tuple else self.row(source)

    @staticmethod
    def row(entry: "LedgerEntry") -> tuple:
        """The fields a record of *entry* holds, in ``__slots__`` order."""
        return (entry.agent_id, entry.name, entry.site_name, entry.state,
                entry.result, entry.error, entry.steps, entry.parent_id,
                entry.started_at, entry.finished_at)

    @property
    def finished(self) -> bool:
        """True once the recorded state is terminal."""
        return AgentState.is_terminal(self.state)

    @property
    def ok(self) -> bool:
        """True if the recorded agent finished normally."""
        return self.state == AgentState.DONE

    def __repr__(self) -> str:
        return (f"AgentRecord({self.agent_id} name={self.name!r} "
                f"site={self.site_name!r} state={self.state})")


#: either a live instance or its record
LedgerEntry = Union[AgentInstance, AgentRecord]


class AgentTable:
    """The agent lifecycle ledger: registration, indexes, records.

    One per kernel.  The table owns the entry dict the kernel's ``agents``
    property exposes, the name index behind ``agents_named`` (ids, not
    entries: retirement swaps an entry in ``entries`` only), the launch /
    terminal state counters behind ``counters()``, and the per-site
    resident-index handshake.
    """

    def __init__(self):
        #: agent id -> live instance or terminal record (insertion ordered)
        self.entries: Dict[str, LedgerEntry] = {}
        #: name -> the ids launched under it, in launch order
        self._by_name: Dict[str, List[str]] = defaultdict(list)

        # O(1) state counters (the kernel ledger the experiments read).
        self.launched = 0
        self.completed = 0
        self.failed = 0
        self.killed = 0

    # -- registration / retirement -------------------------------------------------

    def register(self, instance: AgentInstance, site: Optional["Site"]) -> None:
        """Enter a new instance into the ledger and its site's resident index."""
        self.entries[instance.agent_id] = instance
        self._by_name[instance.name].append(instance.agent_id)
        self.launched += 1
        if site is not None:
            site.add_resident(instance)

    def retire(self, instance: AgentInstance, site: Optional["Site"]) -> None:
        """Process a terminal instance: unindex, count, shed, archive.

        Every terminal path (finish, fail, kill) must come through here
        exactly once; callers guard with ``instance.finished`` before
        marking, so double retirement cannot happen.
        """
        agent_id = instance.agent_id
        if site is not None:
            site.remove_resident(agent_id)
        state = instance.state
        if state == AgentState.DONE:
            self.completed += 1
        elif state == AgentState.FAILED:
            self.failed += 1
        elif state == AgentState.KILLED:
            self.killed += 1
        # The ledger keeps a record, but a meet caller or a user closure may
        # still hold the instance: what only a running agent reads goes here,
        # the one place every end passes.  A failure's traceback would pin
        # the behaviour's finished frame and its locals, the briefcase among
        # them; the still executing frames it starts from are skipped.
        instance.briefcase = instance.behaviour = instance.code = None
        error = instance.error
        if error is not None and error.__traceback__ is not None:
            import traceback  # a raised failure's cost: not on the import path
            traceback.clear_frames(error.__traceback__)
        self.entries[agent_id] = AgentRecord(instance)

    def absorb(self, rows: Sequence[tuple], counters: Dict[str, int]) -> None:
        """Apply one shard worker's digest of its own table.

        Enters a record per shipped :meth:`AgentRecord.row` (new or changed
        since the last digest) and takes the worker table's int attributes,
        so the counters and ``len`` read here are the worker's.
        """
        entries = self.entries
        for row in rows:
            record = AgentRecord(row)
            if record.agent_id not in entries:
                self._by_name[record.name].append(record.agent_id)
            entries[record.agent_id] = record
        vars(self).update(counters)

    # -- lookups -------------------------------------------------------------------

    def get(self, agent_id: str) -> Optional[LedgerEntry]:
        """The entry for *agent_id*, or None if unknown."""
        return self.entries.get(agent_id)

    def named(self, name: str) -> List[LedgerEntry]:
        """Every entry launched under *name*, in launch order (O(matches))."""
        entries = self.entries
        return [entries[agent_id] for agent_id in self._by_name.get(name, ())]

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, agent_id: str) -> bool:
        return agent_id in self.entries

    # -- counters ------------------------------------------------------------------

    @property
    def terminal(self) -> int:
        """Total agents that reached a terminal state."""
        return self.completed + self.failed + self.killed

    @property
    def active(self) -> int:
        """Agents launched but not yet terminal."""
        return self.launched - self.terminal

    def state_counts(self) -> Dict[str, int]:
        """O(1) snapshot of the lifecycle ledger."""
        return {
            "launched": self.launched,
            "active": self.active,
            "completed": self.completed,
            "failed": self.failed,
            "killed": self.killed,
            "retained": len(self.entries),
        }

    def __repr__(self) -> str:
        return (f"AgentTable(retained={len(self.entries)}, launched={self.launched}, "
                f"terminal={self.terminal})")


class MergedAgentTable:
    """A read-only merged view over several shards' :class:`AgentTable` ledgers.

    The sharded kernel facade exposes one of these as ``kernel.table`` so
    ``agents_named`` / ``result_of`` / ``counters`` stay one API: lookups
    fan out to the shard tables (engines mint ids from disjoint counters,
    so at most one table answers), counters sum, and ``named()``
    concatenates in shard order then launch order.  Registration and
    retirement happen on the owning shard's table; this view never mutates.
    """

    def __init__(self, parts: Sequence[AgentTable]):
        self._parts = list(parts)

    @property
    def entries(self) -> Dict[str, LedgerEntry]:
        """A fresh merged id -> entry mapping (shard order, then launch order)."""
        merged: Dict[str, LedgerEntry] = {}
        for part in self._parts:
            merged.update(part.entries)
        return merged

    def get(self, agent_id: str) -> Optional[LedgerEntry]:
        for part in self._parts:
            entry = part.entries.get(agent_id)
            if entry is not None:
                return entry
        return None

    def named(self, name: str) -> List[LedgerEntry]:
        found: List[LedgerEntry] = []
        for part in self._parts:
            found.extend(part.named(name))
        return found

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)

    def __contains__(self, agent_id: str) -> bool:
        return any(agent_id in part for part in self._parts)

    def __getattr__(self, name: str) -> int:
        if name in ("launched", "completed", "failed", "killed"):
            return sum(getattr(part, name) for part in self._parts)
        raise AttributeError(f"{type(self).__name__} has no attribute {name!r}")

    @property
    def terminal(self) -> int:
        return sum(part.terminal for part in self._parts)

    @property
    def active(self) -> int:
        return sum(part.active for part in self._parts)

    def state_counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for part in self._parts:
            for key, value in part.state_counts().items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def __repr__(self) -> str:
        return (f"MergedAgentTable(shards={len(self._parts)}, "
                f"retained={len(self)}, launched={self.launched}, "
                f"terminal={self.terminal})")
