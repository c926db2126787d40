"""Agent lifecycle ledger: the :class:`AgentTable` and its retention policies.

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
  frames a failure's traceback holds) and then applies the configured
  :class:`RetentionPolicy`;
* **retention** — ``keep-all`` keeps the shed instance itself (the same
  object, its result, error, itinerary and children), ``keep-results``
  replaces it with a compact :class:`AgentRecord` (smaller again: no
  children, no meet or system bookkeeping), and ``keep-counts`` evicts
  all but the most recent N terminal agents so the ledger itself stays
  bounded;
* **indexes** — a name index makes ``agents_named`` O(instances with that
  name) instead of O(all agents ever), and the state counters back the
  kernel's ``counters()`` snapshot without any scan.

The kernel's public API (``agents``, ``agent``, ``agents_named``,
``result_of``, ``counters``) is unchanged — it delegates here.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Sequence, Union

from repro.core.agent import AgentInstance, AgentState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.site import Site

__all__ = [
    "AgentRecord", "AgentTable", "MergedAgentTable",
    "RetentionPolicy", "KeepAll", "KeepResults", "KeepCounts",
    "make_retention", "RETENTION_POLICIES",
]


class AgentRecord:
    """Compact read-only view of an agent: identity, state, result and trace.

    Keeps only what result-collection and post-mortem queries read: identity,
    state, result/error, timing and the itinerary trace.  The ledger archives
    terminal agents as records; retirement has already shed the briefcase,
    behaviour, CODE element and generator of every terminal instance, and a
    record also leaves out its children, launch name and meet/system
    bookkeeping.  A process shard's coordinator also builds records for
    agents still running in the worker, from the rows its digests ship.

    Records duck-type the read-only surface of an instance (``state``,
    ``result``, ``finished``, ``site_name``...), so ledger consumers do not
    need to distinguish the two.
    """

    __slots__ = ("agent_id", "name", "site_name", "state", "result", "error",
                 "steps", "parent_id", "started_at", "finished_at", "visited")

    def __init__(self, source: Union[AgentInstance, tuple]):
        """From a terminal instance, or a :meth:`row` (what a shard worker ships)."""
        (self.agent_id, self.name, self.site_name, self.state, self.result,
         self.error, self.steps, self.parent_id, self.started_at, self.finished_at,
         self.visited) = source if type(source) is tuple else self.row(source)

    @staticmethod
    def row(entry: "LedgerEntry") -> tuple:
        """The fields a record of *entry* holds, in ``__slots__`` order."""
        # An instance's list is read where it lies: do not build it to copy it.
        visited = entry.visited if isinstance(entry, AgentRecord) else entry._visited
        return (entry.agent_id, entry.name, entry.site_name, entry.state,
                entry.result, entry.error, entry.steps, entry.parent_id,
                entry.started_at, entry.finished_at,
                (entry.site_name,) if visited is None else tuple(visited))

    @property
    def finished(self) -> bool:
        """True once the recorded state is terminal."""
        return AgentState.is_terminal(self.state)

    @property
    def ok(self) -> bool:
        """True if the archived agent finished normally."""
        return self.state == AgentState.DONE

    def __repr__(self) -> str:
        return (f"AgentRecord({self.agent_id} name={self.name!r} "
                f"site={self.site_name!r} state={self.state})")


#: either a live instance or its archived record
LedgerEntry = Union[AgentInstance, AgentRecord]


class RetentionPolicy:
    """What happens to an agent's ledger entry when it reaches a terminal state.

    ``archive`` maps the terminal instance to the entry the table should
    retain (the instance itself, a compact record, or ``None`` to drop it);
    ``enforce`` runs after each retirement and may evict older terminal
    entries (see :class:`KeepCounts`).
    """

    name = "abstract"
    #: policies that evict by recency need the table's terminal-order queue;
    #: the others skip it so keep-all does not grow a parallel id history
    tracks_terminal_order = False

    def archive(self, instance: AgentInstance) -> Optional[LedgerEntry]:
        raise NotImplementedError

    def enforce(self, table: "AgentTable") -> None:
        """Post-retirement hook; the default keeps everything."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class KeepAll(RetentionPolicy):
    """Retain every terminal instance, as retirement left it, forever."""

    name = "keep-all"

    def archive(self, instance: AgentInstance) -> LedgerEntry:
        return instance


class KeepResults(RetentionPolicy):
    """Archive terminal agents into compact :class:`AgentRecord` objects.

    ``result_of``/``agent``/``agents_named`` keep working for every agent
    ever launched, from an entry smaller than the shed instance itself.
    """

    name = "keep-results"

    def archive(self, instance: AgentInstance) -> LedgerEntry:
        return AgentRecord(instance)


class KeepCounts(RetentionPolicy):
    """Keep compact records for only the most recent *max_terminal* agents.

    Older terminal agents are evicted from the ledger entirely (the state
    counters remain exact); looking one up afterwards raises
    ``UnknownAgentError``, exactly as if the id had never existed.  This is
    the policy for unbounded churn workloads where the ledger itself must
    stay O(residents + max_terminal).
    """

    name = "keep-counts"
    tracks_terminal_order = True

    def __init__(self, max_terminal: int = 10_000):
        if max_terminal < 0:
            raise ValueError(f"max_terminal must be >= 0, got {max_terminal}")
        self.max_terminal = max_terminal

    def archive(self, instance: AgentInstance) -> LedgerEntry:
        return AgentRecord(instance)

    def enforce(self, table: "AgentTable") -> None:
        while len(table.terminal_order) > self.max_terminal:
            table.evict_oldest_terminal()

    def __repr__(self) -> str:
        return f"KeepCounts(max_terminal={self.max_terminal})"


RETENTION_POLICIES = {
    KeepAll.name: KeepAll,
    KeepResults.name: KeepResults,
    KeepCounts.name: KeepCounts,
}


def make_retention(policy: Union[str, RetentionPolicy, None]) -> RetentionPolicy:
    """Resolve a retention spec to a policy instance.

    Accepts a :class:`RetentionPolicy` instance, ``None`` (keep-all), or a
    string: ``"keep-all"``, ``"keep-results"``, ``"keep-counts"`` or
    ``"keep-counts:<N>"`` for an explicit terminal-history bound.
    """
    if policy is None:
        return KeepAll()
    if isinstance(policy, RetentionPolicy):
        return policy
    if isinstance(policy, str):
        name, _, arg = policy.partition(":")
        cls = RETENTION_POLICIES.get(name)
        if cls is None:
            raise ValueError(f"unknown retention policy {policy!r}; "
                             f"choose from {sorted(RETENTION_POLICIES)}")
        if arg:
            if cls is not KeepCounts:
                raise ValueError(f"retention policy {name!r} takes no argument")
            return KeepCounts(max_terminal=int(arg))
        return cls()
    raise ValueError(f"cannot build a retention policy from {policy!r}")


class AgentTable:
    """The agent lifecycle ledger: registration, indexes, archival.

    One per kernel.  The table owns the entry dict the kernel's ``agents``
    property exposes, the name index behind ``agents_named``, the launch /
    terminal state counters behind ``counters()``, and the per-site
    resident-index handshake.
    """

    def __init__(self, retention: Union[str, RetentionPolicy, None] = None):
        self.retention = make_retention(retention)
        #: agent id -> live instance or archived record (insertion ordered)
        self.entries: Dict[str, LedgerEntry] = {}
        #: name -> {agent id -> entry}; inner dicts keep insertion order so
        #: ``named()`` returns instances in launch order, like the old scan
        self._by_name: Dict[str, Dict[str, LedgerEntry]] = {}
        #: terminal agent ids in retirement order (KeepCounts eviction queue)
        self.terminal_order: Deque[str] = deque()

        # O(1) state counters (the kernel ledger the experiments read).
        self.launched = 0
        self.completed = 0
        self.failed = 0
        self.killed = 0
        #: terminal instances replaced by compact records
        self.archived = 0
        #: terminal entries dropped from the ledger entirely
        self.evicted = 0
        #: retained entries that are compact records (ledger_entry_kinds)
        self._records = 0

    # -- registration / retirement -------------------------------------------------

    def register(self, instance: AgentInstance, site: Optional["Site"]) -> None:
        """Enter a new instance into the ledger and its site's resident index."""
        self.entries[instance.agent_id] = instance
        self._by_name.setdefault(instance.name, {})[instance.agent_id] = instance
        self.launched += 1
        if site is not None:
            site.add_resident(instance)

    def retire(self, instance: AgentInstance, site: Optional["Site"]) -> None:
        """Process a terminal instance: unindex, count, shed, apply retention.

        Every terminal path (finish, fail, kill) must come through here
        exactly once; callers guard with ``instance.finished`` before
        marking, so double retirement cannot happen.
        """
        if site is not None:
            site.remove_resident(instance.agent_id)
        state = instance.state
        if state == AgentState.DONE:
            self.completed += 1
        elif state == AgentState.FAILED:
            self.failed += 1
        elif state == AgentState.KILLED:
            self.killed += 1
        # Whatever the policy keeps, a finished agent is its record: what
        # only a running agent reads goes here, the one place every end
        # passes.  A failure's traceback would pin the behaviour's finished
        # frame and its locals, the briefcase among them; the still
        # executing frames it starts from are skipped.
        instance.briefcase = instance.behaviour = instance.code_element = None
        error = instance.error
        if error is not None and error.__traceback__ is not None:
            import traceback  # a raised failure's cost: not on the import path
            traceback.clear_frames(error.__traceback__)
        entry = self.retention.archive(instance)
        if entry is None:
            self._discard(instance.agent_id, instance.name)
            self.evicted += 1
            return
        if entry is not instance:
            self.entries[instance.agent_id] = entry
            self._by_name[instance.name][instance.agent_id] = entry
            self.archived += 1
            self._records += isinstance(entry, AgentRecord)
        if self.retention.tracks_terminal_order:
            self.terminal_order.append(instance.agent_id)
            self.retention.enforce(self)

    def evict_oldest_terminal(self) -> Optional[str]:
        """Drop the oldest terminal entry from the ledger (retention hook)."""
        while self.terminal_order:
            agent_id = self.terminal_order.popleft()
            entry = self.entries.get(agent_id)
            if entry is None:
                continue  # already discarded
            self._discard(agent_id, entry.name)
            self.evicted += 1
            return agent_id
        return None

    def _discard(self, agent_id: str, name: str) -> None:
        self._records -= isinstance(self.entries.pop(agent_id, None), AgentRecord)
        named = self._by_name.get(name)
        if named is not None:
            named.pop(agent_id, None)
            if not named:
                del self._by_name[name]

    def absorb(self, rows: Sequence[tuple], evicted: Sequence[str],
               counters: Dict[str, int]) -> None:
        """Apply one shard worker's digest of its own table.

        Drops the *evicted* ids, enters a record per shipped
        :meth:`AgentRecord.row` (new or changed since the last digest) and
        takes the worker table's int attributes, so the counters, ``len``
        and ``ledger_entry_kinds`` read here are the worker's.
        """
        entries = self.entries
        for agent_id in evicted:
            self._discard(agent_id, entries[agent_id].name)
        for row in rows:
            record = AgentRecord(row)
            entries[record.agent_id] = record
            self._by_name.setdefault(record.name, {})[record.agent_id] = record
        vars(self).update(counters)

    # -- lookups -------------------------------------------------------------------

    def get(self, agent_id: str) -> Optional[LedgerEntry]:
        """The entry for *agent_id*, or None if unknown or evicted."""
        return self.entries.get(agent_id)

    def named(self, name: str) -> List[LedgerEntry]:
        """Every retained entry launched under *name*, in launch order (O(matches))."""
        named = self._by_name.get(name)
        return list(named.values()) if named else []

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
            "archived": self.archived,
            "evicted": self.evicted,
            "retained": len(self.entries),
        }

    def ledger_entry_kinds(self) -> Dict[str, int]:
        """How many retained entries are live instances vs compact records."""
        return {"instances": len(self.entries) - self._records,
                "records": self._records}

    def __repr__(self) -> str:
        return (f"AgentTable(retention={self.retention.name!r}, "
                f"retained={len(self.entries)}, launched={self.launched}, "
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
        # All shards share one retention spec (built from the same config).
        self.retention = self._parts[0].retention if self._parts else make_retention(None)

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
        if name in ("launched", "completed", "failed", "killed",
                    "archived", "evicted"):
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

    def ledger_entry_kinds(self) -> Dict[str, int]:
        merged = {"instances": 0, "records": 0}
        for part in self._parts:
            for key, value in part.ledger_entry_kinds().items():
                merged[key] += value
        return merged

    def __repr__(self) -> str:
        return (f"MergedAgentTable(shards={len(self._parts)}, "
                f"retained={len(self)}, launched={self.launched}, "
                f"terminal={self.terminal})")
