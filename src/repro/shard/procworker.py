"""The process shard backend: one long-lived spawn worker per shard.

This is the backend that turns the E14 parallel-host *model* into real
wall-clock speedup on multi-core hosts — each shard engine is a full
:class:`~repro.core.kernel.Kernel` living in its own interpreter, so
pure-Python event execution escapes the GIL entirely.

Wire protocol (pickle over ``multiprocessing`` pipes, one command in /
one reply out, strictly alternating per worker):

* coordinator -> worker: ``(command, *operands)`` tuples.  The core
  command is ``("run_to", horizon, budget, handoffs)`` — deliver the
  listed cross-shard handoffs, run the loop to *horizon* under *budget*,
  and reply with ``(executed, busy_seconds, outbound_handoffs, dirty)``.
  The rest are state mirroring (``digest``, ``advance_clock``) and facade
  delegation (``call``, ``transport``, ``partition``, ``add_site``, ...).
* worker -> coordinator: ``("ok", (value, now, next_event_time))`` or
  ``("error", summary, traceback)``.  Every reply carries the worker's
  clock and next-event time so the coordinator's
  :class:`MirrorLoop` never goes stale after a command that scheduled
  events (a ``launch`` between rounds must move the mirrored next-event
  time, or the coordinator would believe the cluster idle and stop).

Cross-shard mail is pickled at the boundary: a worker spools outbound
``(arrival, message)`` pairs during its burst (the
:class:`WorkerRouter`), ships them with its reply, and the coordinator
routes each to the destination proxy's pending list; they ride the next
command to that worker.  Arrival timestamps are fixed at send time and
are at least every granted horizon (the same argument that makes the
thread backend's inbox deferral safe), so a handoff can never be needed
before it has crossed.

Facade views (``stats``, ``table``, ``sites``, ``event_log``) are served
from per-run **state digests**: after each ``ShardSet.run`` the
coordinator pulls one digest per worker — full stats state, new/changed
:class:`~repro.core.lifecycle.AgentRecord` deltas, site flags, appended
event-log lines — and refreshes the proxy mirrors.  Mid-run the mirrors
lag by design; everything tests read (counters, results) is read after
``run()`` returns.

Known limits (all raise a clear ``KernelError``): behaviours must be
picklable or registered in importable modules (the worker re-imports the
registry's modules; ``__main__``-only behaviours cannot rehydrate),
coordinator-side event scheduling on ``kernel.loop`` is unavailable, and
so are ``on_site_added``/``on_site_recovered`` subscriptions and per-agent
site queries (``residents()``/``cabinet()``).
"""

from __future__ import annotations

import importlib
import importlib.machinery
import multiprocessing
import random
import sys
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.errors import KernelError, UnknownSiteError
from repro.core.lifecycle import AgentRecord, make_retention
from repro.core.timing import PAST_EPSILON, default_timer
from repro.net.stats import NetworkStats
from repro.obs import MetricsRegistry, SpanMirror
from repro.shard.backend import ShardBackend
from repro.shard.router import ShardBoundary, ShardContext
from repro.store.policy import resolve_policy

__all__ = ["ProcessBackend", "ProcessEngineProxy", "WorkerSpec",
           "preload_module_names", "worker_main"]


# ==============================================================================
# shared: the worker build spec
# ==============================================================================

@dataclass
class WorkerSpec:
    """Everything a spawn worker needs to rebuild its shard engine.

    Must pickle cleanly — the facade probes that before spawning anything
    so a bad config fails fast with a useful error instead of a cryptic
    mid-spawn traceback.
    """

    shard_id: int
    topology: Any
    transport: Any  # a transport name or class (instances are rejected upstream)
    config: Any
    install_system_agents: bool
    retention: Any
    owned: FrozenSet[str]
    placement: Dict[str, int]
    #: modules imported before the engine is built, so behaviours that are
    #: registered at import time exist in the worker's default registry
    preload_modules: Tuple[str, ...] = field(default_factory=tuple)


def _spawn_importable(module: str) -> bool:
    """Whether a freshly spawned interpreter could import ``module``.

    Bypasses ``sys.modules`` on purpose: modules loaded from explicit file
    paths (a test importing an example script by location) are present in
    this process but unreachable by name in a child, so shipping them as
    preloads would crash worker startup.
    """
    top = module.split(".")[0]
    if top in sys.builtin_module_names:
        return True
    try:
        return importlib.machinery.PathFinder().find_spec(top) is not None
    except (ImportError, ValueError):
        return False


def preload_module_names(registry) -> Tuple[str, ...]:
    """The defining modules of every registered behaviour that a spawned
    worker could re-import (minus ``__main__`` and path-loaded ad-hoc
    modules — behaviours from those cannot cross the process boundary,
    and launching one in a worker raises unknown-behaviour there)."""
    modules = set()
    for name in registry:
        behaviour = registry.resolve(name)
        module = getattr(behaviour, "__module__", None)
        if module and module != "__main__" and _spawn_importable(module):
            modules.add(module)
    return tuple(sorted(modules))


# ==============================================================================
# worker side (runs in the spawned child)
# ==============================================================================

class WorkerRouter:
    """Worker-side stand-in for the MailRouter: placement + outbound spool.

    The engine's transport consults a normal :class:`ShardBoundary` over
    this router, so the send-time handoff semantics are identical to the
    in-process backends; the only difference is that a dispatched message
    lands in ``outbound`` (to ride the next reply) instead of directly on
    the destination loop.
    """

    def __init__(self, shard_id: int, placement: Dict[str, int]):
        self.shard_id = shard_id
        self.placement = dict(placement)
        self.engine = None  # late-bound: the worker's engine kernel
        self.outbound: List[Tuple[float, Any]] = []
        self.topology_dirty = False

    def boundary_for(self, shard_id: int) -> ShardBoundary:
        return ShardBoundary(self, shard_id)

    def clock_sync_invalidate(self) -> None:
        # Reported to the coordinator with the next reply; the real
        # ClockSync lives coordinator-side.
        self.topology_dirty = True

    def assign(self, site_name: str, shard_id: int) -> None:
        self.placement[site_name] = shard_id

    def unassign(self, site_name: str) -> None:
        self.placement.pop(site_name, None)

    def dispatch(self, origin_shard: int, message, delay: float):
        from repro.shard.router import _record_handoff_span
        arrival = self.engine.loop.now + delay
        _record_handoff_span(self.engine, origin_shard,
                             self.placement[message.destination], message,
                             arrival)
        self.engine.stats.record_shard_handoff(message.size_bytes())
        entry = (arrival, message)
        self.outbound.append(entry)
        return entry


class _Worker:
    """The command loop around one shard engine (child process)."""

    def __init__(self, conn, spec: WorkerSpec):
        for module in spec.preload_modules:
            importlib.import_module(module)
        from repro.core.kernel import Kernel  # after preloads, like the parent
        self.conn = conn
        self.router = WorkerRouter(spec.shard_id, spec.placement)
        self.kernel = Kernel(
            topology=spec.topology, transport=spec.transport,
            config=spec.config,
            install_system_agents=spec.install_system_agents,
            retention=spec.retention,
            _shard_ctx=ShardContext(spec.shard_id, spec.owned, self.router))
        self.router.engine = self.kernel
        #: agent_id -> last (state, steps, site) shipped, for table deltas
        self._sent_markers: Dict[str, tuple] = {}
        self._event_log_sent = 0
        self._span_seq = 0

    # -- command handlers -------------------------------------------------------

    def _deliver_handoffs(self, handoffs: Sequence[Tuple[float, Any]]) -> None:
        if not handoffs:
            return
        loop = self.kernel.loop
        transport = self.kernel.transport
        stats = self.kernel.stats
        now = loop.now
        # Stable arrival sort: the coordinator appends in (origin, seq)
        # order, so this yields the same total order as the thread
        # backend's inbox drain.
        handoffs = sorted(handoffs, key=lambda entry: entry[0])
        for arrival, message in handoffs:
            if arrival < now - PAST_EPSILON:
                stats.record_shard_late_arrival()
            loop.schedule_at(
                max(arrival, now),
                lambda m=message: transport._deliver(m),
                label=("shard-handoff", message.message_id))

    def cmd_run_to(self, horizon, budget, handoffs):
        self._deliver_handoffs(handoffs)
        loop = self.kernel.loop
        start = default_timer()
        if horizon is None:
            executed = loop.run(max_events=budget)
        else:
            executed = loop.run_until(horizon, max_events=budget)
        busy = default_timer() - start
        outbound, self.router.outbound = self.router.outbound, []
        dirty, self.router.topology_dirty = self.router.topology_dirty, False
        return (executed, busy, outbound, dirty)

    def cmd_advance_clock(self, target, handoffs):
        self._deliver_handoffs(handoffs)
        clock = self.kernel.loop.clock
        clock._advance_to(max(clock.now, target))
        return None

    def cmd_call(self, method, args, kwargs):
        return getattr(self.kernel, method)(*args, **kwargs)

    def cmd_transport(self, method, args, kwargs):
        getattr(self.kernel.transport, method)(*args, **kwargs)
        return None

    def cmd_partition(self, groups):
        self.kernel.topology.set_partition(groups)
        self.kernel.transport.flush_outboxes(only_unroutable=True,
                                             cause="partition")
        return None

    def cmd_heal(self):
        self.kernel.topology.heal_partition()
        return None

    def cmd_add_site(self, name, links, install_system_agents, owner):
        self.router.assign(name, owner)
        try:
            self.kernel.add_site(name, links=links,
                                 install_system_agents=install_system_agents)
        except BaseException:
            self.router.unassign(name)
            raise
        return None

    def cmd_site_assigned(self, name, links, owner):
        """A site joined on another shard: mirror placement + topology."""
        self.router.assign(name, owner)
        topology = self.kernel.topology
        if not topology.has_site(name):
            topology.add_site(name)
        for link in links:
            peer, spec = link if isinstance(link, tuple) else (link, None)
            topology.add_link(name, peer, spec)
        self.router.topology_dirty = True
        return None

    def cmd_digest(self):
        kernel = self.kernel
        table = kernel.table
        new_records: List[AgentRecord] = []
        for agent_id, entry in table.entries.items():
            marker = (entry.state, entry.steps, entry.site_name)
            if self._sent_markers.get(agent_id) != marker:
                record = entry if isinstance(entry, AgentRecord) \
                    else AgentRecord(entry)
                new_records.append(record)
                self._sent_markers[agent_id] = marker
        evicted = [agent_id for agent_id in self._sent_markers
                   if agent_id not in table.entries]
        for agent_id in evicted:
            del self._sent_markers[agent_id]
        sites = {name: (site.alive, site.resident_count(), site.undeliverable,
                        site.background_load, site.capacity)
                 for name, site in kernel.sites.items()}
        # Absolute-sequence deltas: the bounded EventLog / span ring may
        # have dropped old entries, so positional slicing would misalign.
        self._event_log_sent, new_events = \
            kernel.event_log.since(self._event_log_sent)
        self._span_seq, new_spans = kernel.obs.since(self._span_seq)
        return {
            "stats": kernel.stats.export_state(),
            "processed": kernel.loop.processed,
            "counters": (kernel.meets, kernel.transmits, kernel.arrivals,
                         kernel.undeliverable),
            "table_new": new_records,
            "table_evicted": evicted,
            "table_counts": table.state_counts(),
            "table_kinds": table.ledger_entry_kinds(),
            "sites": sites,
            "event_log": new_events,
            "spans": new_spans,
            "metrics": kernel.metrics.export_state(),
        }

    # -- the loop ---------------------------------------------------------------

    def serve(self) -> None:
        handlers = {
            "run_to": self.cmd_run_to,
            "advance_clock": self.cmd_advance_clock,
            "call": self.cmd_call,
            "transport": self.cmd_transport,
            "partition": self.cmd_partition,
            "heal": self.cmd_heal,
            "add_site": self.cmd_add_site,
            "site_assigned": self.cmd_site_assigned,
            "digest": self.cmd_digest,
        }
        loop = None
        while True:
            command = self.conn.recv()
            name = command[0]
            if name == "stop":
                self.conn.send(("ok", (None, self.kernel.loop.now, None)))
                return
            try:
                value = handlers[name](*command[1:])
                loop = self.kernel.loop
                reply = ("ok", (value, loop.now, loop.next_event_time()))
            except BaseException as error:
                reply = ("error", f"{type(error).__name__}: {error}",
                         traceback.format_exc())
            try:
                self.conn.send(reply)
            except Exception as error:
                # Unpicklable reply value: report instead of dying silently.
                self.conn.send(("error",
                                f"unpicklable reply to {name!r}: {error}", ""))


def worker_main(conn, spec: WorkerSpec) -> None:  # pragma: no cover - child
    """Entry point of a spawned shard worker."""
    try:
        _Worker(conn, spec).serve()
    except EOFError:
        pass  # coordinator went away; nothing to clean up, state is ours
    except BaseException:
        # Construction failed: push the traceback so the first recv in the
        # parent produces an actionable error.
        try:
            conn.send(("error", "worker startup failed", traceback.format_exc()))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


# ==============================================================================
# coordinator side: mirrors + proxy + backend
# ==============================================================================

class _MirrorClock:
    """Duck-types SimClock over the mirror (advances are coordinator-local)."""

    __slots__ = ("_loop",)

    def __init__(self, loop: "MirrorLoop"):
        self._loop = loop

    @property
    def now(self) -> float:
        return self._loop.now

    def _advance_to(self, timestamp: float) -> None:
        self._loop.advance_local(timestamp)


class MirrorLoop:
    """Coordinator-side mirror of a worker's event-loop clock and queue head.

    ``now``/``next_event_time``/``processed`` are refreshed from every
    worker reply; pending (not yet shipped) cross-shard handoffs count
    toward ``next_event_time`` so horizon computation and the run loop's
    termination test see them.  Scheduling raises: events live worker-side.
    """

    def __init__(self, proxy: "ProcessEngineProxy"):
        self._proxy = proxy
        self.now = 0.0
        self._next: Optional[float] = None
        self.processed = 0
        self.clock = _MirrorClock(self)

    def apply(self, now: float, next_time: Optional[float],
              executed: int = 0) -> None:
        if now > self.now:
            self.now = now
        self._next = next_time
        self.processed += executed

    def advance_local(self, timestamp: float) -> None:
        if timestamp > self.now:
            self.now = timestamp

    def next_event_time(self) -> Optional[float]:
        best = self._next
        for arrival, _message in self._proxy.pending:
            at = max(arrival, self.now)
            if best is None or at < best:
                best = at
        return best

    def _no_schedule(self, *_args, **_kwargs):
        raise KernelError(
            "the process shard backend keeps event loops worker-side; "
            "coordinator code cannot schedule events on a shard "
            "(use shard_backend='thread' or 'inproc' for loop-level access)")

    schedule = _no_schedule
    schedule_at = _no_schedule
    schedule_many = _no_schedule

    def __repr__(self) -> str:
        return (f"MirrorLoop(shard={self._proxy.shard_id}, now={self.now:.6f}, "
                f"processed={self.processed})")


class MirrorTransport:
    """Facade-visible transport handle: control RPCs only, no sends."""

    def __init__(self, proxy: "ProcessEngineProxy", name: str):
        self._proxy = proxy
        self.name = name

    def on_site_down(self, site_name: str) -> None:
        self._proxy._request("transport", "on_site_down", (site_name,), {})

    def on_site_up(self, site_name: str) -> None:
        self._proxy._request("transport", "on_site_up", (site_name,), {})

    def flush_outboxes(self, only_unroutable: bool = False,
                       cause: str = "manual") -> None:
        self._proxy._request("transport", "flush_outboxes", (),
                             {"only_unroutable": only_unroutable,
                              "cause": cause})

    def __repr__(self) -> str:
        return f"MirrorTransport({self.name!r}, shard={self._proxy.shard_id})"


class SiteMirror:
    """Digest-backed read view of one worker-owned site."""

    __slots__ = ("name", "alive", "undeliverable", "background_load",
                 "capacity", "_resident_count")

    def __init__(self, name: str):
        self.name = name
        self.alive = True
        self.undeliverable = 0
        self.background_load = 0.0
        self.capacity = 1.0
        self._resident_count = 0

    def resident_count(self) -> int:
        return self._resident_count

    def load_metric(self, active_agents: int) -> float:
        capacity = self.capacity if self.capacity > 0 else 1e-9
        return (active_agents + self.background_load) / capacity

    def _digest_only(self, *_args, **_kwargs):
        raise KernelError(
            f"site {self.name!r} lives in a shard worker process; the "
            f"coordinator serves digests (alive/load/counters) only — "
            f"per-agent residents() / cabinet() queries need "
            f"shard_backend='thread' or 'inproc'")

    residents = _digest_only
    cabinet = _digest_only
    install = _digest_only
    is_installed = _digest_only

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"SiteMirror({self.name!r}, {state}, residents~{self._resident_count})"


class ShardTableMirror:
    """One worker's AgentTable, reconstructed from record deltas.

    Implements exactly the part surface
    :class:`~repro.core.lifecycle.MergedAgentTable` consumes, so the
    facade's ``kernel.table`` works identically on the process backend.
    Counters come from the worker's own ``state_counts()`` (authoritative),
    entries are :class:`AgentRecord` snapshots.
    """

    def __init__(self, retention):
        self.retention = make_retention(retention)
        self.entries: Dict[str, AgentRecord] = {}
        self._by_name: Dict[str, Dict[str, AgentRecord]] = {}
        self._counts = {"launched": 0, "active": 0, "completed": 0,
                        "failed": 0, "killed": 0, "archived": 0,
                        "evicted": 0, "retained": 0}
        self._kinds = {"instances": 0, "records": 0}

    def apply(self, new_records, evicted, counts, kinds) -> None:
        for record in new_records:
            self.entries[record.agent_id] = record
            self._by_name.setdefault(record.name, {})[record.agent_id] = record
        for agent_id in evicted:
            entry = self.entries.pop(agent_id, None)
            if entry is not None:
                named = self._by_name.get(entry.name)
                if named is not None:
                    named.pop(agent_id, None)
                    if not named:
                        del self._by_name[entry.name]
        self._counts = dict(counts)
        self._kinds = dict(kinds)

    def named(self, name: str) -> List[AgentRecord]:
        named = self._by_name.get(name)
        return list(named.values()) if named else []

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, agent_id: str) -> bool:
        return agent_id in self.entries

    def __getattr__(self, name: str) -> int:
        if name in ("launched", "completed", "failed", "killed",
                    "archived", "evicted"):
            return self.__dict__["_counts"].get(name, 0)
        raise AttributeError(f"{type(self).__name__} has no attribute {name!r}")

    @property
    def terminal(self) -> int:
        counts = self._counts
        return counts["completed"] + counts["failed"] + counts["killed"]

    @property
    def active(self) -> int:
        return self._counts["launched"] - self.terminal

    def state_counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def ledger_entry_kinds(self) -> Dict[str, int]:
        return dict(self._kinds)

    def __repr__(self) -> str:
        return (f"ShardTableMirror(retained={len(self.entries)}, "
                f"launched={self._counts['launched']})")


class _WorkerHandle:
    """One worker's pipe + process, with error-translating request helpers."""

    __slots__ = ("shard_id", "conn", "process")

    def __init__(self, shard_id: int, conn, process):
        self.shard_id = shard_id
        self.conn = conn
        self.process = process

    def send(self, command: tuple) -> None:
        try:
            self.conn.send(command)
        except (BrokenPipeError, OSError) as error:
            raise KernelError(
                f"shard {self.shard_id} worker is gone "
                f"(exitcode={self.process.exitcode}): {error}") from None

    def recv(self):
        try:
            reply = self.conn.recv()
        except EOFError:
            raise KernelError(
                f"shard {self.shard_id} worker died "
                f"(exitcode={self.process.exitcode})") from None
        if reply[0] == "error":
            detail = f"\n{reply[2]}" if reply[2] else ""
            raise KernelError(
                f"shard {self.shard_id} worker failed: {reply[1]}{detail}")
        return reply[1]

    def request(self, *command):
        self.send(command)
        return self.recv()


class ProcessEngineProxy:
    """The facade-visible 'engine' for one worker process.

    Presents the slice of the engine-kernel surface the sharded facade
    touches: delegation methods become RPCs, state attributes are mirrors
    refreshed from worker replies and per-run digests.
    """

    def __init__(self, backend: "ProcessBackend", handle: _WorkerHandle,
                 spec: WorkerSpec, transport_name: str):
        self.backend = backend
        self.handle = handle
        self.shard_id = spec.shard_id
        self.loop = MirrorLoop(self)
        self.stats = NetworkStats()
        self.table = ShardTableMirror(
            spec.retention if spec.retention is not None
            else spec.config.retention)
        self.sites: Dict[str, SiteMirror] = {
            name: SiteMirror(name) for name in sorted(spec.owned)}
        self.stores: Dict[str, Any] = {}
        self.durability = resolve_policy(spec.config.durability)
        self.transport = MirrorTransport(self, transport_name)
        # Coordinator-side placeholder matching the engine's seed derivation;
        # the authoritative stream lives in the worker.
        self.rng = random.Random(spec.config.rng_seed + spec.shard_id)
        self.event_log: List[tuple] = []
        #: span mirror + metrics mirror, refreshed from per-run digests so
        #: the facade's TracerView/MetricsView read process shards exactly
        #: like in-process engines
        self.obs = SpanMirror(enabled=spec.config.obs_enabled)
        self.metrics = MetricsRegistry()
        self.meets = 0
        self.transmits = 0
        self.arrivals = 0
        self.undeliverable = 0
        #: cross-shard handoffs awaiting shipment with the next command
        self.pending: List[Tuple[float, Any]] = []

    # -- plumbing ---------------------------------------------------------------

    def take_pending(self) -> List[Tuple[float, Any]]:
        pending, self.pending = self.pending, []
        return pending

    def _request(self, *command):
        value, now, next_time = self.handle.request(*command)
        self.loop.apply(now, next_time)
        return value

    # -- facade delegation surface ----------------------------------------------

    def launch(self, site_name, behaviour, briefcase=None, name=None,
               system=False, delay=0.0):
        return self._request("call", "launch", (site_name, behaviour, briefcase),
                             {"name": name, "system": system, "delay": delay})

    def launch_many(self, requests, delay=0.0):
        return self._request("call", "launch_many", (list(requests),),
                             {"delay": delay})

    def install_agent(self, site_name, name, behaviour, system=False,
                      replace=False):
        return self._request("call", "install_agent",
                             (site_name, name, behaviour),
                             {"system": system, "replace": replace})

    def crash_site(self, name):
        self._request("call", "crash_site", (name,), {})
        mirror = self.sites.get(name)
        if mirror is not None:
            mirror.alive = False

    def recover_site(self, name):
        self._request("call", "recover_site", (name,), {})
        if not self.durability.durable:
            # Instant recovery under policy "none"; durable replays finish
            # worker-side and the mirror refreshes at the next digest.
            mirror = self.sites.get(name)
            if mirror is not None:
                mirror.alive = True

    def make_durable(self, cabinet_name, sites=None):
        return self._request("call", "make_durable", (cabinet_name,),
                             {"sites": sites})

    def log_event(self, agent_id, site_name, message):
        self._request("call", "log_event", (agent_id, site_name, message), {})

    def add_site(self, name, links=(), install_system_agents=None,
                 owner: Optional[int] = None) -> SiteMirror:
        self._request("add_site", name, list(links), install_system_agents,
                      self.shard_id if owner is None else owner)
        mirror = SiteMirror(name)
        self.sites[name] = mirror
        return mirror

    def site_assigned(self, name, links, owner):
        self._request("site_assigned", name, list(links), owner)

    def partition(self, groups):
        self._request("partition", [list(group) for group in groups])

    def heal_partition(self):
        self._request("heal")

    def on_site_added(self, callback):
        raise KernelError(
            "on_site_added subscriptions cannot cross the process boundary; "
            "use shard_backend='thread' or 'inproc'")

    def on_site_recovered(self, callback):
        raise KernelError(
            "on_site_recovered subscriptions cannot cross the process "
            "boundary; use shard_backend='thread' or 'inproc'")

    # -- digest application -----------------------------------------------------

    def apply_digest(self, digest: Dict[str, Any]) -> None:
        self.stats.load_state(digest["stats"])
        self.loop.processed = digest["processed"]
        (self.meets, self.transmits,
         self.arrivals, self.undeliverable) = digest["counters"]
        self.table.apply(digest["table_new"], digest["table_evicted"],
                         digest["table_counts"], digest["table_kinds"])
        for name, (alive, residents, undeliverable,
                   background_load, capacity) in digest["sites"].items():
            mirror = self.sites.get(name)
            if mirror is None:
                mirror = self.sites[name] = SiteMirror(name)
            mirror.alive = alive
            mirror._resident_count = residents
            mirror.undeliverable = undeliverable
            mirror.background_load = background_load
            mirror.capacity = capacity
        self.event_log.extend(digest["event_log"])
        self.obs.absorb(digest["spans"])
        self.metrics.load_state(digest["metrics"])

    def __repr__(self) -> str:
        return (f"ProcessEngineProxy(shard={self.shard_id}, "
                f"sites={len(self.sites)}, now={self.loop.now:.4f})")


class ProcessBackend(ShardBackend):
    """Spawns one worker per shard and drives rounds over pipes."""

    name = "process"
    distributed = True

    def __init__(self, specs: Sequence[WorkerSpec], transport_name: str,
                 timer=default_timer):
        super().__init__(timer)
        self._handles: List[_WorkerHandle] = []
        self.proxies: List[ProcessEngineProxy] = []
        #: shared with the facade's MailRouter so late-joining sites route
        self.placement: Dict[str, int] = {}
        #: coordinator ClockSync, set by the facade; workers report
        #: topology growth and the dirty flag propagates here
        self.clock_sync = None
        self._closed = False
        ctx = multiprocessing.get_context("spawn")
        try:
            for spec in specs:
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=worker_main, args=(child_conn, spec),
                    name=f"repro-shard-{spec.shard_id}", daemon=True)
                process.start()
                child_conn.close()
                handle = _WorkerHandle(spec.shard_id, parent_conn, process)
                self._handles.append(handle)
                self.proxies.append(
                    ProcessEngineProxy(self, handle, spec, transport_name))
        except BaseException:
            self.close()
            raise

    # -- round execution --------------------------------------------------------

    def run_bursts(self, plans, budget):
        if not plans:
            return 0, 0.0
        if budget is not None or len(plans) == 1:
            total = 0
            busy_max = 0.0
            for shard, horizon in plans:
                remaining = None if budget is None else budget - total
                if remaining is not None and remaining <= 0:
                    break
                proxy = shard.engine
                proxy.handle.send(
                    ("run_to", horizon, remaining, proxy.take_pending()))
                executed, busy = self._collect(shard)
                total += executed
                if busy > busy_max:
                    busy_max = busy
            return total, busy_max
        for shard, horizon in plans:
            proxy = shard.engine
            proxy.handle.send(("run_to", horizon, None, proxy.take_pending()))
        total = 0
        busy_max = 0.0
        for shard, _horizon in plans:
            executed, busy = self._collect(shard)
            total += executed
            if busy > busy_max:
                busy_max = busy
        return total, busy_max

    def _collect(self, shard) -> Tuple[int, float]:
        proxy = shard.engine
        (executed, busy, outbound, dirty), now, next_time = \
            proxy.handle.recv()
        proxy.loop.apply(now, next_time, executed)
        shard.busy_seconds += busy
        if dirty and self.clock_sync is not None:
            self.clock_sync.invalidate()
        for arrival, message in outbound:
            owner = self.placement[message.destination]
            self.proxies[owner].pending.append((arrival, message))
        return executed, busy

    def finish_run(self) -> None:
        """Push lagging clocks + parked handoffs, then pull state digests."""
        for proxy in self.proxies:
            proxy.handle.send(
                ("advance_clock", proxy.loop.now, proxy.take_pending()))
        for proxy in self.proxies:
            _value, now, next_time = proxy.handle.recv()
            proxy.loop.apply(now, next_time)
        for proxy in self.proxies:
            proxy.handle.send(("digest",))
        for proxy in self.proxies:
            digest, now, next_time = proxy.handle.recv()
            proxy.loop.apply(now, next_time)
            proxy.apply_digest(digest)

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            try:
                handle.conn.send(("stop",))
            except Exception:
                pass
        for handle in self._handles:
            handle.process.join(timeout=5)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5)
            try:
                handle.conn.close()
            except Exception:
                pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else "live"
        return f"ProcessBackend({len(self.proxies)} workers, {state})"
