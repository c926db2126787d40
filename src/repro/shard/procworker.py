"""The process shard backend: one long-lived spawn worker per shard.

This is the backend that turns the parallel-host *model* (events over the
slowest shard's busy time) into real wall-clock parallelism on multi-core
hosts — each shard's :class:`~repro.core.engine.Engine` lives in its own
interpreter, so pure-Python event execution escapes the GIL entirely.  It
is the same class the in-process backends run, spoken to through the same
:data:`~repro.core.engine.ENGINE_PROTOCOL`; only the calls are pickled.

Wire protocol (pickle over ``multiprocessing`` pipes, one command in /
one reply out, strictly alternating per worker):

* coordinator -> worker: ``("call", method, args, kwargs)`` for any
  protocol method — ``run_to(horizon, budget, handoffs)`` each round,
  ``launch``/``crash_site``/``add_site``/... between rounds — plus
  ``("digest",)`` (state mirroring) and ``("stop",)``.
* worker -> coordinator: first, once its engine is built, a ready
  ``("ok", (None, now, next_event_time, 0.0))`` (or the startup error);
  then ``("ok", (value, now, next_event_time, seconds))`` or
  ``("error", summary, traceback)`` per command.  Every reply carries
  the worker's clock and next-event time so the coordinator's
  :class:`MirrorLoop` never goes stale after a command that scheduled
  events (a ``launch`` between rounds must move the mirrored next-event
  time, or the coordinator would believe the cluster idle and stop), and
  the seconds the call took in the worker (a burst's busy time, without
  the pipe).

Cross-shard mail is pickled with the calls: ``run_to`` returns what the
burst spooled for other shards, the coordinator routes it, and it rides
the owner's next ``run_to``/``advance_clock`` — exactly the in-process
path (see :mod:`repro.shard.router`).

Facade views (``stats``, ``table``, ``sites``, ``event_log``,
``trace_spans``, ``metrics``) are served from per-run **state digests**:
after each ``ShardSet.run`` the coordinator pulls one digest per worker
and refreshes the proxy mirrors.  A digest carries:

* the engine's :class:`~repro.net.stats.NetworkStats` object itself (it
  pickles whole), copied into the proxy's in place;
* the loop's processed count and the four event counters;
* new/changed :class:`~repro.core.lifecycle.AgentRecord` deltas (as ``row``
  tuples), evicted ids, and the table's counts;
* per-site flags (alive, residents, undeliverable, load, capacity); the
  facade's topology follows ``alive``, so a durable replay that completes
  worker-side marks the site up there too;
* the records (log lines, and spans) appended to the engine's ring since
  the last digest;
* what the engine's other metric sources (flow, transport) read now.

Mid-run the mirrors lag by design; everything tests read (counters,
results) is read after ``run()`` returns.

Known limits (all raise a clear ``KernelError``): behaviours must be
picklable or registered in importable modules (the worker re-imports the
registry's modules; ``__main__``-only behaviours cannot rehydrate),
coordinator-side event scheduling on ``kernel.loop`` is unavailable, and
so are ``on_site_added``/``on_site_recovered`` subscriptions and per-agent
site queries (``residents()``/``cabinet()``).  One does not raise: a worker's
copy of the topology never learns that a site another worker hosts crashed
(``peer_down``/``peer_up`` reach its transport only), so traffic to that
site still crosses the boundary as a handoff where an in-process engine
drops it at send.  ``shard_handoffs``, ``shard_handoff_bytes`` and
``shard_late_arrivals`` then differ from ``inproc``; ``counters()`` do not.
The fix needs a recovery notice sent through the handoff path.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import multiprocessing
import pickle
import random
import sys
import traceback
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.engine import ENGINE_PROTOCOL, Engine
from repro.core.errors import KernelError
from repro.core.lifecycle import AgentRecord, make_retention
from repro.core.registry import default_registry
from repro.core.timing import default_timer
from repro.net.stats import NetworkStats
from repro.obs import MetricsRegistry, RingSink
from repro.shard.backend import ShardBackend
from repro.store.policy import resolve_policy

__all__ = ["ProcessBackend", "ProcessEngineProxy", "WorkerSpec",
           "preload_module_names", "worker_main"]


# ==============================================================================
# shared: the worker build spec
# ==============================================================================

@dataclass
class WorkerSpec:
    """Everything a spawn worker needs to rebuild its shard engine.

    Must pickle cleanly — :meth:`ProcessBackend.spawn` probes that before
    starting anything, so a bad config fails fast with a useful error instead of a cryptic
    mid-spawn traceback.
    """

    shard_id: int
    topology: Any
    transport: Any  # a transport name or class (instances are rejected upstream)
    config: Any
    install_system_agents: bool
    retention: Any
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

class _Worker:
    """The command loop around one shard engine (child process)."""

    def __init__(self, conn, spec: WorkerSpec):
        for module in spec.preload_modules:
            importlib.import_module(module)
        self.conn = conn
        self.engine = Engine(
            spec.topology, spec.config, spec.transport,
            install_system_agents=spec.install_system_agents,
            retention=spec.retention, shard_id=spec.shard_id,
            placement=dict(spec.placement))
        #: agent_id -> last (state, steps, site) shipped, for table deltas; None
        #: once shipped terminal: it cannot change again, the id is all we keep
        self._sent_markers: Dict[str, Optional[tuple]] = {}
        self._ring_sent = 0

    # -- command handlers -------------------------------------------------------

    def cmd_call(self, method, args, kwargs):
        if method not in ENGINE_PROTOCOL:
            raise KernelError(f"{method!r} is not part of the engine protocol")
        return getattr(self.engine, method)(*args, **kwargs)

    def cmd_digest(self):
        engine = self.engine
        table = engine.table
        #: rows, not records: plain tuples pickle several times faster
        new_rows: List[tuple] = []
        for agent_id, entry in table.entries.items():
            marker = None if entry.finished else (
                entry.state, entry.steps, entry.site_name)
            if self._sent_markers.get(agent_id, ()) != marker:  # (): never shipped
                new_rows.append(AgentRecord.row(entry))
                self._sent_markers[agent_id] = marker
        evicted = [agent_id for agent_id in self._sent_markers
                   if agent_id not in table.entries]
        for agent_id in evicted:
            del self._sent_markers[agent_id]
        sites = {name: (site.alive, site.resident_count(), site.undeliverable,
                        site.background_load, site.capacity)
                 for name, site in engine.sites.items()}
        # An absolute-sequence delta: the bounded ring may have dropped
        # old records, so positional slicing would misalign.
        self._ring_sent, new_records = engine.ring.since(self._ring_sent)
        return {
            # The live object: it pickles whole, defaultdicts and sketch RNG too.
            "stats": engine.stats,
            "processed": engine.loop.processed,
            "counters": (engine.meets, engine.transmits, engine.arrivals,
                         engine.undeliverable),
            "table_new": new_rows,
            "table_evicted": evicted,
            "table_counts": table.state_counts(),
            "table_kinds": table.ledger_entry_kinds(),
            "sites": sites,
            "ring": new_records,
            # "net" is the stats above; the rest read worker-side objects.
            "metric_sources": engine.metrics.collect(skip=("net",)),
        }

    # -- the loop ---------------------------------------------------------------

    def serve(self) -> None:
        handlers = {"call": self.cmd_call, "digest": self.cmd_digest}
        loop = self.engine.loop
        # The start-up handshake: the engine is built.
        self.conn.send(("ok", (None, loop.now, loop.next_event_time(), 0.0)))
        while True:
            command = self.conn.recv()
            name = command[0]
            if name == "stop":
                self.conn.send(("ok", (None, loop.now, None, 0.0)))
                return
            try:
                start = default_timer()
                value = handlers[name](*command[1:])
                seconds = default_timer() - start
                reply = ("ok", (value, loop.now, loop.next_event_time(), seconds))
            except Exception as error:
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
        # Construction failed (or the worker was interrupted): push the
        # traceback so the next recv in the parent produces an actionable
        # error.
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
    worker reply.  Scheduling raises: events live worker-side.
    """

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.now = 0.0
        self._next: Optional[float] = None
        self.processed = 0
        self.clock = _MirrorClock(self)

    def apply(self, now: float, next_time: Optional[float]) -> None:
        if now > self.now:
            self.now = now
        self._next = next_time

    def advance_local(self, timestamp: float) -> None:
        if timestamp > self.now:
            self.now = timestamp

    def next_event_time(self) -> Optional[float]:
        return self._next

    def _no_schedule(self, *_args, **_kwargs):
        raise KernelError(
            "the process shard backend keeps event loops worker-side; "
            "coordinator code cannot schedule events on a shard "
            "(use shard_backend='inproc' for loop-level access)")

    schedule = _no_schedule
    schedule_at = _no_schedule
    schedule_many = _no_schedule

    def __repr__(self) -> str:
        return (f"MirrorLoop(shard={self.shard_id}, now={self.now:.6f}, "
                f"processed={self.processed})")


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
            f"shard_backend='inproc'")

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
    Counters and length come from the worker's own ``state_counts()``; entries
    are :class:`AgentRecord` snapshots, built from the shipped rows on first read.
    """

    def __init__(self, retention):
        self.retention = make_retention(retention)
        self._entries: Dict[str, AgentRecord] = {}
        self._by_name: Dict[str, Dict[str, AgentRecord]] = {}
        #: rows applied since the last read, oldest first
        self._rows: List[tuple] = []
        self._counts = {"launched": 0, "active": 0, "completed": 0,
                        "failed": 0, "killed": 0, "archived": 0,
                        "evicted": 0, "retained": 0}
        self._kinds = {"instances": 0, "records": 0}

    def apply(self, new_rows, evicted, counts, kinds) -> None:
        self._rows.extend(new_rows)
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

    def _build(self) -> None:
        """Turn the rows applied since the last read into indexed records."""
        rows, self._rows = self._rows, []
        for row in rows:
            record = AgentRecord(row)
            self._entries[record.agent_id] = record
            self._by_name.setdefault(record.name, {})[record.agent_id] = record

    @property
    def entries(self) -> Dict[str, AgentRecord]:
        self._build()
        return self._entries

    def named(self, name: str) -> List[AgentRecord]:
        self._build()
        return list(self._by_name.get(name, {}).values())

    def __len__(self) -> int:
        return self._counts["retained"]

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
        return (f"ShardTableMirror(retained={len(self)}, "
                f"launched={self._counts['launched']})")


class _WorkerHandle:
    """One worker's pipe + process, with error-translating request helpers."""

    __slots__ = ("shard_id", "conn", "process", "replied")

    def __init__(self, shard_id: int, conn, process):
        self.shard_id = shard_id
        self.conn = conn
        self.process = process
        #: whether any reply (the start-up handshake first) ever came
        self.replied = False

    def send(self, command: tuple) -> None:
        try:
            self.conn.send(command)
        except (pickle.PicklingError, AttributeError, TypeError) as error:
            # Raised while pickling, before anything is written: the pipe
            # still alternates command and reply.
            call = command[1] if command[0] == "call" else command[0]
            raise KernelError(
                f"shard {self.shard_id}: cannot send {call!r} to the worker "
                f"process, an argument does not pickle: {error} (register "
                f"behaviours in an importable module and pass them by name, "
                f"or use shard_backend='inproc')") from None
        except (BrokenPipeError, OSError) as error:
            raise KernelError(
                f"shard {self.shard_id} worker is gone "
                f"(exitcode={self.process.exitcode}): {error}") from None

    def recv(self):
        try:
            reply = self.conn.recv()
        except (EOFError, OSError):
            # EOF: the worker closed its end; a reset (OSError): it died
            # with a command still unread in the pipe.  Either way it is
            # exiting: join it so the exit code is real, not None.
            self.process.join(timeout=5)
            cause = "" if self.replied else (
                " before its first reply; a spawn worker re-imports the "
                "parent's __main__ module, so a script must build a "
                "process-sharded Kernel under `if __name__ == "
                "\"__main__\":`")
            raise KernelError(
                f"shard {self.shard_id} worker died "
                f"(exitcode={self.process.exitcode}){cause}") from None
        self.replied = True
        if reply[0] == "error":
            detail = f"\n{reply[2]}" if reply[2] else ""
            raise KernelError(
                f"shard {self.shard_id} worker failed: {reply[1]}{detail}")
        return reply[1]

    def request(self, *command):
        self.send(command)
        return self.recv()


class ProcessEngineProxy:
    """The facade-visible engine for one worker process.

    Every :data:`~repro.core.engine.ENGINE_PROTOCOL` method is forwarded as
    a ``call`` command; the state attributes are mirrors refreshed from
    worker replies and per-run digests.
    """

    def __init__(self, handle: _WorkerHandle, spec: WorkerSpec,
                 transport_name: str):
        self.handle = handle
        self.shard_id = spec.shard_id
        self.loop = MirrorLoop(spec.shard_id)
        self.stats = NetworkStats()
        #: the facade's topology: it follows the site flags each digest carries
        self.topology = spec.topology
        self.table = ShardTableMirror(
            spec.retention if spec.retention is not None
            else spec.config.retention)
        self.sites: Dict[str, SiteMirror] = {
            name: SiteMirror(name) for name, owner in sorted(spec.placement.items())
            if owner == spec.shard_id}
        self.stores: Dict[str, Any] = {}
        self.durability = resolve_policy(spec.config.durability)
        #: what ``kernel.transport`` introspection sees; sends live worker-side
        self.transport = SimpleNamespace(name=transport_name)
        # Coordinator-side placeholder matching the engine's seed derivation;
        # the authoritative stream lives in the worker.
        self.rng = random.Random(spec.config.rng_seed + spec.shard_id)
        #: the record ring and metric sources, refreshed from per-run digests
        #: into the classes an engine uses (same bound), so the facade's
        #: merged views read process shards exactly like in-process engines
        self.ring = RingSink(spec.config.obs_ring)
        self.metrics = MetricsRegistry()
        self.meets = 0
        self.transmits = 0
        self.arrivals = 0
        self.undeliverable = 0

    # -- the protocol, forwarded ------------------------------------------------

    def post(self, method: str, *args, **kwargs) -> None:
        """Send a protocol call without waiting (pair with :meth:`collect`)."""
        self.handle.send(("call", method, args, kwargs))

    def collect(self):
        """``(value, worker seconds)`` of the oldest uncollected call."""
        value, now, next_time, seconds = self.handle.recv()
        self.loop.apply(now, next_time)
        return value, seconds

    def _call(self, method: str, *args, **kwargs):
        self.post(method, *args, **kwargs)
        return self.collect()[0]

    def __getattr__(self, name: str):
        if name in ENGINE_PROTOCOL:
            return partial(self._call, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    # The few calls that also keep a coordinator-side mirror current.

    def add_site(self, name, links=(), install_system_agents=None) -> None:
        self._call("add_site", name, links, install_system_agents)
        self.sites[name] = SiteMirror(name)

    def crash_site(self, name) -> bool:
        went_down = self._call("crash_site", name)
        self.sites[name].alive = False
        return went_down

    def recover_site(self, name) -> bool:
        # A durable replay finishes worker-side; the mirror then refreshes
        # at the next digest.
        is_up = self._call("recover_site", name)
        if is_up:
            self.sites[name].alive = True
        return is_up

    def on_site_added(self, callback):
        raise KernelError(
            "on_site_added subscriptions cannot cross the process boundary; "
            "use shard_backend='inproc'")

    def on_site_recovered(self, callback):
        raise KernelError(
            "on_site_recovered subscriptions cannot cross the process "
            "boundary; use shard_backend='inproc'")

    # -- digest application -----------------------------------------------------

    def apply_digest(self, digest: Dict[str, Any]) -> None:
        # In place: the facade's StatsView holds this object.
        vars(self.stats).update(vars(digest["stats"]))
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
            if alive == self.topology.is_down(name):
                # A durable replay completed worker-side: mark the facade's
                # topology as the engine marked its own.
                (self.topology.mark_up if alive else self.topology.mark_down)(name)
            mirror._resident_count = residents
            mirror.undeliverable = undeliverable
            mirror.background_load = background_load
            mirror.capacity = capacity
        for record in digest["ring"]:
            self.ring.emit(record)
        self.metrics.register("worker", digest["metric_sources"].copy)

    def __repr__(self) -> str:
        return (f"ProcessEngineProxy(shard={self.shard_id}, "
                f"sites={len(self.sites)}, now={self.loop.now:.4f})")


class ProcessBackend(ShardBackend):
    """Runs each shard's bursts across a pipe, in its own spawn worker."""

    name = "process"

    def __init__(self, specs: Sequence[WorkerSpec], transport_name: str,
                 timer=default_timer):
        super().__init__(timer)
        self._handles: List[_WorkerHandle] = []
        self.proxies: List[ProcessEngineProxy] = []
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
                    ProcessEngineProxy(handle, spec, transport_name))
            # Every worker starts at once; wait for each one's handshake so
            # a worker that cannot start fails the Kernel(...) call itself.
            for proxy in self.proxies:
                proxy.collect()
        except BaseException:
            self.close()
            raise

    @classmethod
    def spawn(cls, topology, config, transport, install_system_agents,
              registry, retention, placement) -> "ProcessBackend":
        """One worker per shard, each rebuilding its engine from a spec."""
        if registry is not default_registry():
            raise KernelError(
                "shard_backend='process' rebuilds behaviours from the "
                "process-wide default registry in each worker; a custom "
                "registry instance cannot cross the process boundary (use "
                "shard_backend='inproc' or register behaviours in the "
                "default registry)")
        try:
            pickle.dumps((config, retention, transport, topology))
        except Exception as error:
            raise KernelError(
                "shard_backend='process' ships the topology, config and "
                f"transport to spawn workers, but pickling failed: {error} "
                "(pass the transport by name, keep LinkSpec-based "
                "topologies, and avoid closures in the config)") from None
        transport_name = (transport if isinstance(transport, str)
                          else getattr(transport, "name", transport.__name__))
        preload = preload_module_names(registry)
        return cls([WorkerSpec(
            shard_id=shard_id, topology=topology, transport=transport,
            config=config, install_system_agents=install_system_agents,
            retention=retention, placement=placement, preload_modules=preload)
            for shard_id in range(config.shards)], transport_name)

    # -- round execution --------------------------------------------------------

    def _collect(self, shard):
        (executed, outbound), busy = shard.engine.collect()
        shard.engine.loop.processed += executed
        return executed, busy, outbound

    def run_to(self, shard, horizon, budget, handoffs):
        shard.engine.post("run_to", horizon, budget, handoffs)
        return self._collect(shard)

    def run_round(self, plans):
        for shard, horizon, handoffs in plans:
            shard.engine.post("run_to", horizon, None, handoffs)
        return [self._collect(shard) for shard, _horizon, _handoffs in plans]

    def finish_run(self, flushes) -> None:
        """Land worker clocks + leftover handoffs, then pull state digests."""
        for shard, target, handoffs in flushes:
            shard.engine.post("advance_clock", target, handoffs)
        for shard, _target, _handoffs in flushes:
            shard.engine.collect()
        for proxy in self.proxies:
            proxy.handle.send(("digest",))
        for proxy in self.proxies:
            digest, now, next_time, _seconds = proxy.handle.recv()
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
