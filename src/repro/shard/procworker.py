"""The process shard backend: one long-lived forked worker per shard.

This is the backend that turns the parallel-host *model* (events over the
slowest shard's busy time) into real wall-clock parallelism on multi-core
hosts — each shard's :class:`~repro.core.engine.Engine` lives in its own
interpreter, so pure-Python event execution escapes the GIL entirely.  It
is the same class the in-process backends run, spoken to through the same
:data:`~repro.core.engine.ENGINE_PROTOCOL`; only the calls are pickled.

Wire protocol (pickled messages over ``multiprocessing`` pipes, one
command in / one reply out, strictly alternating per worker):

* coordinator -> worker: ``("call", method, args, kwargs)`` for any
  protocol method — ``run_to(horizon, budget, handoffs)`` each round,
  ``launch``/``crash_site``/``add_site``/... between rounds — plus
  ``("digest",)`` (state mirroring) and ``("stop",)``.
* worker -> coordinator: first, once its engine is built, a ready
  ``("ok", (None, now, next_event_time, 0.0))`` (or the startup error);
  then ``("ok", (value, now, next_event_time, seconds))`` or
  ``("error", error, traceback)`` per command.  Every reply carries
  the worker's clock and next-event time so the coordinator's
  :class:`MirrorLoop` never goes stale after a command that scheduled
  events (a ``launch`` between rounds must move the mirrored next-event
  time, or the coordinator would believe the cluster idle and stop), and
  the seconds the call took in the worker (a burst's busy time, without
  the pipe).  An error reply carries the exception itself when it
  survives a pickle round trip in the worker, so the coordinator raises
  the type an in-process engine would (its ``__cause__`` holds the
  worker's traceback); otherwise a ``"Type: message"`` summary, raised as
  a :class:`KernelError`.

Both ends speak through a :class:`_FrameStream`: ``pickle.dump`` writes a
message straight into the pipe, one ``send_bytes`` per pickle frame (64 KiB
at most, or one large ``bytes`` element alone), and ``pickle.load`` pulls
those frames back one ``recv_bytes`` at a time.  No message is ever held
whole as bytes — a 2 MB ``launch_many`` share would otherwise sit as one
buffer next to the objects it carries, in both processes.  A send that
fails part-way (an argument or a reply value does not pickle) writes one
empty frame, the abort marker: the receiver drops the partial message and
reads on, so command and reply still alternate after a pickling failure of
any size.  A message that pickles is loadable at the other end by
construction (same code, same modules), which is what keeps the frames
aligned: a load that failed part-way would misread every message after it.

Cross-shard mail is pickled with the calls: ``run_to`` returns what the
burst spooled for other shards, the coordinator routes it, and it rides
the owner's next ``run_to``/``advance_clock`` — exactly the in-process
path (see :mod:`repro.shard.router`).

Facade views (``stats``, ``table``, ``sites``, ``event_log``,
``trace_spans``) are served from per-run **state digests**: after each
``ShardSet.run`` the coordinator pulls one digest per worker and
refreshes, in place, the classes an engine keeps.  A digest carries:

* the engine's :class:`~repro.net.stats.NetworkStats` whole (the four
  event counters ``counters()`` reports among its fields);
* ``"table": (rows, evicted, counters)`` for :meth:`AgentTable.absorb
  <repro.core.lifecycle.AgentTable.absorb>`: a record row per entry new or
  changed since the last digest, the ids evicted since, and the worker
  table's int attributes;
* per-site ``(alive, residents, undeliverable, load, capacity)``;
* the ring's records since the last digest.

``processed`` needs none: the coordinator sums the bursts it collects.
Views lag mid-run by design and refresh when ``run()`` returns, so the
agents a ``crash_site`` between runs kills show in ``counters()`` only
after the next ``run()``; an in-process engine shows them at once.

Workers start with the ``fork`` method only: a forked worker inherits the
coordinator's imported modules and its default behaviour registry, so it
builds its engine from its :class:`WorkerSpec` at once, and a behaviour
registered anywhere before ``Kernel(...)`` (a script's ``__main__``
included) runs there.  A platform without ``fork`` has no process backend.

Known limits (all raise a clear ``KernelError``): a behaviour that crosses
the pipe after start-up (a ``launch`` argument, not a registered name) must
pickle, coordinator-side event scheduling on ``kernel.loop`` is
unavailable, and so are ``on_site_added``/``on_site_recovered``
subscriptions and worker-side site state (``residents()``, ``cabinet()``,
``kernel.store()`` under a durable policy).  One does not raise: a worker's
copy of the topology never learns that a site another worker hosts crashed
(``peer_down``/``peer_up`` reach its transport only), so traffic to that
site still crosses the boundary as a handoff where an in-process engine
drops it at send.  ``shard_handoffs``, ``shard_handoff_bytes`` and
``shard_late_arrivals`` then differ from ``inproc``; ``counters()`` do not.
The fix needs a recovery notice sent through the handoff path.
"""

from __future__ import annotations

import contextlib
import pickle
import traceback
import weakref
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence

from repro.core.engine import ENGINE_PROTOCOL, Engine
from repro.core.errors import KernelError
from repro.core.lifecycle import AgentRecord, AgentTable
from repro.core.registry import default_registry
from repro.core.site import Site
from repro.core.timing import default_timer
from repro.net.stats import NetworkStats
from repro.obs import RingSink
from repro.shard.backend import ShardBackend, worker_context

__all__ = ["ProcessBackend", "ProcessEngineProxy", "WorkerSpec", "worker_main"]


# ==============================================================================
# shared: the worker build spec and the pipe stream
# ==============================================================================

@dataclass
class WorkerSpec:
    """Everything a forked worker needs to build its shard engine."""

    shard_id: int
    topology: Any
    transport: Any  # a transport name or class (the worker's engine refuses the rest)
    config: Any
    install_system_agents: bool
    placement: Dict[str, int]


class _Aborted(Exception):
    """The sender gave up on the message being read (an empty frame came)."""


class _FrameStream:
    """One end of a worker pipe, pickling messages straight through it.

    ``send`` hands each pickle frame to ``conn.send_bytes`` as the pickler
    produces it, and ``recv`` has the unpickler pull them with
    ``conn.recv_bytes``, so neither end builds a whole message as bytes.
    """

    __slots__ = ("conn", "_frame")

    def __init__(self, conn):
        self.conn = conn
        #: what is left of the last frame received
        self._frame = memoryview(b"")

    def send(self, message) -> None:
        try:
            pickle.dump(message, self, protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException:
            # Frames may be out already: the abort marker tells the
            # receiver to drop them.  (On a broken pipe it fails too, and
            # the error to raise is the first one.)
            with contextlib.suppress(OSError):
                self.conn.send_bytes(b"")
            raise

    def recv(self):
        while True:
            try:
                return pickle.load(self)
            except _Aborted:
                self._frame = memoryview(b"")

    # -- the file protocol pickle drives ------------------------------------------

    def write(self, frame) -> None:
        if frame:  # an empty frame is the abort marker
            self.conn.send_bytes(frame)

    def _pull(self) -> memoryview:
        frame = self.conn.recv_bytes()
        if not frame:
            raise _Aborted
        return memoryview(frame)

    def read(self, size: int) -> memoryview:
        if len(self._frame) < size:  # the rest is in the frames to come
            parts, missing = [self._frame], size - len(self._frame)
            while missing > 0:
                parts.append(self._pull())
                missing -= len(parts[-1])
            self._frame = memoryview(b"".join(parts))
        chunk, self._frame = self._frame[:size], self._frame[size:]
        return chunk

    def readinto(self, buffer) -> int:
        size = len(buffer)
        buffer[:size] = self.read(size)
        return size

    def readline(self) -> bytes:
        line = bytearray()
        while not line.endswith(b"\n"):
            line += self.read(1)
        return bytes(line)


# ==============================================================================
# worker side (runs in the forked child)
# ==============================================================================

class _Worker:
    """The command loop around one shard engine (child process)."""

    def __init__(self, stream: _FrameStream, spec: WorkerSpec):
        self.stream = stream
        self.engine = Engine(
            spec.topology, spec.config, spec.transport,
            install_system_agents=spec.install_system_agents,
            shard_id=spec.shard_id, placement=dict(spec.placement))
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
        counters = {key: value for key, value in vars(table).items()
                    if type(value) is int}
        sites = {name: (site.alive, site.resident_count(), site.undeliverable,
                        site.background_load, site.capacity)
                 for name, site in engine.sites.items()}
        # An absolute-sequence delta: the bounded ring may have dropped
        # old records, so positional slicing would misalign.
        self._ring_sent, new_records = engine.ring.since(self._ring_sent)
        return {
            # The live object: it pickles whole, defaultdicts and sketch RNG too.
            "stats": engine.stats,
            "table": (new_rows, evicted, counters),
            "sites": sites,
            "ring": new_records,
        }

    # -- the loop ---------------------------------------------------------------

    def serve(self) -> None:
        handlers = {"call": self.cmd_call, "digest": self.cmd_digest}
        loop = self.engine.loop
        stream = self.stream
        # The start-up handshake: the engine is built.
        stream.send(("ok", (None, loop.now, loop.next_event_time(), 0.0)))
        while True:
            command = stream.recv()
            name = command[0]
            if name == "stop":
                stream.send(("ok", (None, loop.now, None, 0.0)))
                return
            try:
                start = default_timer()
                value = handlers[name](*command[1:])
                seconds = default_timer() - start
                reply = ("ok", (value, loop.now, loop.next_event_time(), seconds))
            except Exception as error:
                reply = ("error", _portable(error), traceback.format_exc())
            try:
                stream.send(reply)
            except Exception as error:
                # Unpicklable reply value: report instead of dying silently.
                stream.send(("error", f"unpicklable reply to {name!r}: {error}", ""))


def _portable(error: Exception):
    """*error* itself if it survives a pickle round trip, else its summary:
    a reply the coordinator failed to load would misalign the stream."""
    try:
        pickle.loads(pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return f"{type(error).__name__}: {error}"
    return error


#: the coordinator's end of every worker pipe in this process
_COORDINATOR_ENDS: "weakref.WeakSet" = weakref.WeakSet()


def worker_main(conn, spec: WorkerSpec) -> None:  # pragma: no cover - child
    """Entry point of a forked shard worker."""
    # Fork copied every coordinator end open in the parent, this worker's
    # own included.  A worker holding one would never read EOF from a dead
    # coordinator, and would keep another worker from reading it.
    for end in list(_COORDINATOR_ENDS):
        end.close()
    stream = _FrameStream(conn)
    worker = None
    try:
        worker = _Worker(stream, spec)
        worker.serve()
    except EOFError:
        pass  # coordinator went away; nothing to clean up, state is ours
    except BaseException as error:
        # Construction failed, or the loop was interrupted (SystemExit out of
        # a behaviour, a signal): push the traceback so the next recv in the
        # parent produces an actionable error.
        summary = ("worker startup failed" if worker is None
                   else f"worker stopped: {type(error).__name__}: {error}")
        with contextlib.suppress(Exception):
            stream.send(("error", summary, traceback.format_exc()))
    finally:
        with contextlib.suppress(Exception):
            conn.close()


# ==============================================================================
# coordinator side: mirrors + proxy + backend
# ==============================================================================

class MirrorLoop:
    """Coordinator-side view of a worker's event-loop clock and queue head:
    ``now`` and ``next_event_time`` are what the worker's last reply said,
    ``processed`` counts every burst.  Scheduling raises: events live
    worker-side, and an empty heap here would answer silently wrong."""

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.now = 0.0
        self._next: Optional[float] = None
        self.processed = 0

    def apply(self, now: float, next_time: Optional[float]) -> None:
        self.now = now
        self._next = next_time

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
    """Digest-backed read view of one worker-owned site.

    ``alive`` reads the facade's topology, which ``Kernel.crash_site`` /
    ``recover_site`` mark, and a digest when a worker finishes a replay.
    What lives only worker-side (residents, cabinets, a durable store)
    raises rather than answering empty."""

    __slots__ = ("name", "undeliverable", "background_load", "capacity",
                 "_resident_count", "_topology", "_durable")

    def __init__(self, name: str, topology, durable: bool):
        self.name = name
        (self._resident_count, self.undeliverable,
         self.background_load, self.capacity) = (0, 0, 0.0, 1.0)
        self._topology = topology
        self._durable = durable

    @property
    def alive(self) -> bool:
        return not self._topology.is_down(self.name)

    @property
    def store(self) -> None:
        """None under policy "none"; a durable store cannot be read here."""
        if self._durable:
            self._digest_only()
        return None

    def resident_count(self) -> int:
        return self._resident_count

    load_metric = Site.load_metric

    def _digest_only(self, *_args, **_kwargs):
        raise KernelError(
            f"site {self.name!r} lives in a shard worker process; the "
            f"coordinator serves digests (alive/load/counters) only — "
            f"residents() / cabinet() / store() queries need "
            f"shard_backend='inproc'")

    residents = _digest_only
    cabinet = _digest_only
    install = _digest_only
    is_installed = _digest_only

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"SiteMirror({self.name!r}, {state}, residents~{self._resident_count})"


class _WorkerHandle:
    """One worker's pipe + process, with error-translating send/recv."""

    __slots__ = ("shard_id", "stream", "process", "replied")

    def __init__(self, shard_id: int, conn, process):
        self.shard_id = shard_id
        self.stream = _FrameStream(conn)
        self.process = process
        #: whether any reply (the start-up handshake first) ever came
        self.replied = False

    def send(self, command: tuple) -> None:
        try:
            self.stream.send(command)
        except (pickle.PicklingError, AttributeError, TypeError) as error:
            # The stream aborted the message: the worker drops whatever
            # frames got out, and the pipe still alternates command and reply.
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
            reply = self.stream.recv()
        except (EOFError, OSError):
            # EOF: the worker closed its end; a reset (OSError): it died
            # with a command still unread in the pipe.  Either way it is
            # exiting: join it so the exit code is real, not None.
            self.process.join(timeout=5)
            cause = "" if self.replied else " before its first reply"
            raise KernelError(
                f"shard {self.shard_id} worker died "
                f"(exitcode={self.process.exitcode}){cause}") from None
        self.replied = True
        if reply[0] == "error":
            _tag, error, trace = reply
            if isinstance(error, BaseException):
                raise error from KernelError(f"shard {self.shard_id} worker: {trace}")
            detail = f"\n{trace}" if trace else ""
            raise KernelError(
                f"shard {self.shard_id} worker failed: {error}{detail}")
        return reply[1]


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
        #: the facade's topology: the sites' ``alive`` reads it
        self.topology = spec.topology
        self._durable = spec.config.durability != "none"
        self.table = AgentTable(spec.config.retention)
        self.sites: Dict[str, SiteMirror] = {
            name: self._site_mirror(name)
            for name, owner in sorted(spec.placement.items())
            if owner == spec.shard_id}
        self.stores: Dict[str, Any] = {}
        #: what ``kernel.transport`` introspection sees; sends live worker-side
        self.transport = SimpleNamespace(name=transport_name)
        #: with the table: the classes an engine keeps (same bounds), so the
        #: facade's merged views read process shards like in-process engines
        self.ring = RingSink(spec.config.obs_ring)

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

    def _site_mirror(self, name: str) -> SiteMirror:
        return SiteMirror(name, self.topology, self._durable)

    def add_site(self, name, links=(), install_system_agents=None) -> None:
        self._call("add_site", name, links, install_system_agents)
        self.sites[name] = self._site_mirror(name)

    def _no_subscription(self, callback):
        raise KernelError(
            "on_site_added/on_site_recovered subscriptions cannot cross the "
            "process boundary; use shard_backend='inproc'")

    on_site_added = on_site_recovered = _no_subscription

    # -- digest application -----------------------------------------------------

    def apply_digest(self, digest: Dict[str, Any]) -> None:
        # In place: the facade's StatsView holds this object.
        vars(self.stats).update(vars(digest["stats"]))
        self.table.absorb(*digest["table"])
        topology = self.topology
        for name, (alive, *flags) in digest["sites"].items():
            if alive == topology.is_down(name):
                # A durable replay completed worker-side: mark the facade's
                # topology as the engine marked its own.
                (topology.mark_up if alive else topology.mark_down)(name)
            mirror = self.sites[name]
            (mirror._resident_count, mirror.undeliverable,
             mirror.background_load, mirror.capacity) = flags
        for record in digest["ring"]:
            self.ring.emit(record)

    def __repr__(self) -> str:
        return (f"ProcessEngineProxy(shard={self.shard_id}, "
                f"sites={len(self.sites)}, now={self.loop.now:.4f})")


def _collect_each(collect, items) -> list:
    """``[collect(item) for item in items]``, but every item's reply is read
    before the first error is raised: a reply left unread in its pipe would
    answer the next command sent there."""
    results, errors = [], []
    for item in items:
        try:
            results.append(collect(item))
        except Exception as error:
            errors.append(error)
    if errors:
        raise errors[0]
    return results


class ProcessBackend(ShardBackend):
    """Runs each shard's bursts across a pipe, in its own forked worker."""

    name = "process"

    def __init__(self, specs: Sequence[WorkerSpec], transport_name: str,
                 timer=default_timer):
        super().__init__(timer)
        self._handles: List[_WorkerHandle] = []
        self.proxies: List[ProcessEngineProxy] = []
        self._closed = False
        ctx = worker_context()
        try:
            for spec in specs:
                parent_conn, child_conn = ctx.Pipe()
                _COORDINATOR_ENDS.add(parent_conn)
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
              registry, placement) -> "ProcessBackend":
        """One worker per shard, each building its engine from a spec."""
        if registry is not default_registry():
            raise KernelError(
                "shard_backend='process' workers resolve behaviours in the "
                "process-wide default registry they inherit; a custom "
                "registry instance is not passed to them (use "
                "shard_backend='inproc' or register behaviours in the "
                "default registry)")
        transport_name = (transport if isinstance(transport, str)
                          else getattr(transport, "name", transport.__name__))
        return cls([WorkerSpec(
            shard_id=shard_id, topology=topology, transport=transport,
            config=config, install_system_agents=install_system_agents,
            placement=placement)
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
        return _collect_each(self._collect, [shard for shard, _horizon, _handoffs in plans])

    def finish_run(self, flushes) -> None:
        """Land worker clocks + leftover handoffs, then pull state digests."""
        for shard, target, handoffs in flushes:
            shard.engine.post("advance_clock", target, handoffs)
        _collect_each(ProcessEngineProxy.collect,
                      [shard.engine for shard, _target, _handoffs in flushes])
        for proxy in self.proxies:
            proxy.handle.send(("digest",))
        _collect_each(lambda proxy: proxy.apply_digest(proxy.collect()[0]), self.proxies)

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            with contextlib.suppress(Exception):
                handle.stream.send(("stop",))
        for handle in self._handles:
            handle.process.join(timeout=5)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5)
            with contextlib.suppress(Exception):
                handle.stream.conn.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "live"
        return f"ProcessBackend({len(self.proxies)} workers, {state})"
