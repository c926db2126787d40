"""The TACOMA kernel: a running system of sites, network and agents.

:class:`Kernel` is what programs hold.  It is a thin facade over ``1..N``
:class:`~repro.core.engine.Engine` objects — each one event loop, one
transport and the sites placed on it, where everything that *happens*
(behaviour execution, meets, migration, arrivals, crashes) lives — and
implements every public operation once, the same way for any N: find the
engine owning the site, delegate, tell the other engines what they need
to know.

* ``KernelConfig(shards=1)`` (the default) is simply N = 1: one engine
  owns every site, ``run()`` calls it directly, and the kernel's ledgers
  (``stats``, ``table``, ``sites``, ``ring`` ...) *are* that engine's.
* With ``shards=N`` the sites are partitioned over N engines advanced in
  conservative synchronisation rounds by a :class:`~repro.shard.ShardSet`
  coordinator, the ledgers are merged views, and
  ``KernelConfig.shard_backend`` only decides where each engine's bursts
  execute (:mod:`repro.shard.backend`).

The engines are reachable read-only as ``kernel.engines``; the facade
talks to them through :data:`~repro.core.engine.ENGINE_PROTOCOL` alone.
"""

from __future__ import annotations

import math
from collections import ChainMap
from collections.abc import Mapping
from dataclasses import dataclass
from operator import itemgetter
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from repro.core.briefcase import Briefcase
from repro.core.engine import Engine, LedgerQueries
from repro.core.errors import KernelError, UnknownSiteError
from repro.core.lifecycle import MergedAgentTable
from repro.core.registry import BehaviourRegistry, default_registry
from repro.net.stats import StatsView
from repro.net.topology import Topology, lan
from repro.obs import RingSink, Tracer

__all__ = ["Kernel", "KernelConfig"]

#: the valid ``KernelConfig.shard_backend`` values (``repro.shard.BACKENDS``
#: is this tuple), named here so checking a config imports no shard code
SHARD_BACKENDS = ("inproc", "process")
#: the valid ``KernelConfig.durability`` policies, "none" (no store at all) first;
#: ``repro.store.sitestore`` reads them here, so checking a config loads no store
DURABILITY = ("none", "flush-on-demand", "wal-group-commit")


@dataclass
class KernelConfig:
    """Tunable costs and limits of the simulated kernel.

    The engine's fixed per-operation costs are constants, not knobs:
    ``repro.core.engine.STEP_COST``, ``MEET_OVERHEAD``, ``SPAWN_OVERHEAD``
    and ``TRANSMIT_OVERHEAD``; so are its limits, the runaway step budget
    ``repro.core.engine.MAX_AGENT_STEPS`` and the record-ring capacity
    ``repro.obs.sinks.RING_CAPACITY``.  The lifecycle ledger keeps every
    record.  No knob names a trace file either: a trace reaches disk when
    ``kernel.dump_trace(path)`` is called.
    """

    #: seed for every random stream derived by the kernel
    rng_seed: int = 42
    #: delivery-fabric flush window in simulated seconds; 0 disables
    #: batching and preserves one-wire-message-per-folder behaviour
    delivery_batch_window: float = 0.0
    #: adaptive per-destination windows (repro.flow): with flow_window_max
    #: > 0, each (source, destination) pair's flush window is sized from
    #: its observed arrival rate — hot pairs tight, trickle pairs wide —
    #: clamped into [flow_window_min, flow_window_max]; requires a positive
    #: delivery_batch_window (the fabric master switch, also the seed
    #: window for pairs with no traffic history)
    flow_window_min: float = 0.0
    flow_window_max: float = 0.0
    #: how many messages an adaptive window should ideally coalesce
    flow_target_batch: int = 8
    #: durability policy of the per-site stores: "none" (legacy free
    #: permanence, the default), "flush-on-demand" or "wal-group-commit"
    #: (see :mod:`repro.store.sitestore`)
    durability: str = "none"
    #: group-commit window: how long the WAL batches dirty state before
    #: syncing (wal-group-commit only)
    store_commit_window: float = 0.05
    #: number of shards the simulation is partitioned into.  1 (default)
    #: runs the classic single event loop; with N > 1 the kernel becomes a
    #: facade over N shard engines advanced under conservative clock sync
    #: (see :mod:`repro.shard`)
    shards: int = 1
    #: explicit site -> shard id placement overrides; sites not listed are
    #: placed by a stable CRC-32 hash of their name.  Every key must name a
    #: site of the topology and every id lie in [0, shards), whatever the
    #: shard count (one engine included)
    shard_placement: Optional[Dict[str, int]] = None
    #: where each synchronisation round's shard bursts execute, one of
    #: :data:`SHARD_BACKENDS`: "inproc" (serial, the default) or "process"
    #: (long-lived forked workers — real multi-core parallelism; see
    #: :mod:`repro.shard.backend`).  Inert at shards=1.
    shard_backend: str = "inproc"
    #: causal tracing (repro.obs): off by default — every instrumentation
    #: point then costs a single attribute read
    obs_enabled: bool = False
    #: fraction of traces recorded, decided per trace id by a
    #: deterministic CRC-32 hash (1.0 = everything, 0.0 = guard cost only)
    obs_sample: float = 1.0

    def validate(self) -> None:
        """Check every type, range and cross-field rule; raises :class:`KernelError`.

        The :class:`Kernel` facade calls this once, before it builds any
        engine (engines and shard workers trust the config they are
        handed), so a mis-set knob fails naming its field before a process
        worker starts.
        """
        for name in ("shards", "flow_target_batch", "rng_seed"):
            # A float would be truncated (or raise a bare TypeError deep in
            # an engine), and a bool would pass as 0 or 1.
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise KernelError(f"{name} must be an int, got {value!r}")
        for name in ("store_commit_window", "delivery_batch_window", "flow_window_min",
                     "flow_window_max", "obs_sample"):
            # Each but the sampled fraction is a delay the engine schedules or
            # a window it waits out: a negative or NaN one would fail mid-run
            # as "an event in the past", an infinite one would push the clock
            # to infinity.  A bool would pass as 0 or 1.
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not value >= 0 or not math.isfinite(value)):
                raise KernelError(f"{name} must be >= 0 and finite, got {value!r}")
        if self.durability not in DURABILITY:
            raise KernelError(f"unknown durability {self.durability!r}; "
                              f"expected one of {DURABILITY}")
        if self.shards < 1:
            raise KernelError(f"shards must be >= 1, got {self.shards}")
        if self.shard_backend not in SHARD_BACKENDS:
            raise KernelError(
                f"unknown shard_backend {self.shard_backend!r}; "
                f"expected one of {SHARD_BACKENDS}")
        placement = self.shard_placement
        if placement is not None and (
                not isinstance(placement, Mapping)
                or any(isinstance(owner, bool) or not isinstance(owner, int)
                       for owner in placement.values())):
            # A list would raise a bare ValueError while placing sites, and
            # int() would read True or "1" as shard 1.
            raise KernelError(f"shard_placement must map site names to int "
                              f"shard ids, got {placement!r}")
        for name, owner in (placement or {}).items():
            if not 0 <= owner < self.shards:
                raise KernelError(f"shard_placement[{name!r}] = {owner} is "
                                  f"outside [0, {self.shards})")
        if type(self.obs_enabled) is not bool:
            raise KernelError(f"obs_enabled must be a bool, got {self.obs_enabled!r}")
        if self.obs_sample > 1.0:
            raise KernelError(f"obs_sample must be in [0.0, 1.0], got "
                              f"{self.obs_sample}")
        if self.delivery_batch_window == 0 and (
                self.flow_window_min > 0 or self.flow_window_max > 0):
            # The window is the fabric's master switch: with the fabric
            # off, no outbox exists for the flow controller to size.
            raise KernelError(
                "flow_window_min/_max require a positive "
                "delivery_batch_window (the fabric is off at 0)")
        if self.flow_target_batch <= 0:
            # Checked even while the fabric is off, so a typo cannot wait
            # for the day the fabric is turned on.
            raise KernelError(f"flow_target_batch must be > 0, got "
                              f"{self.flow_target_batch}")
        if self.flow_window_min > 0 >= self.flow_window_max:
            # A floor with no ceiling is silently inert (adaptive mode is
            # keyed on flow_window_max > 0); refuse rather than ignore it.
            raise KernelError(
                "flow_window_min requires a positive flow_window_max "
                "(adaptive windows are off while flow_window_max is 0)")
        if self.flow_window_max > 0 and self.flow_window_min > self.flow_window_max:
            raise KernelError(
                f"flow_window_min ({self.flow_window_min}) must not "
                f"exceed flow_window_max ({self.flow_window_max})")


class MergedRing:
    """Read-only merge of several engines' record rings.

    Log lines come back in time order (equal stamps keep engine order, then
    each engine's own), spans by ``(start, span_id)``.  Merged afresh on
    every read: the rings keep growing.
    """

    __slots__ = ("_rings",)

    def __init__(self, rings: Sequence[RingSink]):
        self._rings = list(rings)

    def lines(self) -> List[tuple]:
        merged = [line for ring in self._rings for line in ring.lines()]
        merged.sort(key=itemgetter(0))
        return merged

    def export(self) -> List[Dict[str, Any]]:
        merged = [span for ring in self._rings for span in ring.export()]
        merged.sort(key=lambda span: (span.get("start", 0.0),
                                      span.get("span_id", "")))
        return merged


def _view_of(parts: Sequence, merge: Callable[[Sequence], Any]):
    """A merged view over one part is the part."""
    return parts[0] if len(parts) == 1 else merge(parts)


class Kernel(LedgerQueries):
    """A running TACOMA system: sites + network + agents.

    Parameters
    ----------
    topology:
        The site graph.  Defaults to a 3-site LAN, which is enough for the
        quickstart example.
    transport:
        A :data:`~repro.net.transport.PRICES` name (``"rsh"``, ``"tcp"``
        or ``"horus"``): each engine builds its own transport from it and
        the config's fabric knobs.  Anything else, an already-built
        transport included, is refused (``KernelError``).
    config:
        Cost/limit knobs (:class:`KernelConfig`), validated here.
    install_system_agents:
        Install ``ag_py``/``rexec``/courier/diffusion on every site
        (benchmarks that measure bare kernel cost turn this off).
    registry:
        Behaviour registry used to resolve names; defaults to the
        process-wide registry.
    """

    def __init__(self, topology: Optional[Topology] = None,
                 transport: str = "tcp",
                 config: Optional[KernelConfig] = None,
                 install_system_agents: bool = True,
                 registry: Optional[BehaviourRegistry] = None):
        self.config = config or KernelConfig()
        self.config.validate()
        self.topology = topology if topology is not None else lan(["alpha", "beta", "gamma"])
        unknown = sorted(set(self.config.shard_placement or ()) - set(self.topology.sites()))
        if unknown:
            raise UnknownSiteError(f"shard_placement names unknown sites: {unknown}")
        self.registry = registry if registry is not None else default_registry()
        self._closed = False
        #: the ShardSet coordinating several engines; one engine needs none
        self._coordinator = None
        if self.config.shards == 1:
            #: site name -> id of the engine hosting it, fixed for the kernel's life
            self._placement: Dict[str, int] = dict.fromkeys(self.topology.sites(), 0)
            engines = [Engine(self.topology, self.config, transport,
                              install_system_agents, self.registry)]
            self.obs = engines[0].obs
        else:
            from repro.shard import (ClockSync, Shard, ShardSet, build_engines,
                                     resolve_placement)
            self._placement = resolve_placement(
                self.topology.sites(), self.config.shards,
                self.config.shard_placement)
            engines, backend = build_engines(
                self.topology, self.config, transport, install_system_agents,
                self.registry, self._placement)
            clock_sync = ClockSync(self.topology, self._placement,
                                   shards=self.config.shards)
            self._coordinator = ShardSet(
                [Shard(shard_id, engine) for shard_id, engine in enumerate(engines)],
                clock_sync, backend=backend)
            #: the facade's own tracer: a span per ``run``, opened and
            #: closed on the clock every engine shares between runs
            self.obs = Tracer.disabled()
            if self.config.obs_enabled:
                self.obs = Tracer(clock=self._coordinator,
                                  sample=self.config.obs_sample)
                self._coordinator.obs = self.obs
        self._engines: Tuple[Engine, ...] = tuple(engines)

        # One API over 1..N engines: the ledgers callers read.
        self.stats = _view_of([engine.stats for engine in engines], StatsView)
        self.table = _view_of([engine.table for engine in engines], MergedAgentTable)
        self.sites = _view_of([engine.sites for engine in engines],
                             lambda parts: ChainMap(*parts))
        self.stores = _view_of([engine.stores for engine in engines],
                              lambda parts: ChainMap(*parts))
        rings = [engine.ring for engine in engines]
        if self._coordinator is not None and self.obs.active:
            rings.append(self.obs.sink)
        self.ring = _view_of(rings, MergedRing)
        #: engine 0 anchors the pieces that need a single identity: failure
        #: schedules' partitions and heals ride its clock, and code that
        #: introspects ``kernel.transport`` sees its transport
        self.loop = engines[0].loop
        self.transport = engines[0].transport

    @property
    def engines(self) -> Tuple[Engine, ...]:
        """The engines behind this kernel, by id (read-only)."""
        return self._engines

    def shard_summary(self) -> Dict[str, Any]:
        """Cross-shard coordination ledger (the ledger's ``shard.*`` counters read it).

        Works on any kernel: with one engine it reports ``shards=1,
        backend=None`` with all-zero handoff counters, so benchmark code
        can print it unconditionally.
        """
        stats = self.stats
        coordinator = self._coordinator
        summary: Dict[str, Any] = {
            "shards": self.config.shards,
            "backend": coordinator.backend.name if coordinator is not None else None,
            "shard_handoffs": stats.shard_handoffs,
            "shard_handoff_bytes": stats.shard_handoff_bytes,
            "shard_late_arrivals": stats.shard_late_arrivals,
        }
        if coordinator is not None:
            summary["rounds"] = coordinator.rounds
            summary["sync_seconds"] = coordinator.sync_seconds
            summary["overhead_seconds"] = coordinator.overhead_seconds
            summary["handoffs_drained"] = coordinator.handoffs_drained
            summary["clock_rebuilds"] = coordinator.clock_sync.rebuilds
        return summary

    def close(self) -> None:
        """Release held resources: the coordinator, if there is one, shuts
        the backend's worker processes down.

        Idempotent — call it unconditionally when done with a kernel (or
        use the kernel as a context manager, which calls it on exit).  It
        writes nothing: a trace reaches disk through :meth:`dump_trace`.
        A closed kernel still answers reads (``counters``, ``result_of``,
        ``stats``, ``trace_spans``, ``dump_trace``) but refuses to run,
        launch or change its sites.
        """
        if self._closed:
            return
        self._closed = True
        if self._coordinator is not None:
            self._coordinator.close()

    def __enter__(self) -> "Kernel":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise KernelError("kernel is closed")

    def _owner_id(self, site_name: str) -> int:
        """The id of the engine hosting *site_name*."""
        try:
            return self._placement[site_name]
        except KeyError:
            raise UnknownSiteError(f"unknown site {site_name!r}") from None

    def _owner(self, site_name: str) -> Engine:
        return self._engines[self._owner_id(site_name)]

    # ------------------------------------------------------------------
    # sites
    # ------------------------------------------------------------------

    def on_site_recovered(self, callback: Callable[[str], None]) -> None:
        """Subscribe *callback* to completed site recoveries.

        Fired once the site accepts traffic again — after the durable
        store's replay (when one exists), immediately on the legacy
        instant-recovery path otherwise.  Checkpoint revival
        (:mod:`repro.fault.recovery`) is the canonical subscriber.
        """
        for engine in self._engines:
            engine.on_site_recovered(callback)

    def make_durable(self, cabinet_name: str,
                     sites: Optional[Iterable[str]] = None) -> int:
        """Opt the named cabinet into durability at the given (default: all) sites.

        Returns how many stores accepted the opt-in; 0 under policy "none",
        so callers can opt in unconditionally and pay nothing when
        durability is off.
        """
        self._check_open()
        by_owner: Dict[int, List[str]] = {}
        for site_name in (sites if sites is not None else self.site_names()):
            by_owner.setdefault(self._owner_id(site_name), []).append(site_name)
        return sum(self._engines[owner].make_durable(cabinet_name, sites=names)
                   for owner, names in by_owner.items())

    def install_agent(self, site_name: Optional[str], name: str, behaviour: Callable,
                      system: bool = False, replace: bool = False) -> None:
        """Install a named agent at one site (or every site when *site_name* is None)."""
        self._check_open()
        targets = self._engines if site_name is None else (self._owner(site_name),)
        for engine in targets:
            engine.install_agent(site_name, name, behaviour,
                                 system=system, replace=replace)

    # ------------------------------------------------------------------
    # launching and running
    # ------------------------------------------------------------------

    def launch(self, site_name: str, behaviour: Union[str, Callable],
               briefcase: Optional[Briefcase] = None, name: Optional[str] = None,
               system: bool = False, delay: float = 0.0) -> str:
        """Create a new top-level agent at *site_name* and schedule it to start.

        *behaviour* may be a callable or a registered behaviour name.
        Returns the new agent's id; results are read back later through
        :meth:`result_of` or :meth:`agent`.
        """
        self._check_open()
        return self._owner(site_name).launch(
            site_name, behaviour, briefcase, name=name, system=system, delay=delay)

    def launch_many(self, requests: Sequence[tuple], delay: float = 0.0) -> List[str]:
        """Launch a batch of top-level agents with one scheduler pass per engine.

        Each request is ``(site_name, behaviour)`` or ``(site_name,
        behaviour, briefcase)``; ids come back in request order.  Site
        names are validated up front, and each engine's share of the batch
        is atomic: every behaviour reference is resolved before any agent
        is registered, so a bad entry raises without leaving that engine's
        earlier entries half-launched (shares already handed to other
        engines stay launched — launches on different engines are
        independent by design).
        """
        self._check_open()
        requests = list(requests)
        shares: Dict[int, List[int]] = {}
        for index, request in enumerate(requests):
            shares.setdefault(self._owner_id(request[0]), []).append(index)
        ids: List[Optional[str]] = [None] * len(requests)
        for owner in sorted(shares):
            indexes = shares[owner]
            launched = self._engines[owner].launch_many(
                [requests[index] for index in indexes], delay=delay)
            for index, agent_id in zip(indexes, launched):
                ids[index] = agent_id
        return ids

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the simulation (to quiescence, or up to simulated time *until*).

        Several engines advance in conservative synchronisation rounds:
        *until* is honoured globally (no engine's clock passes it) and
        *max_events* is one global budget shared across engines, not a
        per-engine allowance.  Clocks land where one loop's would: on
        *until*, on a drain's last event, or where a spent budget stopped.
        """
        self._check_open()
        if self._coordinator is None:
            loop = self._engines[0].loop
            return (loop.run(max_events) if until is None
                    else loop.run_until(until, max_events))
        return self._coordinator.run(until=until, max_events=max_events)

    @property
    def now(self) -> float:
        """Current simulated time: every engine's once ``run`` returns
        (a spent ``max_events`` budget leaves them apart: the slowest's)."""
        return min(engine.loop.now for engine in self._engines)

    def log_event(self, agent_id: str, site_name: str, message: str) -> None:
        """Append a line to the kernel event log (agents call this via ctx.log).

        The event lands in the log of the engine hosting *site_name* —
        stamped with that engine's clock, next to the rest of that site's
        history.  Only events about unplaced scopes (``"*"``, facade-level
        notes) fall back to engine 0.
        """
        self._engines[self._placement.get(site_name, 0)].log_event(
            agent_id, site_name, message)

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------

    def crash_site(self, name: str) -> None:
        """Crash a site: kill resident agents, refuse traffic until recovery.

        With a durable store attached, the crash also discards every piece
        of cabinet state that had not reached the store (un-flushed
        folders, un-committed WAL records), logging a ``state lost`` kernel
        event; under policy "none" cabinets survive untouched.  Crashing a
        site that is mid-recovery aborts the replay — the durable image is
        unharmed and a later :meth:`recover_site` starts over.
        """
        self._check_open()
        owner = self._owner(name)
        if owner.crash_site(name):
            self.topology.mark_down(name)
        for engine in self._engines:
            if engine is not owner:
                engine.peer_down(name)

    def recover_site(self, name: str) -> None:
        """Recover a crashed site.

        Installed agents always survive (they model code on disk).  What
        happens to cabinet state depends on the durability policy:

        * ``none`` (no store) — the legacy model: recovery is instant and
          every cabinet survives verbatim, permanence is free and fake;
        * a durable policy — only the durable image (snapshot + committed
          WAL) survives.  The store replays it with a modelled delay
          proportional to the state replayed, and the site keeps refusing
          traffic until the replay completes; only then is the site marked
          up and ``on_site_recovered`` fired.
        """
        self._check_open()
        owner = self._owner(name)
        if owner.recover_site(name):
            self.topology.mark_up(name)

    def partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Partition the network into the given site groups.

        Pending delivery-fabric outboxes whose pair the partition severed
        are flushed through the (now partitioned) network immediately: the
        queued messages had not left their source yet, so cross-partition
        batches are dropped with normal per-message drop accounting rather
        than silently surviving the partition.  Same-side outboxes are left
        coalescing undisturbed.
        """
        self._check_open()
        groups = [list(group) for group in groups]
        self.topology.set_partition(groups)
        for engine in self._engines:
            engine.partition(groups)
        self.log_event("kernel", "*", f"partition installed: {groups}")

    def heal_partition(self) -> None:
        """Heal any active partition."""
        self._check_open()
        self.topology.heal_partition()
        for engine in self._engines:
            engine.heal_partition()
        self.log_event("kernel", "*", "partition healed")

    def __repr__(self) -> str:
        return (f"Kernel({len(self.sites)} sites, transport={self.transport.name!r}, "
                f"agents={len(self.table)}, t={self.now:.4f})")
