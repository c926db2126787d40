"""The TACOMA engine: everything one event loop does.

An :class:`Engine` owns one deterministic discrete-event
:class:`~repro.net.simclock.EventLoop`, one
:class:`~repro.net.transport.Transport`, and the sites placed on it:

* it creates one :class:`~repro.core.site.Site` per site it owns and
  installs the standard system agents (``rexec``, ``ag_py``, the courier,
  the diffusion agent) on each;
* it executes agent behaviours (generator coroutines), interpreting the
  syscalls of :mod:`repro.core.syscalls`;
* it implements the ``meet`` semantics of the paper — the caller resumes
  when the callee terminates the meet; the callee may keep running;
* it accepts agent transfers from the network and re-animates them by
  meeting the CONTACT agent (normally ``ag_py``);
* it injects failures (site crashes, partitions) and keeps the ledgers the
  experiments read (agents completed/failed/killed, meets, migrations,
  bytes on the wire).

The :class:`~repro.core.kernel.Kernel` facade runs ``1..N`` engines and
talks to each through :data:`ENGINE_PROTOCOL` only; an engine never knows
how many siblings it has or where they execute.  Mail for a site placed on
another engine leaves through ``outbound`` (see :meth:`Engine.run_to`).
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from operator import itemgetter
from types import GeneratorType, MappingProxyType
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

from repro.core.agent import AgentInstance, AgentState
from repro.core.briefcase import Briefcase
from repro.core.codec import receive_briefcase, wire_size_of
from repro.core.context import AgentContext
from repro.core.errors import (KernelError, MeetError, SyscallError, UnknownAgentError,
                               UnknownSiteError)
from repro.core.lifecycle import AgentTable
from repro.core.registry import BehaviourRegistry, default_registry
from repro.core.site import Site
from repro.core.syscalls import EndMeet, Meet, MeetResult, Sleep, Spawn, Syscall, Terminate, Transmit
from repro.core.timing import PAST_EPSILON
from repro.flow import FlowController
from repro.net.message import Message, MessageKind
from repro.net.simclock import EventLoop
from repro.net.stats import NetworkStats
from repro.net.topology import Topology
from repro.net.transport import PRICES, Transport
from repro.obs import (TRACE_ID_FOLDER, TRACE_PARENT_FOLDER, RingSink, Tracer,
                       infra_trace_id)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.kernel import KernelConfig
    from repro.store.sitestore import SiteStore

__all__ = ["ENGINE_PROTOCOL", "Engine", "LedgerQueries"]

#: simulated seconds charged per behaviour step (one yield)
STEP_COST = 0.0005
#: an agent exceeding this many steps is killed as a runaway (section 3
#: motivates limiting runaway agents; the step budget is the kernel-side
#: safety net, electronic cash is the economic one).  Read on every step,
#: so a test may patch it before ``Kernel(...)``
MAX_AGENT_STEPS = 1_000_000
#: extra simulated seconds of setting up a meet (argument marshalling,
#: dispatch); an arriving agent pays it to meet its contact
MEET_OVERHEAD = 0.001
#: simulated seconds charged for creating a new agent locally
SPAWN_OVERHEAD = 0.001
#: simulated seconds charged for handing a briefcase to the transport
TRANSMIT_OVERHEAD = 0.0005

#: The engine protocol: every method the Kernel facade calls on an engine,
#: hence every method a shard worker's command loop accepts and a
#: ProcessEngineProxy forwards.  Besides these an engine is read through
#: its state attributes (``loop``, ``stats``, ``table``, ``sites``,
#: ``stores``, ``obs`` and ``ring``).
ENGINE_PROTOCOL = (
    # control
    "launch", "launch_many", "install_agent", "make_durable", "log_event",
    "crash_site", "recover_site", "peer_down", "partition",
    "heal_partition", "on_site_recovered",
    # time
    "run_to", "advance_clock",
)



def _check_start_delay(delay: float) -> None:
    """Refuse a launch delay the loop could not schedule, before anything
    is registered: a negative or NaN one is "in the past", an infinite one
    would push the clock to infinity."""
    if not 0 <= delay < math.inf:
        raise KernelError(f"launch delay must be >= 0 and finite, got {delay!r}")


class LedgerQueries:
    """The read-only queries, defined once over the ledger attributes.

    Everything here reads ``sites``, ``topology``, ``table``, ``stats``,
    ``ring`` and ``config`` and nothing else, so it serves an
    :class:`Engine` (its own ledgers) and the
    :class:`~repro.core.kernel.Kernel` facade (merged views over its
    engines' ledgers — or, with one engine, that engine's) alike.
    """

    def site(self, name: str) -> Site:
        """The :class:`Site` called *name*."""
        try:
            return self.sites[name]
        except KeyError:
            raise UnknownSiteError(f"unknown site {name!r}") from None

    def site_names(self) -> List[str]:
        """All site names (cluster-wide: an engine sees every site too)."""
        return list(self.topology.sites())

    def store(self, site_name: str) -> Optional[SiteStore]:
        """The durable store of *site_name*, or None under policy "none"."""
        return self.site(site_name).store

    def counters(self) -> Dict[str, int]:
        """Snapshot of the kernel ledger: the lifecycle table's O(1)
        agent-state counts (nothing scans agent history) plus the four
        event counters ``stats`` keeps — meets begun, briefcases handed to
        a transport, agents re-animated from the network, and messages
        that reached a site no agent could take them at (several engines:
        summed)."""
        stats = self.stats
        return {
            **self.table.state_counts(),
            "meets": stats.meets,
            "transmits": stats.transmits,
            "arrivals": stats.arrivals,
            "undeliverable": stats.undeliverable,
        }

    def store_summary(self) -> Dict[str, Any]:
        """Aggregate durability ledger (the ledger's ``store.*`` counters read it).

        The stats snapshot selected by prefix, so a durability counter
        added to :class:`NetworkStats` shows up here without a second list
        to maintain.
        """
        summary: Dict[str, Any] = {
            key: value for key, value in self.stats.snapshot().items()
            if key.startswith(("wal_", "store_", "recover", "durable_",
                               "state_lost_"))}
        summary["policy"] = self.config.durability
        return summary

    @property
    def event_log(self) -> List[tuple]:
        """Every retained log line, ``(at, agent_id, site, message)``, oldest
        first (several engines: merged in time order)."""
        return self.ring.lines()

    def trace_spans(self) -> List[Dict[str, Any]]:
        """Every recorded span as dicts, oldest first (several engines: merged)."""
        return self.ring.export()

    def dump_trace(self, path: str) -> int:
        """Write exactly what :meth:`trace_spans` returns to *path* as JSONL,
        replacing the file; returns the span count.

        The one way a trace reaches disk, however many engines run the
        kernel, and wherever: the :mod:`repro.obs.report` analyzer
        reconstructs itineraries and latency breakdowns from the file.
        """
        from repro.obs.report import write_trace
        return write_trace(path, self.trace_spans())

    def site_load(self, site_name: str) -> float:
        """The load metric of a site (what monitor agents report to brokers)."""
        site = self.site(site_name)
        return site.load_metric(site.resident_count())

    @property
    def agents(self) -> Mapping[str, AgentInstance]:
        """A read-only view of the lifecycle ledger's entries.

        Values are live :class:`AgentInstance` objects, or compact
        :class:`~repro.core.lifecycle.AgentRecord` objects for terminal
        agents (and, on a process shard's coordinator, live ones).
        A mapping proxy, not the dict itself: external mutation would desync
        the table's name index and state counters.
        """
        return MappingProxyType(self.table.entries)

    def agent(self, agent_id: str) -> AgentInstance:
        """The live instance or the record with the given id."""
        entry = self.table.get(agent_id)
        if entry is None:
            raise UnknownAgentError(f"unknown agent id {agent_id!r}")
        return entry

    def agents_named(self, name: str) -> List[AgentInstance]:
        """Every retained instance launched under the given name.

        O(instances with that name) via the table's name index, not a scan
        of the full ledger.
        """
        return self.table.named(name)

    def result_of(self, agent_id: str) -> Any:
        """The result of a finished agent (raises if it failed or is unfinished).

        Reads the terminal agent's record: retirement drops the briefcase
        and behaviour but keeps the result and error.
        """
        instance = self.agent(agent_id)
        if instance.state == AgentState.DONE:
            return instance.result
        if instance.state == AgentState.FAILED:
            raise KernelError(f"agent {agent_id} failed: {instance.error!r}")
        if instance.state == AgentState.KILLED:
            raise KernelError(f"agent {agent_id} was killed: {instance.error!r}")
        raise KernelError(f"agent {agent_id} has not finished (state={instance.state})")


class Engine(LedgerQueries):
    """One event loop, one transport, and the sites placed on them.

    Parameters
    ----------
    topology:
        The site graph.  In-process engines of one kernel share the
        facade's instance; a shard worker process holds its own copy.
    config:
        Cost/limit knobs, already validated (:meth:`KernelConfig.validate`
        is the facade's job, once, not every engine's).
    transport:
        A :data:`~repro.net.transport.PRICES` name (``"rsh"``, ``"tcp"``
        or ``"horus"``); the engine builds its one transport from it.
    install_system_agents, registry:
        As on :class:`~repro.core.kernel.Kernel`.
    shard_id, placement:
        With *placement* (site name -> engine id, fixed when the kernel
        is built) this engine is number *shard_id* of several: it hosts
        only the sites placed on it, and mail for any other site is
        spooled to ``outbound`` instead of being scheduled here.  Without it the
        engine is the whole simulation and owns every site.
    """

    def __init__(self, topology: Topology, config: "KernelConfig",
                 transport: str = "tcp",
                 install_system_agents: bool = True,
                 registry: Optional[BehaviourRegistry] = None,
                 shard_id: int = 0,
                 placement: Optional[Dict[str, int]] = None):
        self.config = config
        self.topology = topology
        self.shard_id = shard_id
        self.placement = placement
        self.loop = EventLoop()
        self.stats = NetworkStats()
        self.registry = registry if registry is not None else default_registry()
        #: engine *s* of N numbers its agents s+1, s+1+N, ...: ids are
        #: unique cluster-wide and the same on every shard backend
        self._agent_ids = map("agent-{:06d}".format,
                              itertools.count(shard_id + 1, config.shards))
        self.transport = self._make_transport(transport)
        #: ``(arrival, message)`` pairs bound for sites on other engines,
        #: spooled by the transport's boundary and taken by :meth:`run_to`
        self.outbound: List[Tuple[float, Message]] = []
        if placement is not None:
            from repro.shard.router import ShardBoundary
            self.transport.boundary = ShardBoundary(self)
        #: this engine's one bounded record ring: log lines, and spans
        #: when obs_enabled (``event_log`` and ``trace_spans`` read it)
        self.ring = RingSink()
        #: this engine's tracer (repro.obs) — disabled unless obs_enabled
        self.obs = self._make_tracer()
        self.transport.obs = self.obs
        #: open "run" spans by agent id / open recovery spans by site name
        self._obs_runs: Dict[str, Any] = {}
        self._obs_recovery: Dict[str, Any] = {}
        #: per-engine trace-id counter; launches reach each engine in the
        #: same order wherever it executes, so assigned ids match too
        self._obs_trace_seq = 0

        self.sites: Dict[str, Site] = {}
        #: callbacks fired (with the site name) once a recovery completes
        #: and the site accepts traffic again (checkpoint revival uses this)
        self._site_recovered_hooks: List[Callable[[str], None]] = []
        #: per-site durable stores (empty under durability "none")
        self.stores: Dict[str, SiteStore] = {}
        for name in self.topology.sites():
            if placement is not None and placement[name] != shard_id:
                continue  # another engine hosts this site
            site = Site(name)
            self.sites[name] = site
            self.transport.register_endpoint(name, self._make_site_handler(name))
            self._attach_store(site)

        #: the lifecycle ledger: registration, indexes, records (the
        #: kernel's agent-facing API delegates here)
        self.table = AgentTable()

        if install_system_agents:
            from repro.sysagents import install_standard_agents
            for site in self.sites.values():
                install_standard_agents(site)

    def _make_tracer(self) -> Tracer:
        """Build this engine's tracer from the ``obs_*`` config knobs.

        Disabled (the default) returns the no-op tracer: every
        instrumentation point then costs one attribute read.  Spans land
        in the engine's record ring.
        """
        if not self.config.obs_enabled:
            return Tracer.disabled()
        return Tracer(clock=self.loop, sink=self.ring, sample=self.config.obs_sample)

    def _make_transport(self, transport: str) -> Transport:
        """This engine's one transport, built on its loop, stats and
        topology, with the fabric settings of its config."""
        if not isinstance(transport, str) or transport not in PRICES:
            # A built transport would stay bound to the loop, stats and
            # topology of whatever built it.
            raise KernelError(f"cannot build a transport from {transport!r}; "
                              f"choose a name from {sorted(PRICES)}")
        config = self.config
        flow = FlowController(config.delivery_batch_window, config.flow_window_min,
                              config.flow_window_max, config.flow_target_batch)
        return Transport(transport, self.loop, self.topology, self.stats,
                         rng=random.Random(config.rng_seed + 1), flow=flow)

    def _attach_store(self, site: Site) -> None:
        """Build and attach the site's durable store (policy "none": no store, no import)."""
        if self.config.durability == "none":
            return
        from repro.store import SiteStore, StoreCosts
        costs = StoreCosts(commit_window=self.config.store_commit_window)
        store = SiteStore(site, self.loop, self.config.durability, costs, self.stats,
                          log_event=self.log_event, obs=self.obs)
        site.attach_store(store)
        self.stores[site.name] = store

    # ------------------------------------------------------------------
    # sites, durable stores
    # ------------------------------------------------------------------

    def on_site_recovered(self, callback: Callable[[str], None]) -> None:
        """Subscribe *callback* to completed site recoveries.

        Fired once the site accepts traffic again — after the durable
        store's replay (when one exists), immediately on the legacy
        instant-recovery path otherwise.  Checkpoint revival
        (:mod:`repro.fault.recovery`) is the canonical subscriber.
        """
        self._site_recovered_hooks.append(callback)

    def make_durable(self, cabinet_name: str,
                     sites: Optional[Iterable[str]] = None) -> int:
        """Opt the named cabinet into durability at the given sites.

        *sites* defaults to every site this engine hosts.  Returns how many
        stores accepted the opt-in; 0 under policy "none", so callers can
        opt in unconditionally and pay nothing when durability is off.
        """
        opted = 0
        for site_name in (sites if sites is not None else list(self.sites)):
            store = self.store(site_name)
            if store is not None:
                store.make_durable(cabinet_name)
                opted += 1
        return opted

    # ------------------------------------------------------------------
    # observability (repro.obs)
    # ------------------------------------------------------------------

    def _obs_trace_launch(self, briefcase: Briefcase, site_name: str) -> None:
        """Assign a fresh trace id at top-level launch (plus its root span).

        A briefcase already carrying TRACE_ID (an FT itinerary names its
        trace after the computation id, callers may pre-assign) keeps the
        id and only gets the root span; one carrying a TRACE_PARENT too is
        mid-itinerary and left alone.  The id counter advances whether or
        not the trace is sampled, so ids are stable under any sampling
        rate — and identical across shard execution backends, because
        launches reach each engine in the same order everywhere.
        """
        trace_id = briefcase.get(TRACE_ID_FOLDER)
        if trace_id is None:
            self._obs_trace_seq += 1
            trace_id = f"t{self.shard_id}:{site_name}:{self._obs_trace_seq}"
        elif briefcase.get(TRACE_PARENT_FOLDER) is not None:
            return
        if not self.obs.sampled(trace_id):
            if briefcase.get(TRACE_ID_FOLDER) is not None:
                # An unsampled pre-assigned id must not leak spans further
                # down the itinerary either.
                briefcase.remove(TRACE_ID_FOLDER)
            return
        root = self.obs.record(trace_id, "launch", "root", start=self.loop.now,
                               kind="agent", site=site_name)
        briefcase.set(TRACE_ID_FOLDER, trace_id)
        briefcase.set(TRACE_PARENT_FOLDER, root.span_id)

    def _obs_begin_run(self, instance: AgentInstance) -> None:
        """Open the agent's "run" span (start to finish/fail/kill)."""
        trace_id = instance.briefcase.get(TRACE_ID_FOLDER)
        if trace_id is None:
            return
        attrs = ({"agent": instance.launch_name}
                 if instance.launch_name is not None else None)
        self._obs_runs[instance.agent_id] = self.obs.begin(
            trace_id, "run", self.obs.next_key(instance.site_name),
            parent_id=instance.briefcase.get(TRACE_PARENT_FOLDER),
            kind="agent", site=instance.site_name, attrs=attrs)

    def _obs_end_run(self, instance: AgentInstance, status: str) -> None:
        span = self._obs_runs.pop(instance.agent_id, None)
        if span is not None:
            self.obs.finish(span, status=status)

    def _obs_record_arrival(self, site: Site, message: Message,
                            briefcase: Briefcase) -> None:
        """Record the network leg that carried a traced agent/folder here.

        The span covers send to delivery and is recorded destination-side
        in one shot, so no open-span handle ever crosses an engine (or
        process) boundary.  The briefcase's TRACE_PARENT is re-pointed at
        it, parenting the arrival's "run" span under the network leg.
        """
        trace_id, parent = message.trace
        name = ("migration" if message.kind in MessageKind.MIGRATION_KINDS
                else "delivery")
        sent_at = message.sent_at if message.sent_at is not None else self.loop.now
        span = self.obs.record(
            trace_id, name, self.obs.next_key(site.name),
            start=sent_at, end=self.loop.now, parent_id=parent, kind="net",
            site=site.name, source=message.source,
            destination=message.destination,
            attrs={"kind": message.kind, "bytes": message.size_bytes()})
        briefcase.set(TRACE_PARENT_FOLDER, span.span_id)

    def install_agent(self, site_name: Optional[str], name: str, behaviour: Callable,
                      system: bool = False, replace: bool = False) -> None:
        """Install a named agent at one site (or every hosted site when *site_name* is None)."""
        targets = [self.site(site_name)] if site_name is not None else list(self.sites.values())
        for site in targets:
            site.install(name, behaviour, system=system, replace=replace)

    # ------------------------------------------------------------------
    # launching agents
    # ------------------------------------------------------------------

    def launch(self, site_name: str, behaviour: Union[str, Callable],
               briefcase: Optional[Briefcase] = None, name: Optional[str] = None,
               system: bool = False, delay: float = 0.0) -> str:
        """Create a new top-level agent at a site hosted here and schedule
        it to start; returns its id (see :meth:`Kernel.launch
        <repro.core.kernel.Kernel.launch>`)."""
        _check_start_delay(delay)
        site = self.site(site_name)
        resolved, resolved_system = self._resolve_behaviour(site, behaviour)
        instance = AgentInstance(
            next(self._agent_ids), resolved, site_name, briefcase,
            name or (behaviour if isinstance(behaviour, str) else None),
            behaviour, system or resolved_system)
        if self.obs.active:
            self._obs_trace_launch(instance.briefcase, site_name)
        self._register(instance)
        self.loop.schedule(delay, self._start, ("start", instance.agent_id),
                           (instance,))
        return instance.agent_id

    def launch_many(self, requests: Sequence[tuple], delay: float = 0.0) -> List[str]:
        """Launch a batch of top-level agents with one scheduler pass.

        Each request is ``(site_name, behaviour)`` or ``(site_name,
        behaviour, briefcase)``.  The batch is atomic: every site and
        behaviour reference is resolved before any agent is registered, so
        a bad entry raises without leaving earlier entries half-launched.
        All start events go through :meth:`EventLoop.schedule_many`, which
        is what high-population workloads (thousands of agents per wave)
        want.
        """
        _check_start_delay(delay)
        instances: List[AgentInstance] = []
        for request in requests:
            site_name, behaviour = request[0], request[1]
            site = self.site(site_name)
            resolved, resolved_system = self._resolve_behaviour(site, behaviour)
            instances.append(AgentInstance(
                next(self._agent_ids), resolved, site_name,
                request[2] if len(request) > 2 else None,
                behaviour if isinstance(behaviour, str) else None,
                behaviour, resolved_system))
        for instance in instances:
            if self.obs.active:
                self._obs_trace_launch(instance.briefcase, instance.site_name)
            self._register(instance)
        start = self._start
        self.loop.schedule_many(
            [(delay, start, ("start", instance.agent_id), (instance,))
             for instance in instances])
        return [instance.agent_id for instance in instances]

    def _resolve_behaviour(self, site: Site, behaviour: Union[str, Callable]):
        """Resolve a behaviour reference to (callable, is_system)."""
        if callable(behaviour):
            return behaviour, False
        if isinstance(behaviour, str):
            if site.is_installed(behaviour):
                return site.resolve(behaviour)
            if behaviour in self.registry:
                return self.registry.resolve(behaviour), False
            raise UnknownAgentError(
                f"behaviour {behaviour!r} is neither installed at {site.name!r} "
                f"nor registered")
        raise KernelError(f"cannot launch {behaviour!r}: expected a name or a callable")

    def _register(self, instance: AgentInstance) -> None:
        """Enter a new instance into the lifecycle ledger + site index."""
        self.table.register(instance, self.sites.get(instance.site_name))

    def _retire(self, instance: AgentInstance) -> None:
        """Hand a terminal instance to the ledger: unindex, count, shed, archive."""
        self.table.retire(instance, self.sites.get(instance.site_name))

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    def run_to(self, horizon: Optional[float] = None,
               budget: Optional[int] = None,
               handoffs: Sequence[Tuple[float, Message]] = ()):
        """Fire this engine's events up to *horizon* (None: until it drains).

        *handoffs* — mail other engines spooled for sites hosted here — is
        scheduled first; at most *budget* events execute (None: no limit).
        The clock stays on the last event fired: the coordinator lands every
        engine's clock once, when its ``run`` ends (:meth:`advance_clock`).
        Returns ``(events executed, outbound)``: the second is what this
        burst spooled for sites hosted elsewhere, which whoever called
        hands to the owners' next ``run_to``/``advance_clock``.  An engine
        that is the whole simulation takes and spools none.
        """
        if handoffs:
            self._accept_handoffs(handoffs)
        executed = self.loop.run(budget, horizon)
        outbound, self.outbound = self.outbound, []
        return executed, outbound

    def advance_clock(self, target: float,
                      handoffs: Sequence[Tuple[float, Message]] = ()) -> None:
        """Schedule *handoffs*, then move the clock to *target* (never backwards)."""
        if handoffs:
            self._accept_handoffs(handoffs)
        clock = self.loop.clock
        clock._advance_to(max(clock.now, target))

    def _accept_handoffs(self, handoffs: Sequence[Tuple[float, Message]]) -> None:
        """Schedule inbound ``(arrival, message)`` pairs on this loop.

        The sort is stable and the coordinator lists the pairs by origin
        engine, each origin's in send order, so equal arrivals are delivered
        in ``(arrival, origin, send order)`` order wherever the engines
        execute.  An arrival in this loop's past would mean a horizon was
        granted past the latency bound; it is clamped to now and counted.
        """
        loop = self.loop
        now = loop.now
        deliver = self.transport._deliver
        for arrival, message in sorted(handoffs, key=itemgetter(0)):
            if arrival < now - PAST_EPSILON:
                self.stats.shard_late_arrivals += 1
            loop.schedule_at(max(arrival, now), deliver,
                             ("shard-handoff", message.message_id), (message,))

    def log_event(self, agent_id: str, site_name: str, message: str) -> None:
        """Append a line to the event log (agents call this via ctx.log)."""
        self.ring.emit((self.loop.now, agent_id, site_name, message))

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------

    def crash_site(self, name: str) -> bool:
        """Crash a site hosted here (semantics: :meth:`Kernel.crash_site
        <repro.core.kernel.Kernel.crash_site>`).

        Returns whether the site went from up to down, and this engine's
        topology with it — False when it was already down (crashing a site
        mid-recovery only aborts the replay).
        """
        site = self.site(name)
        if not site.alive:
            store = self.stores.get(name)
            if store is not None and store.recovering:
                # Crashed again while replaying: the recovery never
                # completed, so the site keeps refusing traffic and the
                # scheduled completion becomes a stale no-op.
                store.abort_recovery()
                site.mark_crashed()
                self.log_event("kernel", name, "site crashed during recovery; "
                                               "replay aborted")
                if self.obs.active:
                    span = self._obs_recovery.pop(name, None)
                    if span is not None:
                        self.obs.finish(span, aborted=True)
            return False
        site.mark_crashed()
        self.topology.mark_down(name)
        self.transport.on_site_down(name)
        for agent in site.residents():  # snapshot: _kill unindexes as it goes
            self._kill(agent, reason=f"site {name} crashed")
        store = self.stores.get(name)
        if store is not None:
            store.on_crash()
        self.log_event("kernel", name, "site crashed")
        if self.obs.active:
            self.obs.record(infra_trace_id("site", name), "crash",
                            self.obs.next_key(name), start=self.loop.now,
                            kind="fault", site=name)
        return True

    def peer_down(self, name: str) -> None:
        """A site hosted on another engine crashed.

        Drop the pending outboxes to it and forget its flow telemetry,
        exactly as the owning engine's transport does for local traffic.
        """
        self.transport.on_site_down(name)

    def recover_site(self, name: str) -> bool:
        """Recover a crashed site hosted here (semantics:
        :meth:`Kernel.recover_site <repro.core.kernel.Kernel.recover_site>`).

        Returns whether the site is up on return: False while a durable
        store's replay runs, at whose end the site and this engine's
        topology are marked up and ``on_site_recovered`` fires.
        """
        site = self.site(name)
        if site.alive:
            return True
        store = self.stores.get(name)
        if store is None:
            site.mark_recovered()
            self.topology.mark_up(name)
            self.log_event("kernel", name, "site recovered")
            if self.obs.active:
                self.obs.record(infra_trace_id("site", name), "recovery",
                                self.obs.next_key(name), start=self.loop.now,
                                kind="fault", site=name,
                                attrs={"instant": True})
            self._fire_site_recovered(name)
            return True
        if store.recovering:
            return False  # a replay is already underway
        delay, token = store.begin_recovery()
        self.log_event("kernel", name,
                       f"site recovering: replaying snapshot + WAL "
                       f"({delay:.4f}s)")
        if self.obs.active:
            self._obs_recovery[name] = self.obs.begin(
                infra_trace_id("site", name), "recovery",
                self.obs.next_key(name), kind="fault", site=name,
                attrs={"replay_delay": delay})
        self.loop.schedule(delay, lambda: self._complete_recovery(name, token),
                           label=f"recover-{name}")
        return False

    def _complete_recovery(self, name: str, token: int) -> None:
        """The store's replay finished: restore cabinets and open the site."""
        site = self.sites[name]
        store = self.stores[name]
        if site.alive or not store.recovery_valid(token):
            return  # aborted by a crash-during-recovery, or stale
        restored = store.complete_recovery()
        site.mark_recovered()
        self.topology.mark_up(name)
        self.log_event("kernel", name,
                       f"site recovered: {restored} durable folders restored")
        if self.obs.active:
            span = self._obs_recovery.pop(name, None)
            if span is not None:
                self.obs.finish(span, restored=restored)
        self._fire_site_recovered(name)

    def _fire_site_recovered(self, name: str) -> None:
        for hook in list(self._site_recovered_hooks):
            hook(name)

    def partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Partition this engine's topology and flush the outboxes the
        partition severed (see :meth:`Kernel.partition
        <repro.core.kernel.Kernel.partition>`)."""
        self.topology.set_partition(groups)
        self.transport.flush_unroutable()

    def heal_partition(self) -> None:
        """Heal any active partition of this engine's topology."""
        self.topology.heal_partition()

    # ------------------------------------------------------------------
    # behaviour execution
    # ------------------------------------------------------------------

    def _kill(self, instance: AgentInstance, reason: str) -> None:
        """Terminate an agent from outside: crash, enforcement, dead site.

        All kill paths funnel through here so the generator is always
        closed (its ``finally:`` blocks run, its frame is released) and the
        site resident index stays exact.
        """
        if instance.finished:
            return
        instance.mark_killed(self.loop.now, reason=reason)
        instance.close_generator()
        if self.obs.active:
            self._obs_end_run(instance, "killed")
        self._retire(instance)

    def _start(self, instance: AgentInstance) -> None:
        if instance.finished:
            return
        site = self.sites[instance.site_name]
        if not site.alive:
            self._kill(instance, reason=f"site {site.name} is down")
            return
        instance.started_at = self.loop.now
        if self.obs.active:
            self._obs_begin_run(instance)
        context = AgentContext(self, site, instance)
        try:
            outcome = instance.behaviour(context, instance.briefcase)
        except Exception as error:  # behaviour blew up before yielding anything
            self._fail(instance, error)
            return
        if type(outcome) is GeneratorType or (
                hasattr(outcome, "send") and hasattr(outcome, "throw")):
            instance.generator = outcome
            self._resume(instance, None)
        else:
            # Plain function behaviour: it already ran to completion.
            self._finish(instance, outcome)

    def _resume(self, instance: AgentInstance, value: Any = None,
                error: Optional[BaseException] = None) -> None:
        if instance.finished:
            return
        site = self.sites[instance.site_name]
        if not site.alive:
            self._kill(instance, reason=f"site {site.name} is down")
            return
        instance.mark_running()
        try:
            if error is not None:
                request = instance.generator.throw(error)
            else:
                request = instance.generator.send(value)
        except StopIteration as stop:
            self._finish(instance, stop.value)
            return
        except Exception as failure:
            self._fail(instance, failure)
            return
        instance.steps += 1
        if instance.steps > MAX_AGENT_STEPS:
            self._kill(instance, reason="runaway agent exceeded step budget")
            self._release_meet_parent(
                instance, error=MeetError(f"met agent {instance.name!r} was killed as a runaway"))
            return
        self._dispatch(instance, request)

    def _dispatch(self, instance: AgentInstance, request: Any) -> None:
        handlers = self._SYSCALL_HANDLERS
        handler = handlers.get(type(request))
        if handler is None:
            # Not one of the syscall classes itself: a subclass dispatches as
            # its nearest handled base (reaching Syscall: nothing handles it).
            handler = next((handlers[base] for base in type(request).__mro__
                            if base in handlers), Engine._do_not_a_syscall)
        handler(self, instance, request)

    def _do_unsupported(self, instance: AgentInstance, request: Syscall) -> None:
        self._throw_back(instance, SyscallError(f"unsupported syscall {request!r}"))

    def _do_not_a_syscall(self, instance: AgentInstance, request: Any) -> None:
        self._throw_back(instance, SyscallError(
            f"agents must yield Syscall objects, got {type(request).__name__}"))

    def _throw_back(self, instance: AgentInstance, error: Exception) -> None:
        """Deliver an error to the agent on its next step."""
        self.loop.schedule(STEP_COST, self._resume,
                           ("error", instance.agent_id), (instance, None, error))

    # -- individual syscalls ----------------------------------------------------------

    def _do_meet(self, caller: AgentInstance, request: Meet) -> None:
        site = self.sites[caller.site_name]
        try:
            behaviour, is_system = site.resolve(request.agent_name)
        except UnknownAgentError as error:
            self._throw_back(caller, MeetError(str(error)))
            return
        callee = AgentInstance(
            next(self._agent_ids), behaviour, site.name, request.briefcase,
            request.agent_name, request.agent_name, is_system,
            parent_id=caller.agent_id, meet_parent=caller.agent_id)
        self._register(callee)
        caller.mark_waiting()
        self.stats.meets += 1
        self.loop.schedule(MEET_OVERHEAD + STEP_COST,
                           self._start,
                           ("meet", caller.agent_id, request.agent_name), (callee,))

    def _do_end_meet(self, callee: AgentInstance, request: EndMeet) -> None:
        self._release_meet_parent(callee, request.value)
        # The callee keeps running concurrently with its (former) caller.
        self.loop.schedule(STEP_COST, self._resume,
                           ("continue", callee.agent_id), (callee,))

    def _do_sleep(self, instance: AgentInstance, request: Sleep) -> None:
        instance.mark_waiting()
        delay = max(0.0, float(request.duration)) + STEP_COST
        self.loop.schedule(delay, self._resume, ("wake", instance.agent_id),
                           (instance,))

    def _do_spawn(self, parent: AgentInstance, request: Spawn) -> None:
        site = self.sites[parent.site_name]
        try:
            behaviour, is_system = self._resolve_behaviour(site, request.behaviour)
        except KernelError as error:
            self._throw_back(parent, error)
            return
        child = AgentInstance(
            next(self._agent_ids), behaviour, site.name, request.briefcase,
            request.name or (request.behaviour
                             if isinstance(request.behaviour, str) else None),
            request.code_element or request.behaviour, is_system,
            parent_id=parent.agent_id)
        self._register(child)
        self.loop.schedule_many((
            (SPAWN_OVERHEAD, self._start,
             ("spawn", child.agent_id), (child,)),
            (STEP_COST, self._resume,
             ("spawned", parent.agent_id), (parent, child.agent_id)),
        ))

    def _do_transmit(self, sender: AgentInstance, request: Transmit) -> None:
        if not sender.system:
            self._throw_back(sender, SyscallError(
                "only system agents may transmit; ordinary agents meet rexec or the courier"))
            return
        if request.destination not in self.topology:
            self._throw_back(sender, SyscallError(
                f"transmit to unknown site {request.destination!r}"))
            return
        if request.kind == MessageKind.BATCH:
            # The fabric's own envelope: the arrival rule would unbatch it.
            self._throw_back(sender, SyscallError(
                f"transmit of kind {MessageKind.BATCH!r} is the fabric's envelope"))
            return
        message = Message(
            source=sender.site_name,
            destination=request.destination,
            kind=request.kind,
            payload={"contact": request.contact,
                     "briefcase": request.briefcase.snapshot()},
            declared_size=wire_size_of(request.briefcase),
        )
        if self.obs.active:
            trace_id = request.briefcase.get(TRACE_ID_FOLDER)
            if trace_id is not None:
                message.trace = (trace_id,
                                 request.briefcase.get(TRACE_PARENT_FOLDER))
        self.stats.transmits += 1
        # Through the delivery fabric: batchable kinds (folder deliveries,
        # status reports) may coalesce with other traffic to the same
        # destination; everything else is sent immediately.
        event = self.transport.post(message)
        accepted = event is not None
        self.loop.schedule(TRANSMIT_OVERHEAD + STEP_COST,
                           self._resume, ("transmitted", sender.agent_id),
                           (sender, accepted))

    def _do_terminate(self, instance: AgentInstance, request: Terminate) -> None:
        self._finish(instance, request.result)

    #: exact syscall type -> handler (see :meth:`_dispatch`)
    _SYSCALL_HANDLERS = {
        Meet: _do_meet, EndMeet: _do_end_meet, Sleep: _do_sleep, Spawn: _do_spawn,
        Transmit: _do_transmit, Terminate: _do_terminate, Syscall: _do_unsupported,
    }

    # -- completion paths ---------------------------------------------------------------

    def _finish(self, instance: AgentInstance, result: Any) -> None:
        if instance.finished:
            return
        instance.mark_done(result, self.loop.now)
        instance.close_generator()
        if self.obs.active:
            self._obs_end_run(instance, "done")
        # The caller gets the briefcase back before retirement sheds it.
        self._release_meet_parent(instance, result)
        self._retire(instance)

    def _fail(self, instance: AgentInstance, error: BaseException) -> None:
        if instance.finished:
            return
        instance.mark_failed(error, self.loop.now)
        instance.close_generator()
        if self.obs.active:
            self._obs_end_run(instance, "failed")
        self._retire(instance)
        self.log_event(instance.agent_id, instance.site_name, f"failed: {error!r}")
        self._release_meet_parent(
            instance, error=MeetError(f"met agent {instance.name!r} failed: {error!r}"))

    def _release_meet_parent(self, callee: AgentInstance, value: Any = None,
                             error: Optional[Exception] = None) -> None:
        """Resume the agent blocked on this callee's meet, if any: with the
        callee's briefcase and *value*, or with *error* raised at its meet."""
        if callee.meet_ended or callee.meet_parent is None:
            return
        callee.meet_ended = True
        parent = self.table.get(callee.meet_parent)
        if parent is None or parent.finished:
            return
        if error is not None:
            self.loop.schedule(STEP_COST, self._resume,
                               ("meet-error", parent.agent_id), (parent, None, error))
            return
        result = MeetResult(value=value, briefcase=callee.briefcase,
                            agent_id=callee.agent_id)
        self.loop.schedule(STEP_COST, self._resume,
                           ("meet-return", parent.agent_id), (parent, result))

    # ------------------------------------------------------------------
    # network arrivals
    # ------------------------------------------------------------------

    def _make_site_handler(self, site_name: str) -> Callable[[Message], None]:
        def handler(message: Message) -> None:
            self._on_message(site_name, message)
        return handler

    def _on_message(self, site_name: str, message: Message) -> None:
        site = self.sites.get(site_name)
        if site is None or not site.alive:
            # The network delivered to a site the kernel cannot serve (the
            # site crashed kernel-side while the link stayed up, or was never
            # registered).  These used to vanish without touching the
            # undeliverable ledgers, so crash experiments undercounted loss.
            # A batch envelope loses every coalesced message it carried.
            count = (len(message.payload.get("messages", ()))
                     if message.kind == MessageKind.BATCH else 1)
            if site is not None:
                site.undeliverable += count
            self.stats.undeliverable += count
            self.log_event("kernel", site_name,
                           f"message {message.kind!r} dropped: site unavailable")
            return
        if message.kind == MessageKind.BATCH:
            # Delivery-fabric envelope: unbatch and fan each coalesced
            # message out to its own contact.
            delivered_at = message.delivered_at
            for sub in message.payload.get("messages", ()):
                sub.delivered_at = delivered_at
                sub.hops = message.hops
                self._on_message(site_name, sub)
            return
        # Every other message is contact-addressed: it starts its contact or
        # is counted undeliverable.
        self._accept_agent_transfer(site, message)

    def _accept_agent_transfer(self, site: Site, message: Message) -> None:
        payload = message.payload
        contact = payload.get("contact")
        try:
            briefcase = receive_briefcase(payload.get("briefcase"))
        except Exception:
            briefcase = None
        if contact is None or briefcase is None:
            site.undeliverable += 1
            self.stats.undeliverable += 1
            return
        if not site.is_installed(contact):
            site.undeliverable += 1
            self.stats.undeliverable += 1
            self.log_event("kernel", site.name,
                           f"arrival for unknown contact {contact!r} dropped")
            return
        # One shared name per contact, not the copy each message decoded.
        contact = sys.intern(contact)
        behaviour, is_system = site.resolve(contact)
        if self.obs.active and message.trace is not None:
            self._obs_record_arrival(site, message, briefcase)
        instance = AgentInstance(next(self._agent_ids), behaviour, site.name,
                                 briefcase, contact, contact, is_system)
        self._register(instance)
        self.stats.arrivals += 1
        self.loop.schedule(MEET_OVERHEAD, self._start,
                           ("arrival", instance.agent_id), (instance,))

    def __repr__(self) -> str:
        return (f"Engine({self.shard_id}, {len(self.sites)} sites, "
                f"transport={self.transport.name!r}, "
                f"agents={len(self.table)}, t={self.loop.now:.4f})")
