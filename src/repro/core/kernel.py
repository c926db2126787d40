"""The TACOMA kernel: scheduling agents, meets, migration and failures.

The kernel ties everything together:

* it owns the event loop — the deterministic discrete-event
  :class:`~repro.net.simclock.EventLoop` under the default
  ``KernelConfig(backend="sim")``, or :class:`repro.rt.AsyncioScheduler`
  on wall clock under ``backend="realtime"`` (both implement the
  :class:`~repro.core.timing.Scheduler` protocol) — and a
  :class:`~repro.net.transport.Transport`;
* it creates one :class:`~repro.core.site.Site` per topology node and
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
"""

from __future__ import annotations

import itertools
import random
from collections import ChainMap, deque
from dataclasses import dataclass
from functools import partial
from types import GeneratorType, MappingProxyType
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Union)

from repro.core.agent import AgentInstance, AgentSpec, AgentState
from repro.core.briefcase import Briefcase
from repro.core.codec import (code_element_copy, code_element_of, pack_briefcase,
                              unpack_briefcase, wire_size_of)
from repro.core.context import AgentContext
from repro.core.errors import (KernelError, MeetError, SyscallError, UnknownAgentError,
                               UnknownSiteError)
from repro.core.lifecycle import AgentTable, MergedAgentTable, RetentionPolicy
from repro.core.registry import BehaviourRegistry, default_registry
from repro.core.site import Site
from repro.core.syscalls import EndMeet, Meet, MeetResult, Sleep, Spawn, Syscall, Terminate, Transmit
from repro.flow import CommitGovernor
from repro.net.horus import HorusTransport
from repro.net.message import Message, MessageKind
from repro.net.rsh import RshTransport
from repro.net.simclock import EventLoop
from repro.net.stats import NetworkStats, StatsView
from repro.net.tcp import TcpTransport
from repro.net.topology import Topology, lan
from repro.net.transport import Transport
from repro.obs import (TRACE_ID_FOLDER, TRACE_PARENT_FOLDER, MetricsRegistry,
                       MetricsView, Tracer, TracerView, infra_trace_id)
from repro.store.policy import DurabilityPolicy, StoreCosts, resolve_policy
from repro.store.sitestore import SiteStore

__all__ = ["Kernel", "KernelConfig", "EventLog"]

#: the transports selectable by name (paper section 6's three rexec variants)
TRANSPORTS = {
    "rsh": RshTransport,
    "tcp": TcpTransport,
    "horus": HorusTransport,
}


class EventLog:
    """The kernel event log, bounded by ``KernelConfig.event_log_max``.

    A drop-in replacement for the unbounded list the kernel used to keep:
    append/iterate/len/index/slice all work and entries stay
    ``(time, agent_id, site_name, message)`` tuples.  Past the cap the
    oldest entries are dropped (``dropped`` counts them) while ``total``
    keeps the absolute sequence, so digest readers ask for "everything
    past sequence N" (:meth:`since`) and survive drops.
    """

    __slots__ = ("max_entries", "dropped", "total", "_entries")

    def __init__(self, max_entries: int = 0, entries: Iterable = ()):
        self.max_entries = int(max_entries)
        self._entries = deque(
            entries, maxlen=self.max_entries if self.max_entries > 0 else None)
        self.dropped = 0
        self.total = len(self._entries)

    def append(self, entry: tuple) -> None:
        if 0 < self.max_entries <= len(self._entries):
            self.dropped += 1
        self._entries.append(entry)
        self.total += 1

    def extend(self, entries: Iterable) -> None:
        for entry in entries:
            self.append(entry)

    def since(self, seq: int):
        """``(new_seq, entries)``: every entry past absolute index *seq*.

        When *seq* predates the retained window (the cap overtook a slow
        reader), the returned entries start at the oldest retained one.
        """
        first_retained = self.total - len(self._entries)
        skip = max(0, seq - first_retained)
        if skip == 0:
            fresh = list(self._entries)
        else:
            fresh = list(itertools.islice(self._entries, skip, None))
        return self.total, fresh

    def clear(self) -> None:
        """Drop the retained entries (the absolute sequence never rewinds)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._entries)[index]
        return self._entries[index]

    def __repr__(self) -> str:
        return f"EventLog({len(self._entries)} retained, {self.dropped} dropped)"


@dataclass
class KernelConfig:
    """Tunable costs and limits of the simulated kernel."""

    #: CPU time charged per behaviour step (one yield)
    step_cost: float = 0.0005
    #: extra cost of setting up a meet (argument marshalling, dispatch)
    meet_overhead: float = 0.001
    #: cost of creating a new top-level agent locally
    spawn_overhead: float = 0.001
    #: local cost of handing a briefcase to the transport
    transmit_overhead: float = 0.0005
    #: an agent exceeding this many steps is killed as a runaway (section 3
    #: motivates limiting runaway agents; the step budget is the kernel-side
    #: safety net, electronic cash is the economic one)
    max_agent_steps: int = 1_000_000
    #: seed for every random stream derived by the kernel
    rng_seed: int = 42
    #: terminal-agent retention policy of the lifecycle ledger: "keep-all",
    #: "keep-results", "keep-counts[:N]" or a RetentionPolicy instance (see
    #: :mod:`repro.core.lifecycle`)
    retention: Union[str, "RetentionPolicy"] = "keep-all"
    #: delivery-fabric flush window in simulated seconds; 0 disables
    #: batching and preserves one-wire-message-per-folder behaviour
    delivery_batch_window: float = 0.0
    #: flush an outbox early once it holds this many messages (0 = no limit)
    delivery_batch_max_messages: int = 0
    #: flush an outbox early once it queues this many payload bytes (0 = no limit)
    delivery_batch_max_bytes: int = 0
    #: hard deadline (seconds): with > 0 the flush window slides with
    #: traffic but an outbox never waits longer than this past its first
    #: queued message (0 = fixed window, no sliding)
    delivery_batch_deadline: float = 0.0
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
    #: EWMA smoothing factor of the per-pair rate estimators
    flow_ewma_alpha: float = 0.2
    #: serialize per-message transport setup at each source site (the cost
    #: model under which batching pays in simulated time, not just bytes)
    serialize_transport_setup: bool = False
    #: durability policy of the per-site stores: "none" (legacy free
    #: permanence, the default), "flush-on-demand", "wal-group-commit", or
    #: a DurabilityPolicy instance (see :mod:`repro.store`)
    durability: Union[str, "DurabilityPolicy"] = "none"
    #: seconds charged per WAL record written at commit/flush time
    store_write_latency: float = 0.0002
    #: seconds charged per payload byte a WAL record carries (the
    #: bytes-proportional term of the disk cost model; the default models
    #: a ~100 MB/s log device)
    store_write_byte_latency: float = 0.00000001
    #: seconds charged per fsync (one per group commit or explicit flush)
    store_fsync_latency: float = 0.004
    #: group-commit window: how long the WAL batches dirty state before
    #: syncing (wal-group-commit only)
    store_commit_window: float = 0.05
    #: let a pending durability barrier (wait_until_durable, the FT layer's
    #: pre-jump checkpoints) trigger the group commit immediately instead
    #: of waiting out the commit window (see repro.flow.CommitGovernor)
    store_barrier_piggyback: bool = True
    #: seconds charged per snapshot folder / redo record replayed at recovery
    store_replay_latency: float = 0.0005
    #: fixed cost of beginning a recovery replay
    store_recovery_base: float = 0.05
    #: committed redo records tolerated before compaction folds them into
    #: the base snapshot images
    store_snapshot_threshold: int = 256
    #: number of shards the simulation is partitioned into.  1 (default)
    #: runs the classic single event loop; with N > 1 the kernel becomes a
    #: facade over N shard engines advanced under conservative clock sync
    #: (see :mod:`repro.shard`)
    shards: int = 1
    #: explicit site -> shard id placement overrides; sites not listed are
    #: placed by a stable CRC-32 hash of their name
    shard_placement: Optional[Dict[str, int]] = None
    #: where each synchronisation round's shard bursts execute: "inproc"
    #: (serial, the default), "thread" (a persistent pool, one worker per
    #: shard), or "process" (long-lived spawn workers — real multi-core
    #: parallelism; see :mod:`repro.shard.backend`).  Inert at shards=1.
    shard_backend: str = "inproc"
    #: execution backend of the event loop itself: "sim" (the default —
    #: the deterministic discrete-event EventLoop/SimClock pair, time
    #: advances only as events fire) or "realtime" (repro.rt's
    #: AsyncioScheduler — the same heap of events, but every gap to the
    #: next due event is a real asyncio sleep, so delivery latencies,
    #: heartbeats and commit windows really elapse).  Realtime requires
    #: shards=1 and rejects shard_backend="process".
    backend: str = "sim"
    #: directory for real on-disk WAL mirrors, one ``<site>.wal`` file
    #: per site, fsynced per group commit (realtime + a durable policy
    #: only; see :class:`repro.rt.FileWalSink`).  None keeps the WAL
    #: purely logical.
    store_realtime_dir: Optional[str] = None
    #: causal tracing (repro.obs): off by default — every instrumentation
    #: point then costs a single attribute read
    obs_enabled: bool = False
    #: fraction of traces recorded, decided per trace id by a
    #: deterministic CRC-32 hash (1.0 = everything, 0.0 = guard cost only)
    obs_sample: float = 1.0
    #: capacity of the in-memory span ring buffer (per kernel/shard)
    obs_ring: int = 65536
    #: JSONL file finished spans are appended to.  On a classic kernel the
    #: file is written live; a sharded facade writes it at ``close()`` by
    #: merging every shard's ring (engines never open the file themselves)
    obs_path: Optional[str] = None
    #: cap on retained kernel event-log lines; past it the oldest are
    #: dropped (counted in ``event_log.dropped``).  0 = unbounded.
    event_log_max: int = 200_000


class Kernel:
    """A running TACOMA system: sites + network + agents.

    Parameters
    ----------
    topology:
        The site graph.  Defaults to a 3-site LAN, which is enough for the
        quickstart example.
    transport:
        ``"rsh"``, ``"tcp"``, ``"horus"``, a Transport subclass, or an
        already-constructed Transport instance.
    config:
        Cost/limit knobs (:class:`KernelConfig`).
    install_system_agents:
        Install ``ag_py``/``rexec``/courier/diffusion on every site
        (benchmarks that measure bare kernel cost turn this off).
    registry:
        Behaviour registry used to resolve names; defaults to the
        process-wide registry.
    retention:
        Terminal-agent retention policy for the lifecycle ledger; overrides
        ``config.retention`` when given (see :mod:`repro.core.lifecycle`).
    """

    def __init__(self, topology: Optional[Topology] = None,
                 transport: Union[str, Transport, type] = "tcp",
                 config: Optional[KernelConfig] = None,
                 install_system_agents: bool = True,
                 registry: Optional[BehaviourRegistry] = None,
                 retention: Union[str, RetentionPolicy, None] = None,
                 _shard_ctx=None):
        self.config = config or KernelConfig()
        if self.config.shards < 1:
            raise KernelError(f"shards must be >= 1, got {self.config.shards}")
        from repro.shard.backend import BACKENDS
        if self.config.shard_backend not in BACKENDS:
            raise KernelError(
                f"unknown shard_backend {self.config.shard_backend!r}; "
                f"expected one of {BACKENDS}")
        if self.config.backend not in ("sim", "realtime"):
            raise KernelError(
                f"unknown backend {self.config.backend!r}; "
                "expected 'sim' or 'realtime'")
        if self.config.backend == "realtime":
            if self.config.shards != 1:
                raise KernelError(
                    "backend='realtime' requires shards=1: the realtime "
                    "scheduler drives a single wall-clock event loop "
                    "(shard the sim backend instead, or run one realtime "
                    "kernel per host)")
            if self.config.shard_backend == "process":
                raise KernelError(
                    "backend='realtime' cannot use shard_backend='process': "
                    "spawned shard workers and the wall-clock scheduler "
                    "are mutually exclusive (keep the default 'inproc')")
        elif self.config.store_realtime_dir is not None:
            raise KernelError(
                "store_realtime_dir requires backend='realtime': the sim "
                "backend keeps the WAL purely logical (priced, not paid)")
        if not 0.0 <= self.config.obs_sample <= 1.0:
            raise KernelError(f"obs_sample must be in [0.0, 1.0], got "
                              f"{self.config.obs_sample}")
        if self.config.obs_ring < 1:
            raise KernelError(f"obs_ring must be >= 1, got "
                              f"{self.config.obs_ring}")
        if self.config.event_log_max < 0:
            raise KernelError(f"event_log_max must be >= 0 (0 = unbounded), "
                              f"got {self.config.event_log_max}")
        #: the ShardSet when this kernel is a sharded facade; None for the
        #: classic single-loop kernel and for the per-shard engines
        self._shards = None
        #: this engine's ShardContext when it is one shard of a facade
        self._shard_ctx = _shard_ctx
        if self.config.shards > 1 and _shard_ctx is None:
            self._init_facade(topology, transport, install_system_agents,
                              registry, retention)
            return
        self.topology = topology if topology is not None else lan(["alpha", "beta", "gamma"])
        self.loop = self._make_loop()
        self.stats = NetworkStats()
        self.registry = registry or default_registry()
        # Engines offset the seed by their shard id so shards do not mirror
        # each other's random streams; shard 0 (and the classic kernel)
        # keeps the configured seed exactly.
        self.rng = random.Random(self.config.rng_seed
                                 + (_shard_ctx.shard_id if _shard_ctx else 0))
        self.transport = self._make_transport(transport)
        if _shard_ctx is not None:
            self.transport.boundary = _shard_ctx.router.boundary_for(
                _shard_ctx.shard_id)
        #: this kernel's tracer (repro.obs) — disabled unless obs_enabled
        self.obs = self._make_tracer()
        self.transport.obs = self.obs
        #: the metrics seam: every number the kernel publishes reads from
        #: here (store_summary, shard digests, benchmark JSON alike)
        self.metrics = MetricsRegistry()
        self.metrics.register("net", self.stats.snapshot)
        self.metrics.register("flow", self.transport.flow.metrics)
        transport_metrics = getattr(self.transport, "metrics", None)
        if transport_metrics is not None:  # tcp/horus publish extra telemetry
            self.metrics.register("transport", transport_metrics)
        if self.config.backend == "realtime":
            # Wall-clock honesty metrics: how late the scheduler wakes.
            self.loop.lag_observe = self.metrics.histogram(
                "rt_sleep_lag_seconds").observe
        #: open "run" spans by agent id / open recovery spans by site name
        self._obs_runs: Dict[str, Any] = {}
        self._obs_recovery: Dict[str, Any] = {}
        #: per-engine trace-id counter; launches reach each engine in the
        #: same order on every shard backend, so assigned ids match too
        self._obs_trace_seq = 0
        if self.config.delivery_batch_window == 0 and (
                self.config.delivery_batch_max_messages > 0
                or self.config.delivery_batch_max_bytes > 0
                or self.config.delivery_batch_deadline > 0):
            # The window is the fabric's master switch; thresholds or a
            # deadline without it would silently never fire.
            raise KernelError(
                "delivery_batch_max_messages/_max_bytes/_deadline require a "
                "positive delivery_batch_window (the fabric is off at 0)")
        if self.config.delivery_batch_window == 0 and (
                self.config.flow_window_min > 0
                or self.config.flow_window_max > 0):
            # Same guard for the adaptive bounds: with the fabric off, no
            # outbox exists for the flow controller to size.
            raise KernelError(
                "flow_window_min/_max require a positive "
                "delivery_batch_window (the fabric is off at 0)")
        if self.config.flow_target_batch <= 0:
            # Validated here (not only in configure_batching) so a typo is
            # caught even while the fabric is off.
            raise KernelError(f"flow_target_batch must be > 0, got "
                              f"{self.config.flow_target_batch}")
        if not 0.0 < self.config.flow_ewma_alpha <= 1.0:
            raise KernelError(f"flow_ewma_alpha must be in (0, 1], got "
                              f"{self.config.flow_ewma_alpha}")
        if self.config.flow_window_min > 0 >= self.config.flow_window_max:
            # A floor with no ceiling is silently inert (adaptive mode is
            # keyed on flow_window_max > 0); refuse rather than ignore it.
            raise KernelError(
                "flow_window_min requires a positive flow_window_max "
                "(adaptive windows are off while flow_window_max is 0)")
        if (self.config.flow_window_max > 0
                and self.config.flow_window_min > self.config.flow_window_max):
            raise KernelError(
                f"flow_window_min ({self.config.flow_window_min}) must not "
                f"exceed flow_window_max ({self.config.flow_window_max})")
        if (self.config.delivery_batch_window != 0
                or self.config.serialize_transport_setup
                or self.config.delivery_batch_max_messages != 0
                or self.config.delivery_batch_max_bytes != 0
                or self.config.delivery_batch_deadline != 0
                or self.config.flow_window_min != 0
                or self.config.flow_window_max != 0):
            # != 0 (not > 0) so a negative knob reaches configure_batching
            # and raises there instead of silently running with batching off.
            self.transport.configure_batching(
                self.config.delivery_batch_window,
                serialize_setup=self.config.serialize_transport_setup,
                max_messages=self.config.delivery_batch_max_messages,
                max_bytes=self.config.delivery_batch_max_bytes,
                deadline=self.config.delivery_batch_deadline,
                window_min=self.config.flow_window_min,
                window_max=self.config.flow_window_max,
                target_batch=self.config.flow_target_batch,
                ewma_alpha=self.config.flow_ewma_alpha)

        self.sites: Dict[str, Site] = {}
        #: callbacks fired (with the site name) when a site joins late via
        #: :meth:`add_site`; extensions like the Horus guard-group wiring
        #: use this so late sites are not invisible to them
        self._site_added_hooks: List[Callable[[str], None]] = []
        #: callbacks fired (with the site name) once a recovery completes
        #: and the site accepts traffic again (checkpoint revival uses this)
        self._site_recovered_hooks: List[Callable[[str], None]] = []
        #: the resolved durability policy; "none" builds no stores at all
        self.durability = resolve_policy(self.config.durability)
        #: per-site durable stores (empty when the policy is "none")
        self.stores: Dict[str, SiteStore] = {}
        for name in self.topology.sites():
            if _shard_ctx is not None and name not in _shard_ctx.owned:
                continue  # another shard hosts this site
            site = Site(name)
            self.sites[name] = site
            self.transport.register_endpoint(name, self._make_site_handler(name))
            self._attach_store(site)

        #: the lifecycle ledger: registration, indexes, retention (the
        #: kernel's agent-facing API delegates here)
        self.table = AgentTable(retention if retention is not None
                                else self.config.retention)
        self.event_log = EventLog(self.config.event_log_max)
        #: memo for _best_effort_code: deriving a CODE element per
        #: launch/meet/arrival re-ran registry reverse lookups (and raised
        #: exceptions for unregistered callables) on every hot-path call.
        #: Cleared whenever the registry mutates, and size-capped so a
        #: kernel launching unique closures cannot pin them forever.
        self._code_cache: Dict[Any, Optional[dict]] = {}
        self._code_cache_version = self.registry.version

        # Ledger counters read by experiments and tests.  The agent-state
        # counters (launched/completed/failed/killed) live in the lifecycle
        # table and are exposed below as properties; these four are kernel
        # events the table does not see.
        self.meets = 0
        self.transmits = 0
        self.arrivals = 0
        self.undeliverable = 0

        #: remembered so late-joined sites (add_site) match the population
        self._install_system_agents = install_system_agents
        if install_system_agents:
            from repro.sysagents import install_standard_agents
            for site in self.sites.values():
                install_standard_agents(site)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _init_facade(self, topology, transport, install_system_agents,
                     registry, retention) -> None:
        """Build a sharded kernel: N engine kernels behind this facade.

        Sites are partitioned by the placement map, each shard gets its own
        event loop / transport / ledgers, and the facade re-exposes the
        classic surface through merged views (``stats``, ``table``,
        ``sites``) plus method delegation — callers never see shards unless
        they ask (``kernel.shard_set``).
        """
        from repro.shard import (ClockSync, MailRouter, Shard, ShardContext,
                                 ShardSet, make_backend, resolve_placement)
        if isinstance(transport, Transport):
            raise KernelError(
                "a sharded kernel builds one transport per shard; pass a "
                "transport name or class, not a constructed instance")
        self.topology = topology if topology is not None else lan(["alpha", "beta", "gamma"])
        self.registry = registry or default_registry()
        backend_name = self.config.shard_backend
        placement = resolve_placement(self.topology.sites(), self.config.shards,
                                      self.config.shard_placement)
        router = MailRouter(placement,
                            inbox_handoffs=(backend_name == "thread"))
        if backend_name == "process":
            engines, backend = self._spawn_process_engines(
                transport, install_system_agents, retention, placement, router)
        else:
            engines = []
            for shard_id in range(self.config.shards):
                owned = frozenset(name for name, owner in placement.items()
                                  if owner == shard_id)
                engines.append(Kernel(
                    topology=self.topology, transport=transport,
                    config=self.config,
                    install_system_agents=install_system_agents,
                    registry=self.registry, retention=retention,
                    _shard_ctx=ShardContext(shard_id, owned, router)))
            backend = make_backend(backend_name, router, self.config.shards)
        router.attach_engines(engines)
        clock_sync = ClockSync(self.topology, router.placement,
                               shards=self.config.shards,
                               flow_bonus=self.config.flow_window_min)
        router.clock_sync = clock_sync
        if backend.distributed:
            backend.clock_sync = clock_sync
        self._engines = engines
        self._router = router
        self._clock_sync = clock_sync
        self._backend = backend
        self._shards = ShardSet([Shard(shard_id, engine)
                                 for shard_id, engine in enumerate(engines)],
                                clock_sync, backend=backend)

        # The merged facade surface: one API over N shards.
        self.stats = StatsView([engine.stats for engine in engines])
        #: the facade's own tracer (sync-round spans ride the ShardSet
        #: clock); every engine span is merged in through the TracerView
        facade_tracer = (Tracer(clock=self._shards,
                                sample=self.config.obs_sample)
                         if self.config.obs_enabled else None)
        self.obs = TracerView([engine.obs for engine in engines],
                              own=facade_tracer)
        self._shards.obs = facade_tracer
        self.metrics = MetricsView([engine.metrics for engine in engines])
        self.metrics.register("net", self.stats.snapshot)
        self.table = MergedAgentTable([engine.table for engine in engines])
        self.sites = ChainMap(*[engine.sites for engine in engines])
        self.stores = ChainMap(*[engine.stores for engine in engines])
        self.durability = engines[0].durability
        #: shard 0 anchors the pieces that need a single identity: failure
        #: schedules ride its clock, log_event stamps it, and code that
        #: introspects ``kernel.transport`` sees its transport
        self.loop = engines[0].loop
        self.transport = engines[0].transport
        self.rng = engines[0].rng
        self._install_system_agents = install_system_agents

    def _spawn_process_engines(self, transport, install_system_agents,
                               retention, placement, router):
        """Build the process backend: one spawn worker per shard.

        The facade keeps :class:`ProcessEngineProxy` objects where the
        in-process backends keep engine kernels; the merged views and the
        delegation methods work over either because the proxies present
        the same surface (served from worker state digests).
        """
        import pickle

        from repro.core.registry import default_registry as _default_registry
        from repro.shard.procworker import (ProcessBackend, WorkerSpec,
                                            preload_module_names)
        if self.registry is not _default_registry():
            raise KernelError(
                "shard_backend='process' rebuilds behaviours from the "
                "process-wide default registry in each worker; a custom "
                "registry instance cannot cross the process boundary (use "
                "shard_backend='thread' or register behaviours in the "
                "default registry)")
        try:
            pickle.dumps((self.config, retention, transport, self.topology))
        except Exception as error:
            raise KernelError(
                "shard_backend='process' ships the topology, config and "
                f"transport to spawn workers, but pickling failed: {error} "
                "(pass the transport by name, keep LinkSpec-based "
                "topologies, and avoid closures in the config)") from None
        transport_name = (transport if isinstance(transport, str)
                          else getattr(transport, "name", transport.__name__))
        preload = preload_module_names(self.registry)
        specs = []
        for shard_id in range(self.config.shards):
            owned = frozenset(name for name, owner in placement.items()
                              if owner == shard_id)
            specs.append(WorkerSpec(
                shard_id=shard_id, topology=self.topology,
                transport=transport, config=self.config,
                install_system_agents=install_system_agents,
                retention=retention, owned=owned, placement=placement,
                preload_modules=preload))
        backend = ProcessBackend(specs, transport_name)
        # Share the live placement map so late-joining sites (add_site)
        # route correctly without re-plumbing the backend.
        backend.placement = router.placement
        return backend.proxies, backend

    def __getattr__(self, name: str):
        # Only ever reached for attributes missing from __dict__ — i.e. on
        # the sharded facade, which does not carry the engine-level ledger
        # attributes.  Classic kernels and shard engines always have the
        # real attributes, so this costs them nothing.
        shards = self.__dict__.get("_shards")
        if shards is not None:
            engines = self.__dict__["_engines"]
            if name in ("meets", "transmits", "arrivals", "undeliverable"):
                return sum(getattr(engine, name) for engine in engines)
            if name == "event_log":
                merged = []
                for engine in engines:
                    merged.extend(engine.event_log)
                merged.sort(key=lambda entry: entry[0])
                return merged
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def shard_set(self):
        """The ShardSet coordinator, or None on a classic kernel."""
        return self._shards

    def shard_summary(self) -> Dict[str, Any]:
        """Cross-shard coordination ledger (what the E15 report prints).

        Works on any kernel: a classic single-loop kernel reports
        ``shards=1, backend=None`` with all-zero handoff counters, so
        benchmark code can print it unconditionally.
        """
        stats = self.stats
        summary: Dict[str, Any] = {
            "shards": self.config.shards if self._shards is not None else 1,
            "backend": self._backend.name if self._shards is not None else None,
            "shard_handoffs": stats.shard_handoffs,
            "shard_handoff_bytes": stats.shard_handoff_bytes,
            "shard_late_arrivals": stats.shard_late_arrivals,
        }
        if self._shards is not None:
            summary["rounds"] = self._shards.rounds
            summary["sync_seconds"] = self._shards.sync_seconds
            summary["overhead_seconds"] = self._shards.overhead_seconds
            summary["handoffs_drained"] = self._shards.handoffs_drained
            summary["clock_rebuilds"] = self._clock_sync.rebuilds
        return summary

    def close(self) -> None:
        """Release held resources: shard workers, WAL sinks, asyncio loops.

        Idempotent — call it unconditionally when done with a kernel (or
        use the kernel as a context manager, which calls it on exit).  On
        a sharded facade it shuts the backend's worker threads/processes
        down; on a classic kernel it closes every site store's WAL sink
        and, under ``backend="realtime"``, the owned asyncio loop.  A
        closed realtime kernel (and a process-backend facade whose
        workers are gone) cannot run further; in-process shard backends
        rebuild their pool lazily if run again.
        """
        if self._shards is not None:
            if self.config.obs_enabled and self.config.obs_path is not None:
                # Engines ring-buffer their spans; the facade owns the file.
                self.dump_trace(self.config.obs_path)
            self._shards.close()
            return
        for store in self.stores.values():
            store.close()
        self.obs.close()
        loop_close = getattr(self.loop, "close", None)
        if loop_close is not None:
            loop_close()

    def __enter__(self) -> "Kernel":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _engine_for(self, site_name: str) -> "Kernel":
        """The shard engine owning *site_name* (facade only)."""
        owner = self._router.placement.get(site_name)
        if owner is None:
            raise UnknownSiteError(f"unknown site {site_name!r}")
        return self._engines[owner]

    def _make_loop(self) -> EventLoop:
        """Build the event loop the configured backend runs on.

        ``"sim"`` is the deterministic discrete-event loop; ``"realtime"``
        is :class:`repro.rt.AsyncioScheduler` — same heap and ordering,
        real sleeps between events.  Imported lazily so the sim backend
        never touches :mod:`asyncio`.
        """
        if self.config.backend == "realtime":
            from repro.rt import AsyncioScheduler
            return AsyncioScheduler()
        return EventLoop()

    def _make_tracer(self) -> Tracer:
        """Build this kernel's tracer from the ``obs_*`` config knobs.

        Disabled (the default) returns the no-op tracer: every
        instrumentation point then costs one attribute read.  Shard
        engines always record into ring buffers — the facade merges them
        (``dump_trace``) — so ``obs_path`` opens a live JSONL file only on
        classic kernels.  Under ``backend="realtime"`` spans additionally
        carry monotonic wall-clock stamps, the feed-back path from
        observed latencies to sim cost-model prices.
        """
        if not self.config.obs_enabled:
            return Tracer.disabled()
        from repro.obs import JsonlSink, RingSink, TeeSink
        sink = RingSink(self.config.obs_ring)
        if self.config.obs_path is not None and self._shard_ctx is None:
            sink = TeeSink([sink, JsonlSink(self.config.obs_path)])
        wall_timer = None
        if self.config.backend == "realtime":
            from timeit import default_timer
            wall_timer = default_timer
        return Tracer(clock=self.loop, sink=sink,
                      sample=self.config.obs_sample, wall_timer=wall_timer)

    def _make_transport(self, transport: Union[str, Transport, type]) -> Transport:
        if isinstance(transport, Transport):
            return transport
        if isinstance(transport, str):
            try:
                transport_cls = TRANSPORTS[transport]
            except KeyError:
                raise KernelError(f"unknown transport {transport!r}; "
                                  f"choose from {sorted(TRANSPORTS)}") from None
        elif isinstance(transport, type) and issubclass(transport, Transport):
            transport_cls = transport
        else:
            raise KernelError(f"cannot build a transport from {transport!r}")
        return transport_cls(self.loop, self.topology, self.stats,
                             rng=random.Random(self.config.rng_seed + 1))

    def _attach_store(self, site: Site) -> None:
        """Build and attach the site's durable store (no-op for policy "none")."""
        if not self.durability.durable:
            return
        costs = StoreCosts(
            write_latency=self.config.store_write_latency,
            write_byte_latency=self.config.store_write_byte_latency,
            fsync_latency=self.config.store_fsync_latency,
            commit_window=self.config.store_commit_window,
            replay_latency=self.config.store_replay_latency,
            recovery_base=self.config.store_recovery_base,
            snapshot_threshold=self.config.store_snapshot_threshold,
        )
        governor = CommitGovernor(piggyback=self.config.store_barrier_piggyback)
        sink = None
        if self.config.store_realtime_dir is not None:
            import os

            from repro.rt import FileWalSink
            os.makedirs(self.config.store_realtime_dir, exist_ok=True)
            sink = FileWalSink(os.path.join(self.config.store_realtime_dir,
                                            f"{site.name}.wal"))
            # Measured flush+fsync wall latency per group commit.
            sink.latency_observe = self.metrics.histogram(
                "wal_fsync_wall_seconds").observe
        store = SiteStore(site, self.loop, self.durability, costs, self.stats,
                          log_event=self.log_event, governor=governor,
                          sink=sink, obs=self.obs)
        site.attach_store(store)
        self.stores[site.name] = store

    # ------------------------------------------------------------------
    # site access
    # ------------------------------------------------------------------

    def site(self, name: str) -> Site:
        """The :class:`Site` called *name*."""
        try:
            return self.sites[name]
        except KeyError:
            raise UnknownSiteError(f"unknown site {name!r}") from None

    def site_names(self) -> List[str]:
        """All site names (cluster-wide: shard engines see every site too)."""
        return list(self.topology.sites())

    def add_site(self, name: str, links: Sequence = (),
                 install_system_agents: Optional[bool] = None) -> Site:
        """Register a new site with a *running* kernel (late join).

        *links* lists the peers to connect the new site to — plain site
        names (default link parameters) or ``(peer, LinkSpec)`` pairs.  The
        site gets a transport endpoint, the standard system agents (by
        default matching whether the kernel was constructed with them, so
        a late site never differs from the founding population), and every
        ``on_site_added`` subscriber is notified, so extensions that
        enumerated the sites at install time (e.g. the Horus guard group)
        can wire the newcomer in.
        """
        if self._shards is not None:
            return self._add_site_sharded(name, links, install_system_agents)
        if name in self.sites:
            raise KernelError(f"site {name!r} already exists")
        resolved_links = [link if isinstance(link, tuple) else (link, None)
                          for link in links]
        for peer, _ in resolved_links:
            # Validate before touching the topology: a bad entry must not
            # leave a half-registered node behind.  Checked against the
            # topology (not the local site dict) because a shard engine
            # hosts only its own sites but may link to any site.
            if not self.topology.has_site(peer):
                raise UnknownSiteError(f"cannot link new site {name!r} to "
                                       f"unknown site {peer!r}")
        if not self.topology.has_site(name):
            self.topology.add_site(name)
        for peer, spec in resolved_links:
            self.topology.add_link(name, peer, spec)
        site = Site(name)
        self.sites[name] = site
        self.transport.register_endpoint(name, self._make_site_handler(name))
        self._attach_store(site)
        if (self._install_system_agents if install_system_agents is None
                else install_system_agents):
            from repro.sysagents import install_standard_agents
            install_standard_agents(site)
        self.log_event("kernel", name, "site added")
        if self._shard_ctx is not None:
            # New sites (and their links) can shorten cross-shard paths, so
            # the lookahead matrix must be rebuilt before the next horizon.
            self._shard_ctx.router.clock_sync_invalidate()
        for hook in list(self._site_added_hooks):
            hook(name)
        return site

    def _add_site_sharded(self, name: str, links: Sequence,
                          install_system_agents: Optional[bool]) -> Site:
        """Facade add_site: place the newcomer, delegate to its owner."""
        if self._router.placement.get(name) is not None:
            raise KernelError(f"site {name!r} already exists")
        overrides = self.config.shard_placement or {}
        owner = overrides.get(name)
        if owner is None:
            from repro.shard import default_shard_of
            owner = default_shard_of(name, self.config.shards)
        owner = int(owner)
        if not 0 <= owner < self.config.shards:
            raise KernelError(f"shard_placement[{name!r}] = {owner} is "
                              f"outside [0, {self.config.shards})")
        if self._backend.distributed:
            return self._add_site_distributed(name, links,
                                              install_system_agents, owner)
        self._router.assign(name, owner)
        try:
            site = self._engines[owner].add_site(
                name, links=links, install_system_agents=install_system_agents)
        except Exception:
            self._router.unassign(name)
            raise
        self._clock_sync.invalidate()
        return site

    def _add_site_distributed(self, name: str, links: Sequence,
                              install_system_agents: Optional[bool],
                              owner: int):
        """Process-backend add_site: every worker's topology must learn it.

        The owning worker runs the full engine ``add_site`` (site object,
        endpoint, stores, system agents); the others only mirror the
        placement and the new topology edges so their routing and any
        relayed traffic see the newcomer.  The facade keeps its own
        topology copy current for ClockSync and queries.
        """
        resolved = [link if isinstance(link, tuple) else (link, None)
                    for link in links]
        for peer, _ in resolved:
            if not self.topology.has_site(peer):
                raise UnknownSiteError(f"cannot link new site {name!r} to "
                                       f"unknown site {peer!r}")
        self._router.assign(name, owner)
        try:
            site = self._engines[owner].add_site(
                name, links=list(links),
                install_system_agents=install_system_agents, owner=owner)
        except Exception:
            self._router.unassign(name)
            raise
        if not self.topology.has_site(name):
            self.topology.add_site(name)
        for peer, spec in resolved:
            self.topology.add_link(name, peer, spec)
        for shard_id, engine in enumerate(self._engines):
            if shard_id != owner:
                engine.site_assigned(name, resolved, owner)
        self._clock_sync.invalidate()
        # No facade-side log_event: the owning worker's add_site already
        # logged "site added" and the digest merges it in.
        return site

    def on_site_added(self, callback: Callable[[str], None]) -> None:
        """Subscribe *callback* to late site registrations (see :meth:`add_site`)."""
        if self._shards is not None:
            # Each engine fires for the sites it hosts; subscribing the
            # callback everywhere keeps the facade's contract: one call per
            # added site, whichever shard it landed on.
            for engine in self._engines:
                engine.on_site_added(callback)
            return
        self._site_added_hooks.append(callback)

    def on_site_recovered(self, callback: Callable[[str], None]) -> None:
        """Subscribe *callback* to completed site recoveries.

        Fired once the site accepts traffic again — after the durable
        store's replay (when one exists), immediately on the legacy
        instant-recovery path otherwise.  Checkpoint revival
        (:mod:`repro.fault.recovery`) is the canonical subscriber.
        """
        if self._shards is not None:
            for engine in self._engines:
                engine.on_site_recovered(callback)
            return
        self._site_recovered_hooks.append(callback)

    # ------------------------------------------------------------------
    # durable stores
    # ------------------------------------------------------------------

    def store(self, site_name: str) -> Optional[SiteStore]:
        """The durable store of *site_name*, or None under policy "none"."""
        self.site(site_name)  # raise UnknownSiteError for bad names
        return self.stores.get(site_name)

    def make_durable(self, cabinet_name: str,
                     sites: Optional[Iterable[str]] = None) -> int:
        """Opt the named cabinet into durability at the given (default: all) sites.

        Returns how many stores accepted the opt-in; 0 under policy "none",
        so callers can opt in unconditionally and pay nothing when
        durability is off.
        """
        targets = list(sites) if sites is not None else self.site_names()
        if self._shards is not None and self._backend.distributed:
            # The stores live in worker processes: group the targets by
            # owning shard and opt in with one RPC per worker.
            by_owner: Dict[int, List[str]] = {}
            for site_name in targets:
                owner = self._router.placement.get(site_name)
                if owner is None:
                    raise UnknownSiteError(f"unknown site {site_name!r}")
                by_owner.setdefault(owner, []).append(site_name)
            return sum(
                self._engines[owner].make_durable(cabinet_name, sites=names)
                for owner, names in by_owner.items())
        opted = 0
        for site_name in targets:
            store = self.store(site_name)
            if store is not None:
                store.make_durable(cabinet_name)
                opted += 1
        return opted

    def store_summary(self) -> Dict[str, Any]:
        """Aggregate durability ledger (what the E12 report prints).

        Reads the metrics registry — which re-exposes the stats snapshot
        as its ``"net"`` source — selected by prefix, so a durability
        counter added to :class:`NetworkStats` *or* registered directly
        with ``kernel.metrics`` shows up here without a second list to
        maintain.
        """
        summary: Dict[str, Any] = {
            key: value for key, value in self.metrics.collect().items()
            if key.startswith(("wal_", "store_", "recover", "durable_",
                               "state_lost_"))}
        summary["policy"] = self.durability.name
        return summary

    # ------------------------------------------------------------------
    # observability (repro.obs)
    # ------------------------------------------------------------------

    def trace_spans(self) -> List[Dict[str, Any]]:
        """Every recorded span as dicts, oldest first (sharded: merged)."""
        return self.obs.export()

    def dump_trace(self, path: str) -> int:
        """Write every recorded span to *path* as JSONL; returns the count.

        One file per kernel regardless of sharding or execution backend —
        the :mod:`repro.obs.report` analyzer reconstructs itineraries and
        latency breakdowns from it.
        """
        import json
        spans = self.trace_spans()
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span, sort_keys=True, default=str))
                handle.write("\n")
        return len(spans)

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
            shard = self._shard_ctx.shard_id if self._shard_ctx is not None else 0
            trace_id = f"t{shard}:{site_name}:{self._obs_trace_seq}"
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
        attrs = ({"agent": instance.spec.name}
                 if instance.spec.name is not None else None)
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
        """Install a named agent at one site (or every site when *site_name* is None)."""
        if self._shards is not None:
            # Delegate to the owning engine(s) instead of poking Site
            # objects from here: on the process backend sites live in
            # worker processes and installation must cross as an RPC.
            if site_name is not None:
                self._engine_for(site_name).install_agent(
                    site_name, name, behaviour, system=system, replace=replace)
            else:
                for engine in self._engines:
                    engine.install_agent(None, name, behaviour,
                                         system=system, replace=replace)
            return
        targets = [self.site(site_name)] if site_name is not None else list(self.sites.values())
        for site in targets:
            site.install(name, behaviour, system=system, replace=replace)

    def agents_at(self, site_name: str, active_only: bool = True) -> List[AgentInstance]:
        """Agent instances located at *site_name*.

        The active (default) query reads the site's live resident index —
        O(residents at the site).  The historical query (``active_only=
        False``) still scans the full ledger, since terminal agents are
        dropped from the index the moment they finish.
        """
        if active_only:
            site = self.sites.get(site_name)
            return site.residents() if site is not None else []
        return self._agents_at_scan(site_name, active_only=False)

    def _agents_at_scan(self, site_name: str, active_only: bool = True) -> List[AgentInstance]:
        """Brute-force O(all agents) scan; the reference the index is checked against."""
        return [agent for agent in self.table.entries.values()
                if agent.site_name == site_name and (not active_only or not agent.finished)]

    def site_load(self, site_name: str) -> float:
        """The load metric of a site (what monitor agents report to brokers)."""
        site = self.site(site_name)
        return site.load_metric(site.resident_count())

    # ------------------------------------------------------------------
    # launching agents
    # ------------------------------------------------------------------

    def launch(self, site_name: str, behaviour: Union[str, Callable],
               briefcase: Optional[Briefcase] = None, name: Optional[str] = None,
               system: bool = False, delay: float = 0.0) -> str:
        """Create a new top-level agent at *site_name* and schedule it to start.

        *behaviour* may be a callable or a registered behaviour name.
        Returns the new agent's id; results are read back later through
        :meth:`result_of` or :meth:`agent`.
        """
        if delay < 0:
            raise KernelError(f"cannot schedule agent starts {delay} seconds "
                              f"in the past")
        if self._shards is not None:
            return self._engine_for(site_name).launch(
                site_name, behaviour, briefcase, name=name, system=system,
                delay=delay)
        site = self.site(site_name)
        resolved, resolved_system = self._resolve_behaviour(site, behaviour)
        spec = AgentSpec(
            behaviour=resolved,
            briefcase=briefcase if briefcase is not None else Briefcase(),
            name=name or (behaviour if isinstance(behaviour, str) else None),
            site=site_name,
            code_element=self._best_effort_code(behaviour, resolved),
            system=system or resolved_system,
        )
        if self.obs.active:
            self._obs_trace_launch(spec.briefcase, site_name)
        instance = AgentInstance(spec, site_name)
        self._register(instance)
        self.loop.schedule(delay, partial(self._start, instance),
                           label=("start", instance.agent_id))
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
        if delay < 0:
            raise KernelError(f"cannot schedule agent starts {delay} seconds "
                              f"in the past")
        if self._shards is not None:
            return self._launch_many_sharded(requests, delay)
        specs: List[tuple] = []
        for request in requests:
            site_name, behaviour = request[0], request[1]
            briefcase = request[2] if len(request) > 2 else None
            site = self.site(site_name)
            resolved, resolved_system = self._resolve_behaviour(site, behaviour)
            specs.append((site_name, AgentSpec(
                behaviour=resolved,
                briefcase=briefcase if briefcase is not None else Briefcase(),
                name=behaviour if isinstance(behaviour, str) else None,
                site=site_name,
                code_element=self._best_effort_code(behaviour, resolved),
                system=resolved_system,
            )))
        instances: List[AgentInstance] = []
        for site_name, spec in specs:
            if self.obs.active:
                self._obs_trace_launch(spec.briefcase, site_name)
            instance = AgentInstance(spec, site_name)
            self._register(instance)
            instances.append(instance)
        self.loop.schedule_many(
            [(delay, partial(self._start, instance),
              ("start", instance.agent_id)) for instance in instances])
        return [instance.agent_id for instance in instances]

    def _launch_many_sharded(self, requests: Sequence[tuple],
                             delay: float) -> List[str]:
        """Facade launch_many: one batched scheduler pass per owning shard.

        Site names are validated up front; ids come back in request order.
        Atomicity is per shard — a behaviour that fails to resolve aborts
        its own shard's batch, but batches already handed to other shards
        stay launched (cross-shard launches are independent by design).
        """
        requests = list(requests)
        owners = [self._engine_for(request[0]) for request in requests]
        grouped: Dict[int, List[int]] = {}
        for index, engine in enumerate(owners):
            grouped.setdefault(id(engine), []).append(index)
        ids: List[Optional[str]] = [None] * len(requests)
        for engine in self._engines:
            indexes = grouped.get(id(engine))
            if not indexes:
                continue
            batch_ids = engine.launch_many([requests[i] for i in indexes],
                                           delay=delay)
            for position, index in enumerate(indexes):
                ids[index] = batch_ids[position]
        return ids

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

    _CODE_UNSET = object()
    #: _code_cache entries keep strong references to behaviour callables, so
    #: the cache is cleared rather than allowed to grow past this.
    _CODE_CACHE_MAX = 4096

    def _best_effort_code(self, original: Any, resolved: Callable) -> Optional[dict]:
        """Derive (and memoise) the CODE element for a behaviour reference.

        Launch/meet/arrival all pass through here, so the derivation —
        registry reverse lookup, or a raised-and-swallowed exception for
        unregistered callables — is cached per (original, resolved) pair.
        Any registry mutation (register, replace, unregister) bumps the
        registry version and flushes the memo, so cached elements can never
        name a behaviour the registry has since rebound.
        """
        if self._code_cache_version != self.registry.version:
            self._code_cache.clear()
            self._code_cache_version = self.registry.version
        key: Any = (original, resolved)
        try:
            cached = self._code_cache.get(key, self._CODE_UNSET)
        except TypeError:  # unhashable reference (e.g. a raw CODE dict)
            key = None
        else:
            if cached is not self._CODE_UNSET:
                return code_element_copy(cached)
        element: Optional[dict] = None
        for candidate in (original, resolved):
            try:
                element = code_element_of(candidate, self.registry)
                break
            except Exception:
                continue
        if key is not None:
            if len(self._code_cache) >= self._CODE_CACHE_MAX:
                self._code_cache.clear()
            self._code_cache[key] = code_element_copy(element)
        return element

    def _register(self, instance: AgentInstance) -> None:
        """Enter a new instance into the lifecycle ledger + site index."""
        self.table.register(instance, self.sites.get(instance.site_name))

    def _retire(self, instance: AgentInstance) -> None:
        """Hand a terminal instance to the ledger: unindex, count, archive."""
        self.table.retire(instance, self.sites.get(instance.site_name))

    # ------------------------------------------------------------------
    # running the simulation
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the event loop (to quiescence, or up to simulated time *until*).

        On a sharded kernel this advances every shard in conservative
        synchronisation rounds: *until* is honoured globally (no shard's
        clock passes it) and *max_events* is one global budget shared
        across shards, not a per-shard allowance.
        """
        if self._shards is not None:
            return self._shards.run(until=until, max_events=max_events)
        if until is None:
            return self.loop.run(max_events=max_events)
        return self.loop.run_until(until, max_events=max_events)

    @property
    def now(self) -> float:
        """Current simulated time (sharded: the slowest shard's clock)."""
        if self._shards is not None:
            return self._shards.now
        return self.loop.now

    # ------------------------------------------------------------------
    # agent bookkeeping (thin delegations to the lifecycle AgentTable)
    # ------------------------------------------------------------------

    @property
    def agents(self) -> Mapping[str, AgentInstance]:
        """A read-only view of the lifecycle ledger's entries.

        Values are live :class:`AgentInstance` objects, or compact
        :class:`~repro.core.lifecycle.AgentRecord` archives for terminal
        agents under the ``keep-results``/``keep-counts`` retention policies.
        A mapping proxy, not the dict itself: external mutation would desync
        the table's name index and state counters.
        """
        return MappingProxyType(self.table.entries)

    @property
    def launched(self) -> int:
        """Total agents ever registered (top-level, meet callees, arrivals)."""
        return self.table.launched

    @property
    def completed(self) -> int:
        """Agents that finished normally."""
        return self.table.completed

    @property
    def failed(self) -> int:
        """Agents whose behaviour raised."""
        return self.table.failed

    @property
    def killed(self) -> int:
        """Agents terminated from outside (crashes, runaway enforcement)."""
        return self.table.killed

    def agent(self, agent_id: str) -> AgentInstance:
        """The instance (or archived record) with the given id."""
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

        Works for archived records too: ``keep-results`` retention drops the
        briefcase and spec of a terminal agent but keeps the result readable.
        """
        instance = self.agent(agent_id)
        if instance.state == AgentState.DONE:
            return instance.result
        if instance.state == AgentState.FAILED:
            raise KernelError(f"agent {agent_id} failed: {instance.error!r}")
        if instance.state == AgentState.KILLED:
            raise KernelError(f"agent {agent_id} was killed: {instance.error!r}")
        raise KernelError(f"agent {agent_id} has not finished (state={instance.state})")

    def counters(self) -> Dict[str, int]:
        """Snapshot of the kernel ledger used by tests and benchmark reports.

        Agent-state counts come from the lifecycle table's O(1) snapshot;
        nothing here scans agent history.
        """
        return {
            **self.table.state_counts(),
            "meets": self.meets,
            "transmits": self.transmits,
            "arrivals": self.arrivals,
            "undeliverable": self.undeliverable,
        }

    def log_event(self, agent_id: str, site_name: str, message: str) -> None:
        """Append a line to the kernel event log (agents call this via ctx.log).

        Sharded: the event lands in the log of the shard owning
        *site_name* — stamped with that shard's clock, next to the rest of
        that site's history.  Only events about unplaced scopes (``"*"``,
        facade-level notes) fall back to shard 0.  The facade's
        ``event_log`` property merges every shard's log in time order.
        """
        if self._shards is not None:
            owner = self._router.placement.get(site_name)
            engine = self._engines[owner] if owner is not None else self._engines[0]
            engine.log_event(agent_id, site_name, message)
            return
        self.event_log.append((self.loop.now, agent_id, site_name, message))

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
        if self._shards is not None:
            owner = self._engine_for(name)
            owner.crash_site(name)
            for engine in self._engines:
                if engine is not owner:
                    # Non-owning shards drop their pending outboxes to the
                    # crashed site and forget its flow telemetry, exactly
                    # as the owning transport does for local traffic.
                    engine.transport.on_site_down(name)
            if self._backend.distributed:
                # Workers mark their own topology copies; keep the
                # facade's copy (ClockSync, route queries) in step.
                self.topology.mark_down(name)
            return
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
            return
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
        if self._shards is not None:
            owner = self._engine_for(name)
            owner.recover_site(name)
            for engine in self._engines:
                if engine is not owner:
                    engine.transport.on_site_up(name)
            if self._backend.distributed:
                self.topology.mark_up(name)
            return
        site = self.site(name)
        if site.alive:
            return
        store = self.stores.get(name)
        if store is None:
            site.mark_recovered()
            self.topology.mark_up(name)
            self.transport.on_site_up(name)
            self.log_event("kernel", name, "site recovered")
            if self.obs.active:
                self.obs.record(infra_trace_id("site", name), "recovery",
                                self.obs.next_key(name), start=self.loop.now,
                                kind="fault", site=name,
                                attrs={"instant": True})
            self._fire_site_recovered(name)
            return
        if store.recovering:
            return  # a replay is already underway
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

    def _complete_recovery(self, name: str, token: int) -> None:
        """The store's replay finished: restore cabinets and open the site."""
        site = self.sites[name]
        store = self.stores[name]
        if site.alive or not store.recovery_valid(token):
            return  # aborted by a crash-during-recovery, or stale
        restored = store.complete_recovery()
        site.mark_recovered()
        self.topology.mark_up(name)
        self.transport.on_site_up(name)
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
        """Partition the network into the given site groups.

        Pending delivery-fabric outboxes whose pair the partition severed
        are flushed through the (now partitioned) network immediately: the
        queued messages had not left their source yet, so cross-partition
        batches are dropped with normal per-message drop accounting rather
        than silently surviving the partition.  Same-side outboxes are left
        coalescing undisturbed.
        """
        self.topology.set_partition(groups)
        if self._shards is not None:
            if self._backend.distributed:
                # Each worker partitions its own topology copy and flushes
                # its severed outboxes in one RPC.
                for engine in self._engines:
                    engine.partition(groups)
            else:
                for engine in self._engines:
                    engine.transport.flush_outboxes(only_unroutable=True,
                                                    cause="partition")
        else:
            self.transport.flush_outboxes(only_unroutable=True, cause="partition")
        self.log_event("kernel", "*", f"partition installed: {[list(g) for g in groups]}")

    def heal_partition(self) -> None:
        """Heal any active partition."""
        self.topology.heal_partition()
        if self._shards is not None and self._backend.distributed:
            for engine in self._engines:
                engine.heal_partition()
        self.log_event("kernel", "*", "partition healed")

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
            outcome = instance.spec.behaviour(context, instance.briefcase)
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
        if instance.steps > self.config.max_agent_steps:
            self._kill(instance, reason="runaway agent exceeded step budget")
            self._release_meet_parent_on_abnormal_end(
                instance, MeetError(f"met agent {instance.name!r} was killed as a runaway"))
            return
        self._dispatch(instance, request)

    def _dispatch(self, instance: AgentInstance, request: Any) -> None:
        handlers = self._SYSCALL_HANDLERS
        handler = handlers.get(type(request))
        if handler is None:
            # Not one of the syscall classes itself: a subclass dispatches as
            # its nearest handled base (reaching Syscall: nothing handles it).
            handler = next((handlers[base] for base in type(request).__mro__
                            if base in handlers), Kernel._do_not_a_syscall)
        handler(self, instance, request)

    def _do_unsupported(self, instance: AgentInstance, request: Syscall) -> None:
        self._throw_back(instance, SyscallError(f"unsupported syscall {request!r}"))

    def _do_not_a_syscall(self, instance: AgentInstance, request: Any) -> None:
        self._throw_back(instance, SyscallError(
            f"agents must yield Syscall objects, got {type(request).__name__}"))

    def _throw_back(self, instance: AgentInstance, error: Exception) -> None:
        """Deliver an error to the agent on its next step."""
        self.loop.schedule(self.config.step_cost,
                           partial(self._resume, instance, error=error),
                           label=("error", instance.agent_id))

    # -- individual syscalls ----------------------------------------------------------

    def _do_meet(self, caller: AgentInstance, request: Meet) -> None:
        site = self.sites[caller.site_name]
        try:
            behaviour, is_system = site.resolve(request.agent_name)
        except UnknownAgentError as error:
            self._throw_back(caller, MeetError(str(error)))
            return
        spec = AgentSpec(
            behaviour=behaviour,
            briefcase=request.briefcase,
            name=request.agent_name,
            site=site.name,
            code_element=self._best_effort_code(request.agent_name, behaviour),
            system=is_system,
        )
        callee = AgentInstance(spec, site.name, parent_id=caller.agent_id,
                               meet_parent=caller.agent_id)
        self._register(callee)
        caller.children.append(callee.agent_id)
        caller.mark_waiting()
        self.meets += 1
        self.loop.schedule(self.config.meet_overhead + self.config.step_cost,
                           partial(self._start, callee),
                           label=("meet", caller.agent_id, request.agent_name))

    def _do_end_meet(self, callee: AgentInstance, request: EndMeet) -> None:
        self._release_meet_parent(callee, request.value)
        # The callee keeps running concurrently with its (former) caller.
        self.loop.schedule(self.config.step_cost, partial(self._resume, callee),
                           label=("continue", callee.agent_id))

    def _do_sleep(self, instance: AgentInstance, request: Sleep) -> None:
        instance.mark_waiting()
        delay = max(0.0, float(request.duration)) + self.config.step_cost
        self.loop.schedule(delay, partial(self._resume, instance),
                           label=("wake", instance.agent_id))

    def _do_spawn(self, parent: AgentInstance, request: Spawn) -> None:
        site = self.sites[parent.site_name]
        behaviour: Callable
        is_system = False
        if callable(request.behaviour):
            behaviour = request.behaviour
        else:
            try:
                behaviour, is_system = self._resolve_behaviour(site, request.behaviour)
            except (UnknownAgentError, KernelError) as error:
                self._throw_back(parent, error)
                return
        code_element = getattr(request, "code_element", None) or \
            self._best_effort_code(request.behaviour, behaviour)
        spec = AgentSpec(
            behaviour=behaviour,
            briefcase=request.briefcase,
            name=request.name or (request.behaviour
                                  if isinstance(request.behaviour, str) else None),
            site=site.name,
            code_element=code_element,
            system=is_system,
        )
        child = AgentInstance(spec, site.name, parent_id=parent.agent_id)
        self._register(child)
        parent.children.append(child.agent_id)
        self.loop.schedule_many((
            (self.config.spawn_overhead, partial(self._start, child),
             ("spawn", child.agent_id)),
            (self.config.step_cost, partial(self._resume, parent, child.agent_id),
             ("spawned", parent.agent_id)),
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
        payload_bytes = pack_briefcase(request.briefcase)
        declared = wire_size_of(request.briefcase)
        message = Message(
            source=sender.site_name,
            destination=request.destination,
            kind=request.kind,
            payload={"contact": request.contact, "briefcase": payload_bytes},
            declared_size=declared,
        )
        if self.obs.active:
            trace_id = request.briefcase.get(TRACE_ID_FOLDER)
            if trace_id is not None:
                message.trace = (trace_id,
                                 request.briefcase.get(TRACE_PARENT_FOLDER))
        self.transmits += 1
        # Through the delivery fabric: batchable kinds (folder deliveries,
        # status reports) may coalesce with other traffic to the same
        # destination; everything else is sent immediately.
        event = self.transport.post(message)
        accepted = event is not None
        self.loop.schedule(self.config.transmit_overhead + self.config.step_cost,
                           partial(self._resume, sender, accepted),
                           label=("transmitted", sender.agent_id))

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
        self._retire(instance)
        self._release_meet_parent(instance, result)

    def _fail(self, instance: AgentInstance, error: BaseException) -> None:
        if instance.finished:
            return
        instance.mark_failed(error, self.loop.now)
        instance.close_generator()
        if self.obs.active:
            self._obs_end_run(instance, "failed")
        self._retire(instance)
        self.log_event(instance.agent_id, instance.site_name, f"failed: {error!r}")
        self._release_meet_parent_on_abnormal_end(
            instance, MeetError(f"met agent {instance.name!r} failed: {error!r}"))

    def _release_meet_parent(self, callee: AgentInstance, value: Any) -> None:
        """Resume the agent blocked on this callee's meet, if any."""
        if callee.meet_ended or callee.meet_parent is None:
            return
        callee.meet_ended = True
        parent = self.table.get(callee.meet_parent)
        if parent is None or parent.finished:
            return
        result = MeetResult(value=value, briefcase=callee.briefcase,
                            agent_id=callee.agent_id)
        self.loop.schedule(self.config.step_cost, partial(self._resume, parent, result),
                           label=("meet-return", parent.agent_id))

    def _release_meet_parent_on_abnormal_end(self, callee: AgentInstance,
                                             error: Exception) -> None:
        if callee.meet_ended or callee.meet_parent is None:
            return
        callee.meet_ended = True
        parent = self.table.get(callee.meet_parent)
        if parent is None or parent.finished:
            return
        self.loop.schedule(self.config.step_cost, partial(self._resume, parent, error=error),
                           label=("meet-error", parent.agent_id))

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
            self.undeliverable += count
            self.log_event("kernel", site_name,
                           f"message {message.kind!r} dropped: site unavailable")
            return
        if message.kind == MessageKind.BATCH:
            # Delivery-fabric envelope: unbatch and fan each coalesced
            # message out through the normal per-kind path (folder
            # deliveries to their contacts, status reports likewise).
            delivered_at = message.delivered_at
            for sub in message.payload.get("messages", ()):
                sub.delivered_at = delivered_at
                sub.hops = message.hops
                self._on_message(site_name, sub)
            return
        # Site-level hooks deliberately override the default routing for
        # their kind — including contact-addressed STATUS traffic below, so
        # a STATUS hook at a broker site intercepts monitor load reports.
        hook = site.message_hook(message.kind)
        if hook is not None:
            hook(message)
            return
        payload = message.payload
        if message.kind in (MessageKind.AGENT_TRANSFER, MessageKind.FOLDER_DELIVERY,
                            MessageKind.FT_RELEASE, MessageKind.FT_RELAUNCH):
            # Rear-guard traffic is contact-addressed exactly like folder
            # deliveries: releases execute the release agent, relaunches
            # re-animate the snapshot through its CONTACT (normally ag_py).
            self._accept_agent_transfer(site, message)
            return
        if (message.kind == MessageKind.STATUS and isinstance(payload, dict)
                and "contact" in payload and "briefcase" in payload):
            # Contact-addressed status traffic (monitor load reports routed
            # through the courier) executes its contact like a folder
            # delivery instead of rotting in the message cabinet.
            self._accept_agent_transfer(site, message)
            return
        # Default path for control/status/data traffic: deposit into the
        # site's message cabinet so agents can poll it.
        site.cabinet("_messages").put(message.kind, message.payload)

    def _accept_agent_transfer(self, site: Site, message: Message) -> None:
        payload = message.payload
        contact = payload.get("contact")
        raw = payload.get("briefcase")
        if contact is None or raw is None:
            site.undeliverable += 1
            self.undeliverable += 1
            return
        try:
            briefcase = unpack_briefcase(raw)
        except Exception:
            site.undeliverable += 1
            self.undeliverable += 1
            return
        if not site.is_installed(contact):
            site.undeliverable += 1
            self.undeliverable += 1
            self.log_event("kernel", site.name,
                           f"arrival for unknown contact {contact!r} dropped")
            return
        behaviour, is_system = site.resolve(contact)
        spec = AgentSpec(
            behaviour=behaviour,
            briefcase=briefcase,
            name=contact,
            site=site.name,
            code_element=self._best_effort_code(contact, behaviour),
            system=is_system,
        )
        if self.obs.active and message.trace is not None:
            self._obs_record_arrival(site, message, briefcase)
        instance = AgentInstance(spec, site.name)
        self._register(instance)
        self.arrivals += 1
        self.loop.schedule(self.config.meet_overhead, partial(self._start, instance),
                           label=("arrival", instance.agent_id))

    def __repr__(self) -> str:
        return (f"Kernel({len(self.sites)} sites, transport={self.transport.name!r}, "
                f"agents={len(self.table)}, t={self.loop.now:.4f})")
