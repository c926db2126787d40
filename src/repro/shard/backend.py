"""Shard execution backends: where each round's bursts actually run.

A sharded kernel's engines all run the same code
(:meth:`Engine.run_to <repro.core.engine.Engine.run_to>`: schedule the
handed-over mail, run the loop to the horizon, return what was spooled for
other shards).  The :class:`~repro.shard.shardset.ShardSet` decides *what*
runs — horizons, the per-round burst plan, the routing of handoffs between
rounds — and the backend decides only *where* each ``run_to`` executes:

``inproc``
    Here, one burst after another on the coordinator thread.  The
    baseline every other backend is property-tested against.

``thread``
    In a persistent pool thread, one per shard (a ``ThreadPoolExecutor``).
    Shards share no mutable state during a round: each burst touches only
    its own engine and the handoffs it was handed.  Conservative horizons —
    not locks — are the correctness mechanism.  Under CPython's GIL this
    parallelises the loop's C-level work (heap ops, pickling) but not
    pure-Python event callbacks — it is the stepping stone that proves the
    seam, while ``process`` delivers real cores.

``process``
    Across a pipe, in one long-lived spawn worker per shard
    (:class:`~repro.shard.procworker.ProcessBackend`): the same calls,
    pickled; facade views are served from per-run state digests.

Budget semantics are part of the contract: ``run(max_events)`` consumes
one *global* budget in shard order, so the coordinator runs a budgeted
round one :meth:`~ShardBackend.run_to` at a time on every backend —
identical stop points everywhere is what the budget-stop tests pin.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.errors import KernelError
from repro.core.timing import default_timer

__all__ = ["BACKENDS", "InprocBackend", "ShardBackend", "ThreadBackend",
           "build_engines", "make_backend", "process_backend_available"]

#: the valid ``KernelConfig.shard_backend`` values
BACKENDS = ("inproc", "thread", "process")

#: one burst's outcome: (events executed, busy seconds, outbound handoffs)
Burst = Tuple[int, float, list]


class ShardBackend:
    """Runs engine bursts here, serially, unless a subclass says elsewhere.

    The coordinator calls :meth:`run_round` with each unbudgeted round's
    plan (or :meth:`run_to` burst by burst under an event budget), once per
    ``run()`` call :meth:`finish_run`, and at kernel shutdown :meth:`close`.
    """

    name = "abstract"
    #: whether handoffs taken by the coordinator are scheduled in this
    #: process and so count toward ``ShardSet.handoffs_drained``; the
    #: process backend's ride the pipe and were never part of that number
    drains_in_process = True

    def __init__(self, timer: Callable[[], float] = default_timer):
        self.timer = timer

    def run_to(self, shard, horizon: Optional[float], budget: Optional[int],
               handoffs: Sequence) -> Burst:
        """One timed burst of *shard*'s engine; horizon ``None`` = drain."""
        start = self.timer()
        executed, outbound = shard.engine.run_to(horizon, budget, handoffs)
        return executed, self.timer() - start, outbound

    def run_round(self, plans: Sequence[tuple]) -> List[Burst]:
        """Run every ``(shard, horizon, handoffs)`` burst of one round."""
        return [self.run_to(shard, horizon, None, handoffs)
                for shard, horizon, handoffs in plans]

    def finish_run(self, flushes: Sequence[tuple]) -> None:
        """``ShardSet.run`` is returning: land every ``(shard, clock target,
        leftover handoffs)``."""
        for shard, target, handoffs in flushes:
            shard.engine.advance_clock(target, handoffs)

    def close(self) -> None:
        """Release worker threads / processes (idempotent)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class InprocBackend(ShardBackend):
    """The serial baseline: every burst on the coordinator thread."""

    name = "inproc"


class ThreadBackend(ShardBackend):
    """One persistent worker thread per shard.

    The pool is created lazily on the first parallel round and reused for
    the kernel's lifetime (persistent workers, no per-round thread spawn
    cost).  A single-burst round runs on the coordinator thread — one
    burst gains nothing from a pool hop.
    """

    name = "thread"

    def __init__(self, n_shards: int,
                 timer: Callable[[], float] = default_timer):
        super().__init__(timer)
        self.n_shards = int(n_shards)
        self._executor: Optional[ThreadPoolExecutor] = None

    def run_round(self, plans):
        if len(plans) < 2:
            return super().run_round(plans)
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.n_shards,
                thread_name_prefix="repro-shard")
        futures = [self._executor.submit(self.run_to, shard, horizon, None, handoffs)
                   for shard, horizon, handoffs in plans]
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


def make_backend(name: str, n_shards: int = 0,
                 timer: Callable[[], float] = default_timer) -> ShardBackend:
    """Resolve an in-process ``KernelConfig.shard_backend`` name.

    ``process`` comes with its engines (:func:`build_engines`: it needs the
    full worker build spec, not just a shard count); asking for it here
    names the entry point so the error is actionable.
    """
    if name == "inproc":
        return InprocBackend(timer)
    if name == "thread":
        if n_shards <= 0:
            raise KernelError("thread backend needs a shard count")
        return ThreadBackend(n_shards, timer)
    if name == "process":
        raise KernelError(
            "the process backend is built with its engines by build_engines() "
            "(repro.shard.procworker.ProcessBackend), not make_backend()")
    raise KernelError(
        f"unknown shard_backend {name!r}; expected one of {BACKENDS}")


def build_engines(topology, config, transport, install_system_agents,
                  registry, retention, placement):
    """``(engines, backend)`` for a sharded kernel, per ``config.shard_backend``.

    In-process backends get real :class:`~repro.core.engine.Engine` objects
    sharing *topology* and the live *placement* map; ``process`` gets one
    :class:`~repro.shard.procworker.ProcessEngineProxy` per spawned worker,
    each worker holding copies.
    """
    if config.shard_backend == "process":
        from repro.shard.procworker import ProcessBackend
        backend = ProcessBackend.spawn(topology, config, transport,
                                       install_system_agents, registry,
                                       retention, placement)
        return backend.proxies, backend
    from repro.core.engine import Engine
    engines = [Engine(topology, config, transport, install_system_agents,
                      registry, retention, shard_id=shard_id, placement=placement)
               for shard_id in range(config.shards)]
    return engines, make_backend(config.shard_backend, config.shards)


# -- process-backend availability probe ----------------------------------------

_PROCESS_PROBE: Optional[bool] = None


def _probe_child(conn) -> None:  # pragma: no cover - runs in the child
    conn.send("ok")
    conn.close()


def process_backend_available() -> bool:
    """True when spawn-context multiprocessing round-trips on this host.

    Sandboxes and exotic platforms sometimes lack working process spawn or
    pipe semantics; tests and benchmarks gate their process arms on this
    (cached) one-shot probe rather than failing mid-run.
    """
    global _PROCESS_PROBE
    if _PROCESS_PROBE is None:
        try:
            import multiprocessing
            ctx = multiprocessing.get_context("spawn")
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_probe_child, args=(child,), daemon=True)
            proc.start()
            child.close()
            ok = parent.poll(30) and parent.recv() == "ok"
            proc.join(10)
            parent.close()
            _PROCESS_PROBE = bool(ok)
        except Exception:
            _PROCESS_PROBE = False
    return _PROCESS_PROBE
