"""Shard execution backends: where each round's bursts actually run.

A sharded kernel's engines all run the same code
(:meth:`Engine.run_to <repro.core.engine.Engine.run_to>`: schedule the
handed-over mail, run the loop to the horizon, return what was spooled for
other shards).  The :class:`~repro.shard.shardset.ShardSet` decides *what*
runs — horizons, the per-round burst plan, the routing of handoffs between
rounds — and the backend decides only *where* each ``run_to`` executes:

``inproc``
    Here, one burst after another on the coordinator thread.  The
    baseline the process backend is property-tested against.

``process``
    Across a pipe, in one long-lived worker per shard, forked from the
    coordinator (:class:`~repro.shard.procworker.ProcessBackend`): the
    same calls, pickled; facade views are served from per-run state
    digests.

Budget semantics are part of the contract: ``run(max_events)`` consumes
one *global* budget in shard order, so the coordinator runs a budgeted
round one :meth:`~ShardBackend.run_to` at a time on every backend —
identical stop points everywhere is what the budget-stop tests pin.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

# The valid ``KernelConfig.shard_backend`` values live beside that field.
from repro.core.errors import KernelError
from repro.core.kernel import SHARD_BACKENDS as BACKENDS
from repro.core.timing import default_timer

__all__ = ["BACKENDS", "InprocBackend", "ShardBackend", "build_engines",
           "process_backend_available"]

#: one burst's outcome: (events executed, busy seconds, outbound handoffs)
Burst = Tuple[int, float, list]


class ShardBackend:
    """Runs engine bursts here, serially, unless a subclass says elsewhere.

    The coordinator calls :meth:`run_round` with each unbudgeted round's
    plan (or :meth:`run_to` burst by burst under an event budget), once per
    ``run()`` call :meth:`finish_run`, and at kernel shutdown :meth:`close`.
    """

    name = "abstract"

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
        """Release worker processes (idempotent)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class InprocBackend(ShardBackend):
    """The serial baseline: every burst on the coordinator thread."""

    name = "inproc"


def build_engines(topology, config, transport, install_system_agents,
                  registry, placement):
    """``(engines, backend)`` for a sharded kernel, per ``config.shard_backend``.

    ``inproc`` gets real :class:`~repro.core.engine.Engine` objects
    sharing *topology* and the live *placement* map; ``process`` gets one
    :class:`~repro.shard.procworker.ProcessEngineProxy` per forked worker,
    each worker holding copies.
    """
    if config.shard_backend == "process":
        from repro.shard.procworker import ProcessBackend
        backend = ProcessBackend.spawn(topology, config, transport,
                                       install_system_agents, registry,
                                       placement)
        return backend.proxies, backend
    from repro.core.engine import Engine
    engines = [Engine(topology, config, transport, install_system_agents,
                      registry, shard_id=shard_id, placement=placement)
               for shard_id in range(config.shards)]
    return engines, InprocBackend()


# -- the workers' start method and its availability probe ----------------------

def worker_context():
    """The ``multiprocessing`` context shard workers start in: ``fork``.

    A forked worker inherits the coordinator's imported modules and
    behaviour registry, so it builds its engine without importing anything.
    Raises :class:`KernelError` on a platform without ``fork``.
    """
    import multiprocessing
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        raise KernelError(
            "shard_backend='process' forks its shard workers, and this "
            "platform has no fork start method; use shard_backend='inproc'"
        ) from None


_PROCESS_PROBE: Optional[bool] = None


def _probe_child(conn) -> None:  # pragma: no cover - runs in the child
    conn.send("ok")
    conn.close()


def process_backend_available() -> bool:
    """True when a worker forked by :func:`worker_context` round-trips a pipe.

    Sandboxes and exotic platforms sometimes lack ``fork`` or working pipe
    semantics; tests and benchmarks gate their process arms on this
    (cached) one-shot probe rather than failing mid-run.
    """
    global _PROCESS_PROBE
    if _PROCESS_PROBE is None:
        try:
            ctx = worker_context()
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
