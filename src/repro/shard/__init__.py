"""Sharded multi-kernel simulation: conservative parallel discrete events.

The paper's TACOMA system ran agents across many independent Unix hosts;
this package lets the reproduction do the same with its simulation.  With
``KernelConfig(shards=N)`` the :class:`~repro.core.kernel.Kernel` facade
runs N :class:`~repro.core.engine.Engine` objects under a
:class:`ShardSet`: sites are partitioned across them (deterministic CRC-32
hash or an explicit placement map), each with its own
:class:`~repro.net.simclock.EventLoop`, transport and ledgers, advanced in
conservative synchronisation rounds (:class:`ClockSync`), with cross-shard
traffic spooled at send time by a :class:`ShardBoundary` transport adapter
and routed to its owner by the coordinator between rounds.

>>> from repro.core import Kernel, KernelConfig
>>> from repro.net import lan
>>> kernel = Kernel(lan([f"site{i}" for i in range(8)]),
...                 config=KernelConfig(shards=4))
>>> kernel.run()  # doctest: +SKIP

``KernelConfig(shard_backend=...)`` selects where each round's bursts
execute (:mod:`repro.shard.backend`): ``inproc`` (serial, the default) or
``process`` (long-lived forked workers, real multi-core parallelism).  Both
are property-tested to produce identical simulation results.

``shards=1`` (the default) never imports this package, let alone builds
any of it: it is the same facade over one engine, which has nothing to
coordinate and runs its loop directly.
"""

from repro.shard.backend import (BACKENDS, InprocBackend, ShardBackend,
                                 build_engines, process_backend_available)
from repro.shard.clocksync import MIN_LOOKAHEAD, ClockSync
from repro.shard.placement import default_shard_of, resolve_placement
from repro.shard.procworker import ProcessBackend, WorkerSpec
from repro.shard.router import ShardBoundary
from repro.shard.shardset import Shard, ShardSet

__all__ = [
    "BACKENDS", "InprocBackend", "ShardBackend",
    "build_engines", "process_backend_available",
    "ClockSync", "MIN_LOOKAHEAD", "ShardBoundary",
    "ProcessBackend", "WorkerSpec",
    "Shard", "ShardSet",
    "default_shard_of", "resolve_placement",
]
