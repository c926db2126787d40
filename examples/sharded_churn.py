#!/usr/bin/env python
"""Sharded multi-kernel simulation: one kernel, four shard engines.

TACOMA ran across many independent Unix hosts; ``KernelConfig(shards=N)``
gives the simulation the same structure.  Sites partition across N shard
engines (deterministic CRC-32 hash, or the explicit ``shard_placement``
map used here), each with its own event loop and transport.  A
conservative clock sync — lookahead derived from the topology's link
latencies — advances every shard only as far as its neighbours cannot
affect, and the mail router hands cross-shard folders over at send time.
``KernelConfig(shard_backend=...)`` chooses where the per-round shard
bursts execute: serially (``"inproc"``, the default, used below) or on
spawned worker processes (``"process"``).  This example stays on
``inproc``: its behaviours are functions defined in this file, and a
spawn worker can only unpickle a function whose module it can import by
name, which a script loaded from a file path (as ``tests/`` loads every
example) is not.  Behaviours meant for ``process`` live in an importable
module, as the test suite's ``tests/scenarios.py`` couriers do.

The example runs a churn of courier agents whose report destinations sit
on *other* shards, then shows the two properties that matter:

* **equivalence** — the same workload under ``shards=1`` produces exactly
  the same counters (sharding changes where events run, never what
  happens), and
* **telemetry** — per-engine event counts, sync rounds, and cross-shard
  handoff counts from ``kernel.engines``, ``kernel.shard_summary()`` and
  ``kernel.stats``.

Run with::

    python examples/sharded_churn.py
"""

from __future__ import annotations

from repro.core import Briefcase, Kernel, KernelConfig
from repro.core.context import AgentContext
from repro.core.folder import Folder
from repro.net import lan

#: 16 sites over 4 shards: four "racks", one shard each
SITES = [f"rack{rack}-host{host}" for rack in range(4) for host in range(4)]
PLACEMENT = {name: int(name[4]) for name in SITES}
N_COURIERS = 60
SHARDS = 4


def report_sink(ctx: AgentContext, briefcase: Briefcase):
    """Destination-side contact: file the couriered report."""
    payload_name = briefcase.get("PAYLOAD_NAME")
    reports = (briefcase.folder(payload_name).elements()
               if payload_name and briefcase.has(payload_name) else [])
    ctx.cabinet("mail").put("received", {
        "from": briefcase.get("SENDER_SITE"), "reports": len(reports)})
    yield ctx.sleep(0)
    return len(reports)


def courier(ctx: AgentContext, briefcase: Briefcase):
    """Work locally, then courier a report to a host on another rack."""
    yield ctx.sleep(float(briefcase.get("WORK")))
    folder = Folder("REPORT", [{"from": ctx.site_name}])
    yield ctx.send_folder(folder, briefcase.get("PEER"), "report_sink")
    return ctx.site_name


def build_and_run(shards: int) -> Kernel:
    config = KernelConfig(rng_seed=11, shards=shards,
                          shard_placement=PLACEMENT if shards > 1 else None)
    kernel = Kernel(lan(SITES), transport="tcp", config=config)
    kernel.install_agent(None, "report_sink", report_sink)
    for index in range(N_COURIERS):
        home = SITES[index % len(SITES)]
        peer = SITES[(index + 5) % len(SITES)]  # 5 hosts on: another rack
        briefcase = Briefcase()
        briefcase.set("WORK", 0.01 * (1 + index % 3))
        briefcase.set("PEER", peer)
        kernel.launch(home, courier, briefcase)
    kernel.run()
    return kernel


def main() -> None:
    # The kernel is a context manager; exiting the block tears down the
    # shard engines via Kernel.close().
    with build_and_run(shards=SHARDS) as sharded:
        print(f"{len(SITES)} sites on {SHARDS} shards (inproc backend), "
              f"{N_COURIERS} couriers, "
              f"every report crossing a rack (= shard) boundary\n")

        print("Per-shard telemetry (kernel.engines):")
        for engine in sharded.engines:
            print(f"  shard {engine.shard_id}: {len(engine.sites)} sites, "
                  f"{engine.loop.processed} events, "
                  f"t={engine.loop.now:.4f}s")
        snapshot = sharded.stats.snapshot()
        summary = sharded.shard_summary()
        print(f"  sync rounds: {summary['rounds']}, "
              f"cross-shard handoffs: {snapshot['shard_handoffs']} "
              f"({snapshot['shard_handoff_bytes']} bytes), "
              f"late arrivals: {snapshot['shard_late_arrivals']} "
              "(always 0: the sync is conservative)")
        print(f"  shard_summary: backend={summary['backend']}, "
              f"handoffs_drained={summary['handoffs_drained']}\n")
        sharded_counters = sharded.counters()

    with build_and_run(shards=1) as classic:
        print(f"{'counter':<14} {'shards=4':>9} {'shards=1':>9}")
        for key, value in sorted(sharded_counters.items()):
            print(f"{key:<14} {value:>9} {classic.counters()[key]:>9}")
        match = sharded_counters == classic.counters()
    print(f"\ncounters identical under sharding: {match}")
    assert match, "sharding must not change simulation semantics"


if __name__ == "__main__":
    main()
