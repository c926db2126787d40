#!/usr/bin/env python
"""Reading a trace: reconstruct an itinerary from one JSONL span dump.

PR 9's observability layer (`repro.obs`) gives every launched agent a
trace id that rides inside its briefcase, so the spans it leaves behind —
launch, per-site runs, FT hops, checkpoint barriers, migrations, rear-
guard releases — stay causally linked across sites, shards, and even
process boundaries.  This example runs a rear-guard-protected itinerary
on a two-shard kernel with tracing on, dumps the spans to a JSONL file,
and replays the journey with the `repro.obs.report` analyzer:

* the indented **hop timeline** shows where the computation spent its
  simulated time, hop by hop;
* the **per-subsystem breakdown** aggregates span durations into
  p50/p99 latencies (agent work vs network legs vs shard handoffs);
* infrastructure spans (WAL group commits) land in `~`-prefixed
  pseudo-traces, kept out of agent timelines but queryable all the same.

The same file can be inspected from a shell::

    python -m repro.obs.report trace.jsonl

Run with::

    python examples/tracing_an_itinerary.py
"""

from __future__ import annotations

import os
import tempfile

from repro.core import Kernel, KernelConfig
from repro.fault import launch_ft_computation
from repro.net import lan
from repro.obs.report import (breakdown, format_timeline, hop_timeline,
                              load_trace, trace_ids)


def main() -> None:
    sites = [f"node{i}" for i in range(6)]
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "trace.jsonl")
        kernel = Kernel(lan(sites), config=KernelConfig(
            rng_seed=7,
            shards=2,                      # trace context crosses shards
            durability="wal-group-commit",  # WAL commits become infra spans
            obs_enabled=True))
        ft_id = launch_ft_computation(
            kernel, sites[0], sites[1:], ft_id="ft-demo", per_hop=0.25,
            durable_checkpoints=True)
        kernel.run(until=60.0)
        kernel.dump_trace(trace_path)      # every recorded span, as JSONL
        kernel.close()

        spans = load_trace(trace_path)
        print(f"dumped {len(spans)} spans for trace ids {trace_ids(spans)}")

        rows = hop_timeline(spans, ft_id)
        print(f"\nhop timeline of {ft_id!r} "
              f"({len(rows)} spans, indent = causality):")
        print(format_timeline(rows))

        print("\nper-subsystem latency breakdown (sim seconds):")
        for subsystem, stats in sorted(breakdown(spans, by="subsystem").items()):
            print(f"  {subsystem:>6}: n={stats['count']:<3} "
                  f"p50={stats['p50']:.4f} p99={stats['p99']:.4f}")

        infra = [span for span in spans if span["trace_id"].startswith("~")]
        commits = [span for span in infra if span["name"] == "wal-commit"]
        print(f"\ninfra pseudo-traces: {len(infra)} spans "
              f"({len(commits)} WAL group commits)")


if __name__ == "__main__":
    main()
