"""E15 — Real parallel shard execution (repro.shard.backend).

E14 established the *model* speedup: events over the slowest shard's busy
time, with every burst still executing serially on one thread.  E15 races
the real thing — the same churn workload under the three execution
backends (``KernelConfig(shard_backend=...)``):

* ``inproc`` — E14's serial round loop (the baseline),
* ``thread`` — per-round bursts on a persistent thread pool.  Under
  CPython's GIL pure-Python event callbacks cannot overlap, so this arm
  measures the seam's overhead honestly rather than promising a speedup,
* ``process`` — one long-lived spawn worker per shard: separate
  interpreters, real cores, coordinator round-trips over pipes.

Two claims:

* **Equivalence** — at every shard count all backends produce identical
  events, handoffs, agent outcomes and ledger counters (asserted
  unconditionally; the property-test suite hammers the same invariant on
  random seeds).
* **Wall-clock** — on a multi-core host (4+ CPUs) the scaled arm (a
  2000-site switched fabric, 50k couriers) runs at higher real
  events/second on ``process`` (or ``thread``) than ``inproc`` at 4+
  shards.  On single-core hosts the assertion is skipped and the summary
  says so — coordination cost without parallel hardware is the honest
  result, not a failure.

Per-round coordination overhead (round wall-time minus the slowest burst:
pool hops, worker round-trips) is broken out per arm, and
every number lands in ``benchmarks/results/e15_parallel.json``.

Run with ``--smoke`` for the CI sanity pass (tiny populations, inproc +
thread at 2 shards, no wall-clock floor).
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, List, Tuple

import pytest

from repro.bench import Report, run_stamp
from repro.bench.workloads import ShardedChurnParams, run_sharded_churn
from repro.shard import process_backend_available

SHARD_COUNTS = (1, 2, 4, 8)
#: scaled-arm shard count the wall-clock claim is made at
SCALED_SHARDS = 8
#: multi-core floor: the parallel backends only have to win where the
#: hardware can actually run bursts concurrently
MIN_CPUS_FOR_SPEEDUP = 4

FULL_BASE = dict(n_sites=200, n_agents=2_000, wave_size=500)
FULL_SCALED = dict(n_sites=2_000, n_agents=50_000, wave_size=5_000,
                   topology="fabric", hosts_per_switch=50)
SMOKE_BASE = dict(n_sites=40, n_agents=200, wave_size=50)
SMOKE_SCALED = dict(n_sites=80, n_agents=400, wave_size=100,
                    topology="fabric", hosts_per_switch=20)


def _backends(smoke: bool) -> List[str]:
    backends = ["inproc", "thread"]
    if not smoke and process_backend_available():
        backends.append("process")
    return backends


def _shard_counts(smoke: bool) -> Tuple[int, ...]:
    return (2,) if smoke else SHARD_COUNTS


@pytest.fixture(scope="module")
def parallel_sweep(smoke):
    """Every (arm, backend, shards) cell of the E15 matrix, same seeds.

    The base arm sweeps backends over every shard count; the scaled arm
    only races the shard count the wall-clock claim is made at (its rows
    are the expensive ones).
    """
    arms: Dict[Tuple[str, str, int], object] = {}
    base = dict(SMOKE_BASE if smoke else FULL_BASE)
    for backend in _backends(smoke):
        for shards in _shard_counts(smoke):
            arms["base", backend, shards] = run_sharded_churn(
                ShardedChurnParams(shards=shards, backend=backend, **base))
    scaled = dict(SMOKE_SCALED if smoke else FULL_SCALED)
    scaled_shards = 2 if smoke else SCALED_SHARDS
    for backend in _backends(smoke):
        arms["scaled", backend, scaled_shards] = run_sharded_churn(
            ShardedChurnParams(shards=scaled_shards, backend=backend,
                               **scaled))
    return arms


def test_e15_parallel_backends(parallel_sweep, smoke, emit_report,
                               results_dir):
    cpus = os.cpu_count() or 1
    backends = _backends(smoke)
    scaled_shards = 2 if smoke else SCALED_SHARDS
    population = dict(SMOKE_BASE if smoke else FULL_BASE)
    scaled_pop = dict(SMOKE_SCALED if smoke else FULL_SCALED)

    report = Report(
        "E15", "real parallel shard execution "
        f"(backends {'/'.join(backends)}; base arm "
        f"{population['n_sites']} sites x {population['n_agents']} couriers "
        f"on a LAN, scaled arm {scaled_pop['n_sites']}-host switched fabric "
        f"x {scaled_pop['n_agents']} couriers; host has {cpus} CPU(s))")
    table = report.table(
        "wall-clock events/second by execution backend",
        ["arm", "backend", "shards", "events", "wall s", "events/wall s",
         "vs inproc", "max busy s", "sync s", "overhead s", "handoffs"])
    for (arm, backend, shards), outcome in sorted(parallel_sweep.items()):
        baseline = parallel_sweep[arm, "inproc", shards]
        table.add_row(
            arm, backend, shards, outcome.events,
            round(outcome.wall_seconds, 4),
            round(outcome.wall_throughput),
            f"{outcome.wall_throughput / baseline.wall_throughput:.2f}x"
            if baseline.wall_throughput > 0 else "n/a",
            round(outcome.busy_seconds, 4), round(outcome.sync_seconds, 4),
            round(outcome.overhead_seconds, 4), outcome.handoffs)
    table.add_note("identical events/handoffs/counters in every backend row "
                   "of an (arm, shards) cell: the backend changes where "
                   "bursts execute, never what the simulation does")
    table.add_note("'overhead s' is per-round coordination: round wall-time "
                   "minus the slowest burst (pool hops, worker "
                   "round-trips)")
    if cpus < MIN_CPUS_FOR_SPEEDUP:
        table.add_note(f"host has {cpus} CPU(s): the wall-clock speedup "
                       f"floor needs >= {MIN_CPUS_FOR_SPEEDUP} cores and is "
                       "not asserted here — rows still measure real "
                       "coordination cost honestly")
    emit_report(report)

    # --- persist the full matrix as JSON (the CI artifact) -------------------
    payload = {
        "experiment": "E15",
        "stamp": run_stamp(seed=ShardedChurnParams().seed,
                           backend=list(backends)),
        "smoke": smoke,
        "cpus": cpus,
        "backends": backends,
        "process_backend_available": process_backend_available(),
        "arms": [
            {"arm": arm, "backend": backend, "shards": shards,
             "wall_throughput": outcome.wall_throughput,
             "model_throughput": outcome.throughput,
             **dataclasses.asdict(outcome)}
            for (arm, backend, shards), outcome
            in sorted(parallel_sweep.items())],
    }
    json_path = os.path.join(results_dir, "e15_parallel.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"E15 results JSON -> {json_path}")

    # --- equivalence: unconditional, every cell ------------------------------
    cells = sorted({(arm, shards)
                    for arm, _backend, shards in parallel_sweep})
    for arm, shards in cells:
        reference = parallel_sweep[arm, backends[0], shards]
        for backend in backends:
            outcome = parallel_sweep[arm, backend, shards]
            label = (arm, backend, shards)
            assert outcome.agents_completed == outcome.agents_launched, label
            assert outcome.late_arrivals == 0, label
            assert outcome.events == reference.events, label
            assert outcome.handoffs == reference.handoffs, label
            assert outcome.counters == reference.counters, label
            assert outcome.sim_seconds == reference.sim_seconds, label
        if shards > 1:
            assert reference.handoffs > 0, (arm, shards)

    # --- wall-clock: the tentpole claim, where the hardware allows -----------
    scaled_inproc = parallel_sweep["scaled", "inproc", scaled_shards]
    parallel_best = max(
        (parallel_sweep["scaled", backend, scaled_shards].wall_throughput
         for backend in backends if backend != "inproc"),
        default=0.0)
    speedup = (parallel_best / scaled_inproc.wall_throughput
               if scaled_inproc.wall_throughput > 0 else 0.0)
    print(f"E15-SUMMARY | cpus={cpus} backends={'/'.join(backends)} | "
          f"scaled@{scaled_shards}shards wall-speedup(best parallel vs "
          f"inproc)={speedup:.2f}x | asserted="
          f"{not smoke and cpus >= MIN_CPUS_FOR_SPEEDUP}")
    if not smoke and cpus >= MIN_CPUS_FOR_SPEEDUP:
        assert speedup > 1.0, (
            f"no parallel backend beat inproc on the scaled arm at "
            f"{scaled_shards} shards on a {cpus}-CPU host "
            f"({speedup:.2f}x)")


def test_e15_timed_thread_backend(benchmark, smoke):
    """pytest-benchmark guard on the thread backend's coordination cost."""
    base = dict(SMOKE_BASE)
    outcome = benchmark(lambda: run_sharded_churn(
        ShardedChurnParams(shards=4, backend="thread", **base)))
    assert outcome.agents_completed == outcome.agents_launched
