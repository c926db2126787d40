"""One repetition of one ledger workload, in a fresh interpreter.

``run.py`` spawns this once per repetition so that heap, GC state and
``ru_maxrss`` are independent between repetitions.  It prints one JSON
object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import pstats
import resource
import sys
import time


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _counts(kernel) -> dict:
    """Every number the public ledgers expose, flat."""
    counts = dict(kernel.counters())
    for source in (kernel.stats.snapshot(), kernel.store_summary(),
                   kernel.shard_summary()):
        counts.update((key, value) for key, value in source.items()
                      if type(value) in (int, float))
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import repro
    import ledger_layers
    import ledger_workloads
    from repro.core.timing import default_timer
    import_s = time.perf_counter() - started

    workload = ledger_workloads.WORKLOADS[args.workload]
    sizes = ledger_workloads.QUICK if args.quick else ledger_workloads.FULL
    inputs = workload.generate(args.seed, sizes)
    units = inputs["units"]

    started = default_timer()
    kernel = workload.build(inputs)
    build_s = default_timer() - started
    try:
        before = _counts(kernel)
        profiler = cProfile.Profile() if args.trace else None
        cpu_before = _cpu_seconds(resource.RUSAGE_SELF)
        if profiler is not None:
            profiler.enable()
        started = default_timer()
        events = workload.drive(kernel, inputs)
        wall_s = default_timer() - started
        if profiler is not None:
            profiler.disable()
        cpu_s = _cpu_seconds(resource.RUSAGE_SELF) - cpu_before

        bad_units, problems = workload.check(kernel, inputs)
        after = _counts(kernel)
        makespan = workload.makespan(kernel, inputs)
        counters = kernel.counters()
    finally:
        kernel.close()
    # Shard workers are reaped by close(): their whole-life CPU and their
    # largest resident set are only readable now.
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s += workers.ru_utime + workers.ru_stime
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + workers.ru_maxrss

    fingerprint = hashlib.sha256(json.dumps({
        "events": events,
        "counters": counters,
        "stats": {key: value for key, value in after.items()
                  if type(value) is int},
    }, sort_keys=True).encode()).hexdigest()

    result = {
        "workload": args.workload,
        "comparable": sizes.comparable,
        "units": units,
        "bad_units": bad_units,
        "problems": problems,
        "setup_s": import_s + build_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_kib / 1024.0,
        "sim_makespan_s": makespan,
        "events": events,
        "counters": counters,
        # the measured region's own counts: the warm-up wave of set-up is
        # subtracted (latency percentiles cannot be, and stay whole-run)
        "counts": {key: (value if key.startswith(("latency_p", "mean_latency",
                                                   "delivery_ratio", "shards"))
                         else value - before.get(key, 0))
                   for key, value in after.items()},
        "sim_fingerprint": fingerprint,
    }
    if profiler is not None:
        result["layers"] = ledger_layers.fold(
            pstats.Stats(profiler), os.path.dirname(repro.__file__))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
