#!/usr/bin/env python3
"""Which functions is one ledger workload's time in, and who calls them?

    python3 tools/hot_functions.py ft_durable
    python3 tools/hot_functions.py ft_durable --seed 11 --top 30
    python3 tools/hot_functions.py ft_durable --callers 'pickle.loads|elements'
    python3 tools/hot_functions.py churn --gc

The ledger's per-layer table says which *layer* a run's time is in; this
says which functions, so that finding the next hot spot needs no ad-hoc
script.  It profiles the same region ``ledger_rep.py --trace 1`` does (first
launch to quiescence of one repetition, ``cProfile``), prints the top
functions by self time with their call counts, and with ``--callers`` the
caller edges (calls, cumulative seconds through the edge) of every function
whose ``file:line(name)`` matches the regular expression.

With ``--gc`` it runs the same region with no profiler attached and reports
what the region allocates instead: cyclic-collector runs and seconds per
generation (``gc.callbacks``), their share of the region's wall time, and the
collector-tracked objects that survive the region, per unit and by type —
ending in one line that can be diffed between two commits::

    ALLOC churn survivors_per_unit=13.0 gc_share=0.098 collections=170/16/1

The counts repeat exactly for a given workload, seed and population; the
seconds (and so ``gc_share``) are this host's, this run's.

It only reads ``benchmarks/ledger/ledger_workloads.py``
(``WORKLOADS[name].generate/build/drive`` and ``FULL``/``QUICK``), needs no
``PYTHONPATH``, and covers this process only (not ``churn_shards2``'s
workers).  Profiled times are 2-3x untraced ones and under-weigh C code;
measure a change with the ledger, not with this.
"""

import argparse
import collections
import cProfile
import gc
import os
import pathlib
import pstats
import re
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent


def where(func) -> str:
    """``file:line(name)`` with paths shown relative to the repository."""
    filename, line, name = func
    if filename == "~":
        return name  # a builtin: pstats keeps its description in the name
    try:
        filename = str(pathlib.Path(filename).relative_to(REPO))
    except ValueError:
        filename = os.path.basename(filename)
    return f"{filename}:{line}({name})"


def profile(workload, inputs) -> pstats.Stats:
    """One repetition's measured region under cProfile."""
    kernel = workload.build(inputs)
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        workload.drive(kernel, inputs)
        profiler.disable()
    finally:
        kernel.close()
    return pstats.Stats(profiler)


def report(stats: pstats.Stats, top: int, callers) -> None:
    rows = stats.stats  # func -> (prim calls, calls, self s, cumulative s, callers)
    total = sum(row[2] for row in rows.values())
    print(f"{total:.3f} s profiled in {len(rows)} functions")
    print(f"{'self s':>9} {'share':>6} {'cum s':>9} {'calls':>9}  function")
    by_self = sorted(rows.items(), key=lambda item: item[1][2], reverse=True)
    for func, (_, calls, self_s, cum_s, _) in by_self[:top]:
        print(f"{self_s:9.3f} {self_s / total:6.1%} {cum_s:9.3f} {calls:9d}  {where(func)}")
    if callers is None:
        return
    for func, (_, calls, self_s, cum_s, edges) in by_self:
        if not callers.search(where(func)):
            continue
        print(f"\n{where(func)}: {calls} calls, {self_s:.3f} s self, {cum_s:.3f} s cumulative")
        by_cum = sorted(edges.items(), key=lambda item: item[1][3], reverse=True)
        for caller, (_, edge_calls, _, edge_cum_s) in by_cum:
            print(f"    {edge_calls:9d} calls {edge_cum_s:9.3f} s  from {where(caller)}")


def tracked_by_type() -> collections.Counter:
    """Collector-tracked objects alive right now, by type name (garbage excluded)."""
    gc.collect()
    return collections.Counter(type(obj).__name__ for obj in gc.get_objects())


def alloc_report(name: str, workload, inputs, top: int) -> None:
    """What one repetition's measured region costs the cyclic collector."""
    runs, seconds, started_at = [0, 0, 0], [0.0, 0.0, 0.0], [0.0]

    def on_gc(phase, info):
        if phase == "start":
            started_at[0] = time.perf_counter()
        else:
            runs[info["generation"]] += 1
            seconds[info["generation"]] += time.perf_counter() - started_at[0]

    kernel = workload.build(inputs)
    try:
        before = tracked_by_type()
        gc.callbacks.append(on_gc)
        started = time.perf_counter()
        try:
            workload.drive(kernel, inputs)
            wall_s = time.perf_counter() - started
        finally:
            gc.callbacks.remove(on_gc)
        after = tracked_by_type()
    finally:
        kernel.close()
    units = inputs["units"]
    after.subtract(before)
    survivors = sum(after.values())
    print(f"{wall_s:.3f} s region, {units} units, no profiler attached")
    for generation in range(3):
        print(f"  gen {generation}: {runs[generation]:6d} collections "
              f"{seconds[generation]:8.3f} s")
    print(f"  {survivors} tracked survivors ({survivors / units:.2f} per unit)")
    for kind, count in after.most_common(top):
        if count * 200 >= units:  # rounds to at least 0.01 per unit
            print(f"  {count / units:9.2f} per unit  {kind}")
    print(f"ALLOC {name} survivors_per_unit={survivors / units:.1f} "
          f"gc_share={sum(seconds) / wall_s:.3f} "
          f"collections={runs[0]}/{runs[1]}/{runs[2]}")


def main(argv=None) -> int:
    sys.path[:0] = [str(REPO / "benchmarks" / "ledger"), str(REPO / "src")]
    import ledger_workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(ledger_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--top", type=int, metavar="N",
                        help="functions to list (default 20; with --gc: "
                             "surviving types, default 10)")
    parser.add_argument("--callers", type=re.compile, metavar="PATTERN",
                        help="also print the caller edges of matching functions")
    parser.add_argument("--gc", action="store_true",
                        help="no profiler: collector runs and surviving "
                             "tracked objects of the region instead")
    parser.add_argument("--quick", action="store_true",
                        help="the ledger's tiny self-test populations")
    args = parser.parse_args(argv)
    workload = ledger_workloads.WORKLOADS[args.workload]
    inputs = workload.generate(
        args.seed, ledger_workloads.QUICK if args.quick else ledger_workloads.FULL)
    if args.gc:
        alloc_report(args.workload, workload, inputs,
                     10 if args.top is None else args.top)
    else:
        report(profile(workload, inputs),
               20 if args.top is None else args.top, args.callers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
