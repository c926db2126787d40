#!/usr/bin/env python3
"""Which functions is one ledger workload's time in, and who calls them?

    python3 tools/hot_functions.py ft_durable
    python3 tools/hot_functions.py ft_durable --seed 11 --top 30
    python3 tools/hot_functions.py ft_durable --callers 'pickle.loads|elements'

The ledger's per-layer table says which *layer* a run's time is in; this
says which functions, so that finding the next hot spot needs no ad-hoc
script.  It profiles the same region ``ledger_rep.py --trace 1`` does (first
launch to quiescence of one repetition, ``cProfile``), prints the top
functions by self time with their call counts, and with ``--callers`` the
caller edges (calls, cumulative seconds through the edge) of every function
whose ``file:line(name)`` matches the regular expression.

It only reads ``benchmarks/ledger/ledger_workloads.py``
(``WORKLOADS[name].generate/build/drive`` and ``FULL``/``QUICK``), needs no
``PYTHONPATH``, and covers this process only (not ``churn_shards2``'s
workers).  Profiled times are 2-3x untraced ones and under-weigh C code;
measure a change with the ledger, not with this.
"""

import argparse
import cProfile
import os
import pathlib
import pstats
import re
import sys

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


def main(argv=None) -> int:
    sys.path[:0] = [str(REPO / "benchmarks" / "ledger"), str(REPO / "src")]
    import ledger_workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(ledger_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--top", type=int, default=20, metavar="N",
                        help="functions to list (default 20)")
    parser.add_argument("--callers", type=re.compile, metavar="PATTERN",
                        help="also print the caller edges of matching functions")
    parser.add_argument("--quick", action="store_true",
                        help="the ledger's tiny self-test populations")
    args = parser.parse_args(argv)
    workload = ledger_workloads.WORKLOADS[args.workload]
    inputs = workload.generate(
        args.seed, ledger_workloads.QUICK if args.quick else ledger_workloads.FULL)
    report(profile(workload, inputs), args.top, args.callers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
