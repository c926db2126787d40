#!/usr/bin/env python3
"""Which functions is one ledger workload's time in, and who calls them?

    python3 tools/hot_functions.py ft_durable
    python3 tools/hot_functions.py ft_durable --seed 11 --top 30
    python3 tools/hot_functions.py ft_durable --callers 'pickle.loads|elements'
    python3 tools/hot_functions.py churn --gc
    python3 tools/hot_functions.py churn --mem
    python3 tools/hot_functions.py churn --calls
    python3 tools/hot_functions.py churn_shards2 --rss
    python3 tools/hot_functions.py churn --setup
    python3 tools/hot_functions.py ft_durable --hops

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

    ALLOC churn survivors_per_unit=4.0 gc_share=0.053 collections=121/11/0

The counts repeat exactly for a given workload, seed and population; the
seconds (and so ``gc_share``) are this host's, this run's.

With ``--mem`` it runs the region the same way and reports what it leaves on
the heap: bytes (``sys.getsizeof``) of everything the ledger entries and the
sites' cabinets added in the region still reference, per unit, by owner (the
name an agent was launched under) and type, each object counted once however
many briefcases share it — and how the stored folder elements are shared::

    RETAINED churn bytes_per_unit=1104 payload_copies_per_unit=0.00 shared_elements=0 store_bytes_per_unit=0

``payload_copies_per_unit`` counts the distinct stored elements of at least
64 bytes (where the bits outweigh a ``bytes`` header) that the region's
briefcases hold; ``shared_elements`` those any two briefcases both reference.
``store_bytes_per_unit`` is what only the sites' durable stores hold beyond
that (WAL states and base images; an element a cabinet also holds is counted
under the cabinet) and is not part of ``bytes_per_unit``.

With ``--calls`` it profiles the region as the default mode does and counts
calls instead of timing them: every function's primitive calls, summed per
ledger layer (``ledger_layers.layer_of``; code outside ``src/repro`` and the
ledger is ``stdlib``), per unit.  Unlike the seconds, the counts repeat
exactly for a workload, seed and population, whatever the host or
``PYTHONHASHSEED``::

    CALLS churn calls_per_unit=432.33 core.codec=95.00 core.kernel=105.00 ... stdlib=163.33

With ``--rss`` it runs the region the same way as ``--gc``, closes the kernel
(which reaps ``churn_shards2``'s workers), and prints the peak resident sets
the ledger's ``peak_rss_mb`` adds up: this process's ``ru_maxrss`` and that of
its largest reaped child, so a memory change can be placed in the coordinator
or in a worker::

    RSS churn_shards2 self_mb=34.0 children_mb=29.7

Like ``peak_rss_mb`` they cover the whole process life, input generation and
imports included, and move with the host's allocator and Python build.  A
launcher script that execs the interpreter (a version-manager shim) leaves
the children it reaped in ``children_mb``: a few MiB on one-engine workloads.

With ``--setup`` it decomposes the ledger's ``setup_s`` instead of the
region: in a fresh interpreter it times what ``ledger_rep.py`` times (the
imports of ``repro`` and the ledger modules, then ``build()``) and prints
one line, ``modules`` being the ``repro`` modules loaded by then and
``compiled`` the modules those imports and ``build()`` compiled from source
(0 where every one had bytecode; where ``PYTHONDONTWRITEBYTECODE=1`` is set
and the tree holds no ``__pycache__/``, as in the ledger's repetitions, it is
every module imported, the standard library's included)::

    SETUP churn import_s=0.107 build_s=0.028 modules=50 compiled=52

then profiles the same imports and build (not the input generation between
them) in a second fresh interpreter and lists its top functions by self time,
as the default mode does.  Where ``PYTHONDONTWRITEBYTECODE=1`` is set and the
tree holds no ``__pycache__/``, most of the import is source compile (on a
2-core host, CPython 3.11: ``builtins.compile`` took 0.08-0.1 s over 52 calls
against a 0.1-0.13 s import), so ``setup_s`` shrinks with the source lines on
the import path.

With ``--hops`` it runs the region the same way as ``--gc`` and counts the
rear-guarded work it did from the kernel's event log: every ``hop-exec``
line is one execution of a computation's hop, so executions past the
distinct ``(ft_id, seq)`` pairs are work done again.  A repeat is expected
after a crash of the site that ran the hop before (its done-markers died
with it); ``repeats_without_crash`` counts the others, such as a relaunch
to a site the computation had skipped, which runs the rest of the
itinerary again there::

    HOPS ft_durable executed_per_unit=15.16 distinct_per_unit=15.00 repeats_without_crash=0

The counts repeat exactly for a workload, seed and population.

It only reads ``benchmarks/ledger/ledger_workloads.py``
(``WORKLOADS[name].generate/build/drive`` and ``FULL``/``QUICK``), needs no
``PYTHONPATH``, and except for ``--rss`` and ``--setup`` (which runs in
fresh interpreters) covers this process only (not ``churn_shards2``'s
workers).  Profiled times are 2-3x untraced ones and
under-weigh C code; measure a change with the ledger, not with this.
"""

import argparse
import collections
import cProfile
import gc
import os
import pathlib
import pstats
import re
import resource
import subprocess
import sys
import tempfile
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


def profile(workload, inputs) -> cProfile.Profile:
    """One repetition's measured region under cProfile."""
    kernel = workload.build(inputs)
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        workload.drive(kernel, inputs)
        profiler.disable()
    finally:
        kernel.close()
    return profiler


def calls_report(name: str, profiler: cProfile.Profile, units: int) -> None:
    """The region's primitive calls per unit, in total and by ledger layer.

    Read from the profiler's own entries, one per code object: ``pstats``
    keys a function by file, line and name, so two generated ``__init__``s
    compiled from ``<string>`` collapse into whichever entry comes last, and
    which one that is varies from run to run.
    """
    from ledger_layers import layer_of
    repro_dir = str(REPO / "src" / "repro") + os.sep
    calls = collections.Counter()
    for entry in profiler.getstats():
        filename = getattr(entry.code, "co_filename", "~")  # a str for builtins
        calls[layer_of(filename, repro_dir) or "stdlib"] += entry.callcount - entry.reccallcount
    layers = " ".join(f"{layer}={count / units:.2f}" for layer, count in sorted(calls.items()))
    print(f"CALLS {name} calls_per_unit={sum(calls.values()) / units:.2f} {layers}")


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


#: what the retained-bytes walk sizes and follows; anything else an entry
#: references (behaviours, classes, exceptions) is code or shared by everyone
PLAIN_DATA = (str, bytes, bytearray, int, float, dict, list, tuple, set, frozenset)
PAYLOAD_BYTES = 64


#: the owner the sites' durable stores are sized under, after everything else
STORES = "(site stores)"


def retained(kernel):
    """``({(owner, type name): bytes}, {id: [stored element, briefcases holding
    it]})`` for the ledger entries, site cabinets and site stores of *kernel*."""
    from repro.core import Briefcase, Folder
    from repro.core.agent import AgentInstance
    from repro.core.cabinet import FileCabinet
    from repro.core.lifecycle import AgentRecord
    import repro.store
    from repro.store import WriteAheadLog
    followed = PLAIN_DATA + (Briefcase, Folder, AgentInstance, AgentRecord, FileCabinet,
                             WriteAheadLog)
    # WalRecord: what a log that kept its records held, in older trees only
    if hasattr(repro.store, "WalRecord"):
        followed += (repro.store.WalRecord,)
    sizes, elements, seen = collections.Counter(), {}, set()

    def walk(root, owner):
        stack = [root]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or not isinstance(obj, followed):
                continue
            seen.add(id(obj))
            sizes[owner, type(obj).__name__] += sys.getsizeof(obj)
            stack.extend(gc.get_referents(obj))

    for engine in kernel.engines:
        for entry in engine.table.entries.values():
            walk(entry, entry.name)
            # None once retired (a record has no slot for it): only the
            # ledger's still running agents hold stored elements
            briefcase = getattr(entry, "briefcase", None)
            held = {id(element): element
                    for _name, stored in (briefcase.stored_items() if briefcase else ())
                    for element in stored}
            for key, element in held.items():  # once per briefcase holding it
                elements.setdefault(key, [element, 0])[1] += 1
        for site in engine.sites.values():
            if hasattr(site, "cabinets"):  # a process shard's are in its worker
                # Root the walk at objects that outlive it: a list freed after
                # one site's walk can come back at the same id for the next.
                for cabinet in site.cabinets():
                    walk(cabinet, "(site cabinets)")
    for engine in kernel.engines:  # last: what cabinets hold is counted already
        for store in getattr(engine, "stores", {}).values():
            walk(store.wal, STORES)
            walk(store.images, STORES)
    return sizes, elements


def mem_report(name: str, workload, inputs, top: int) -> None:
    """What one repetition's measured region leaves on the heap, and who holds it."""
    kernel = workload.build(inputs)
    try:
        sizes_before, elements_before = retained(kernel)
        started = time.perf_counter()
        workload.drive(kernel, inputs)
        wall_s = time.perf_counter() - started
        sizes, elements = retained(kernel)
    finally:
        kernel.close()
    units = inputs["units"]
    sizes.subtract(sizes_before)
    added = [entry for key, entry in elements.items() if key not in elements_before]
    payloads = sum(len(element) >= PAYLOAD_BYTES for element, _holders in added)
    shared = sum(holders > 1 for _element, holders in added)
    store = sum(size for (owner, _kind), size in sizes.items() if owner == STORES)
    total = sum(sizes.values()) - store
    print(f"{wall_s:.3f} s region, {units} units, no profiler attached")
    print(f"  {total / 2 ** 20:.1f} MiB retained by ledger entries and site cabinets "
          f"({total / units:.0f} bytes per unit), {store / 2 ** 20:.1f} MiB more by "
          f"site stores only")
    for (owner, kind), size in sizes.most_common(top):
        if size * 2 >= units:  # rounds to at least a byte per unit
            print(f"  {size / units:9.0f} per unit  {owner}: {kind}")
    print(f"  {len(added)} stored elements in briefcases, {payloads} of "
          f">= {PAYLOAD_BYTES} bytes, {shared} held by more than one briefcase")
    print(f"RETAINED {name} bytes_per_unit={total / units:.0f} "
          f"payload_copies_per_unit={payloads / units:.2f} shared_elements={shared} "
          f"store_bytes_per_unit={store / units:.0f}")


def rss_report(name: str, workload, inputs) -> None:
    """Peak resident sets of this process and of its largest reaped child."""
    kernel = workload.build(inputs)
    try:
        workload.drive(kernel, inputs)
    finally:
        kernel.close()
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(f"RSS {name} self_mb={self_kib / 1024:.1f} children_mb={children_kib / 1024:.1f}")


def hops_report(name: str, workload, inputs) -> None:
    """Hop executions of the region, and repeats no crash accounts for."""
    kernel = workload.build(inputs)
    try:
        workload.drive(kernel, inputs)
        log = kernel.event_log
    finally:
        kernel.close()
    crashes = collections.Counter()     # site -> its "site crashed" lines so far
    ran = {}                            # "ft_id seq=N" -> (site, its crashes then)
    executed = repeats = 0
    for _at, _agent, site, message in log:
        if message.startswith("site crashed"):
            crashes[site] += 1
        elif message.startswith("hop-exec "):
            executed += 1
            hop = message[len("hop-exec "):]
            if hop in ran and crashes[ran[hop][0]] == ran[hop][1]:
                repeats += 1
            ran[hop] = (site, crashes[site])
    units = inputs["units"]
    print(f"HOPS {name} executed_per_unit={executed / units:.2f} "
          f"distinct_per_unit={len(ran) / units:.2f} repeats_without_crash={repeats}")


def setup_region(name: str, seed: int, quick: bool, profile_path: str = "") -> None:
    """ledger_rep.py's ``setup_s`` region, run in a fresh interpreter.

    Prints its timings as one ``import_s build_s modules compiled`` line, or
    with *profile_path* runs it under cProfile and writes the stats there.
    """
    import hashlib, json  # noqa: E401,F401 -- what ledger_rep.py imports before its timer
    from importlib.machinery import SourceFileLoader
    compiled = []
    profiler = cProfile.Profile() if profile_path else None
    if profiler is not None:
        profiler.enable()
    else:
        # A loader compiles a module's source only when no usable bytecode
        # exists; count those calls (the wrapper is one Python frame each).
        source_to_code = SourceFileLoader.source_to_code

        def counted(loader, data, path, *args, **kwargs):
            compiled.append(path)
            return source_to_code(loader, data, path, *args, **kwargs)
        SourceFileLoader.source_to_code = counted
    started = time.perf_counter()
    import repro  # noqa: F401
    import ledger_layers  # noqa: F401
    import ledger_workloads
    import_s = time.perf_counter() - started
    if profiler is not None:
        profiler.disable()  # generating the inputs is outside setup_s
    workload = ledger_workloads.WORKLOADS[name]
    untimed = len(compiled)
    inputs = workload.generate(seed, ledger_workloads.QUICK if quick else ledger_workloads.FULL)
    untimed = len(compiled) - untimed
    if profiler is not None:
        profiler.enable()
    started = time.perf_counter()
    kernel = workload.build(inputs)
    build_s = time.perf_counter() - started
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(profile_path)
    modules = sum(module == "repro" or module.startswith("repro.") for module in sys.modules)
    kernel.close()
    if profiler is None:
        print(import_s, build_s, modules, len(compiled) - untimed)


def setup_report(name: str, seed: int, quick: bool, top: int, callers) -> None:
    """Time, then profile, ``setup_s``'s region, each in a fresh interpreter."""
    def run(profile_path: str = "") -> str:
        here = pathlib.Path(__file__).resolve()
        paths = [str(here.parent), str(REPO / "benchmarks" / "ledger"), str(REPO / "src")]
        code = (f"import sys; sys.path[:0] = {paths!r}; import {here.stem} as tool; "
                f"tool.setup_region({name!r}, {seed}, {quick}, {profile_path!r})")
        return subprocess.run([sys.executable, "-c", code], check=True,
                              stdout=subprocess.PIPE, text=True).stdout

    import_s, build_s, modules, compiled = run().split()
    print(f"SETUP {name} import_s={float(import_s):.3f} build_s={float(build_s):.3f} "
          f"modules={modules} compiled={compiled}")
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "setup.prof")
        run(path)
        report(pstats.Stats(path), top, callers)


def main(argv=None) -> int:
    sys.path[:0] = [str(REPO / "benchmarks" / "ledger"), str(REPO / "src")]
    import ledger_workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(ledger_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--top", type=int, metavar="N",
                        help="functions to list (default 20; with --gc or --mem: "
                             "surviving types / owners, default 10)")
    parser.add_argument("--callers", type=re.compile, metavar="PATTERN",
                        help="also print the caller edges of matching functions")
    parser.add_argument("--gc", action="store_true",
                        help="no profiler: collector runs and surviving "
                             "tracked objects of the region instead")
    parser.add_argument("--mem", action="store_true",
                        help="no profiler: bytes the region leaves retained, by "
                             "owner and type, and how stored elements are shared")
    parser.add_argument("--calls", action="store_true",
                        help="primitive calls per unit by ledger layer instead of "
                             "times: one CALLS line")
    parser.add_argument("--rss", action="store_true",
                        help="no profiler: peak resident sets of this process and "
                             "of its largest child (a shard worker): one RSS line")
    parser.add_argument("--setup", action="store_true",
                        help="the ledger's setup_s region (imports + build) in fresh "
                             "interpreters: one SETUP line, then its top functions")
    parser.add_argument("--hops", action="store_true",
                        help="no profiler: hop executions, distinct hops and repeats "
                             "no crash accounts for, from the event log: one HOPS line")
    parser.add_argument("--quick", action="store_true",
                        help="the ledger's tiny self-test populations")
    args = parser.parse_args(argv)
    if args.setup:
        setup_report(args.workload, args.seed, args.quick,
                     20 if args.top is None else args.top, args.callers)
        return 0
    workload = ledger_workloads.WORKLOADS[args.workload]
    inputs = workload.generate(
        args.seed, ledger_workloads.QUICK if args.quick else ledger_workloads.FULL)
    if args.gc or args.mem:
        (alloc_report if args.gc else mem_report)(
            args.workload, workload, inputs, 10 if args.top is None else args.top)
    elif args.rss:
        rss_report(args.workload, workload, inputs)
    elif args.hops:
        hops_report(args.workload, workload, inputs)
    elif args.calls:
        calls_report(args.workload, profile(workload, inputs), inputs["units"])
    else:
        report(pstats.Stats(profile(workload, inputs)),
               20 if args.top is None else args.top, args.callers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
