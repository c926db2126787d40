#!/usr/bin/env python3
"""Paired ledger repetitions of two source trees: alternated, every pair printed.

    python3 tools/ledger_pair.py PARENT CHANGE --workload churn --seed 7 --pairs 10
    python3 tools/ledger_pair.py PARENT CHANGE --workload churn --workload ft_durable
    python3 tools/ledger_pair.py . . --workload churn --quick --pairs 1     # null control
    python3 tools/ledger_pair.py PARENT . --workload churn --pairs 10 \\
        --pr 26 --append BENCH_ledger.json

PARENT and CHANGE are two checkouts of this repository (say, a ``git clone``
of the parent commit beside the working tree).  Before the first pair each
tree is compiled once into its own ``PYTHONPYCACHEPREFIX`` under a temporary
directory (``compileall`` of its ``src`` and ``benchmarks/ledger``, timed and
printed, then one ``--quick`` repetition per workload, which writes the
bytecode of the standard-library modules a repetition imports), so every
measured repetition loads bytecode: neither ``setup_s`` nor ``peak_rss_mb``
carries the compiler reading a tree's source text.  Pair *i* runs one
repetition of ``benchmarks/ledger/ledger_rep.py`` from each tree, each in a
fresh interpreter as ``benchmarks/ledger/run.py`` does, the parent first in
odd pairs and the change first in even ones, so a slow spell of a shared host
lands on both sides.  It prints every pair's five end-to-end metrics (those
``BENCHMARK.json`` lists), parent -> change; then per side their median
[q1, q3] and in how many pairs the change was better; then each side's
``sim_fingerprint`` and, where they differ, the fingerprint inputs that
moved (``events``, ``counters.<key>``, integer ``counts.<key>``); last each
side's median ``host_ref_us``: before every repetition this process times
one fixed pure-Python loop, in CPU microseconds.  It reads the host's
weather (a slow spell moves it and the time columns together) and is never
a basis for a claim.

``--append FILE`` records the run in the JSON trajectory FILE, one row per
``--pr``: both trees' git SHAs (``dirty`` when the change tree has
uncommitted edits), the host, and per workload and seed the change side's
median / q1 / q3 / n of each metric beside the parent's, the wins, both
sides' ``host_ref_us``, the fingerprint, the change tree's ``ALLOC`` and ``RETAINED`` lines
(``tools/hot_functions.py --gc`` / ``--mem``) and both trees' ``CALLS`` lines
(``--calls``, counted for each tree by the change tree's copy of the tool, so
a parent older than the flag is measured too); the row also carries its
``SIZE`` line (``tools/size_report.py``).  Appending to a PR that already
has a row merges into it.  Needs no ``PYTHONPATH``.
"""

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
#: metric -> "lower" | "higher", in the benchmark's own order
END_TO_END = {metric["name"]: metric["better"] for metric in
              json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}
REP_TIMEOUT_S = 100
#: iterations of the loop ``host_ref_us`` times
HOST_REF_LOOPS = 200_000
#: ``python3 -c`` program: run TOOLS/hot_functions.py over the sources of TREE
#: (its two leading arguments) with the remaining arguments
ON_TREE = ("import pathlib, sys; sys.path.insert(0, sys.argv.pop(1)); import hot_functions; "
           "hot_functions.REPO = pathlib.Path(sys.argv.pop(1)); sys.exit(hot_functions.main())")


def tree_env(tree: pathlib.Path, prefix: pathlib.Path) -> dict:
    """The environment a repetition from *tree* runs in, bytecode under *prefix*."""
    return dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(prefix),
                PYTHONPATH=os.pathsep.join(
                    [str(tree / "benchmarks" / "ledger"), str(tree / "src")]
                    + [p for p in (os.environ.get("PYTHONPATH"),) if p]))


def compile_tree(tree: pathlib.Path, prefix: pathlib.Path, workloads: list,
                 seed: int) -> float:
    """Write under *prefix* the bytecode of every module a repetition from
    *tree* imports; the seconds compiling the tree's own sources took."""
    env = tree_env(tree, prefix)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(tree / "src"), str(tree / "benchmarks" / "ledger")],
                   env=env, stdout=subprocess.DEVNULL, check=True)
    seconds = time.perf_counter() - start
    for workload in workloads:      # the standard library's share, written on import
        run_rep(tree, workload, seed, True, env)
    return seconds


def run_rep(tree: pathlib.Path, workload: str, seed: int, quick: bool, env: dict) -> dict:
    """One ledger repetition from *tree*, in a fresh interpreter: its JSON."""
    ledger = tree / "benchmarks" / "ledger"
    # Its own session, so a hung repetition's shard workers die with it.
    child = subprocess.Popen(
        [sys.executable, str(ledger / "ledger_rep.py"), "--workload", workload,
         "--seed", str(seed), "--quick", str(int(quick)), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = child.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        sys.exit(f"{tree}: {workload} repetition exceeded {REP_TIMEOUT_S} s")
    if child.returncode != 0:
        sys.exit(f"{tree}: {workload} repetition exited {child.returncode}\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def host_ref_us() -> float:
    """CPU microseconds one fixed pure-Python loop takes in this process, now."""
    start = time.process_time()
    total = 0
    for index in range(HOST_REF_LOOPS):
        total += index * index % 7
    return (time.process_time() - start) * 1e6


def end_to_end(rep: dict) -> dict:
    """The five metrics of one repetition, computed as ``run.py`` does."""
    units = rep["units"]
    return {"setup_s": rep["setup_s"],
            "units_per_s": (units - rep["bad_units"]) / rep["wall_s"],
            "cpu_us_per_unit": rep["cpu_s"] / units * 1e6,
            "peak_rss_mb": rep["peak_rss_mb"],
            "sim_makespan_s": rep["sim_makespan_s"]}


def summary(values: list) -> dict:
    """Median, quartiles (as ``run.py`` takes them) and count, to 6 digits."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": float(f"{statistics.median(values):.6g}"),
            "q1": float(f"{q1:.6g}"), "q3": float(f"{q3:.6g}"), "n": len(values)}


def better(metric: str, change: float, parent: float) -> bool:
    return change < parent if END_TO_END[metric] == "lower" else change > parent


def fingerprint_inputs(rep: dict) -> dict:
    """What ``ledger_rep.py`` hashes into ``sim_fingerprint``, flat."""
    inputs = {"events": rep["events"]}
    inputs.update((f"counters.{key}", value) for key, value in rep["counters"].items())
    inputs.update((f"counts.{key}", value) for key, value in rep["counts"].items()
                  if type(value) is int)
    return inputs


def moved_keys(parent: dict, change: dict) -> list:
    """``key (parent -> change)`` for every fingerprint input that differs."""
    before, after = fingerprint_inputs(parent), fingerprint_inputs(change)
    return [f"{key} ({before.get(key)} -> {after.get(key)})"
            for key in sorted(before.keys() | after.keys())
            if before.get(key) != after.get(key)]


def compare(trees: dict, envs: dict, workload: str, seed: int, pairs: int,
            quick: bool) -> dict:
    """Run and print *pairs* alternated pairs; the trajectory entry for them."""
    print(f"== {workload} seed={seed} pairs={pairs}{'  [--quick: NOT comparable]' * quick}"
          f"  parent={trees['parent']}  change={trees['change']}")
    reps = {"parent": [], "change": []}
    refs = {"parent": [], "change": []}
    for index in range(pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            refs[side].append(host_ref_us())
            reps[side].append(run_rep(trees[side], workload, seed, quick, envs[side]))
        parent, change = (end_to_end(reps[side][-1]) for side in ("parent", "change"))
        print(f"  pair {index + 1:2d} (first: {order[0]}) " + "  ".join(
            f"{metric} {parent[metric]:.5g}->{change[metric]:.5g}" for metric in END_TO_END))
    values = {side: [end_to_end(rep) for rep in reps[side]] for side in reps}
    entry = {"pairs": pairs, "quick": quick, "change": {}, "parent": {}, "wins": {}}
    for metric in END_TO_END:
        for side in reps:
            entry[side][metric] = summary([row[metric] for row in values[side]])
        entry["wins"][metric] = sum(better(metric, c[metric], p[metric])
                                    for p, c in zip(values["parent"], values["change"]))
        parent, change = entry["parent"][metric], entry["change"][metric]
        shift = (change["median"] / parent["median"] - 1) * 100 if parent["median"] else 0.0
        print(f"  {metric:16s} parent {parent['median']:.6g} [{parent['q1']:.6g}, "
              f"{parent['q3']:.6g}]  change {change['median']:.6g} [{change['q1']:.6g}, "
              f"{change['q3']:.6g}]  {shift:+.1f}%  change better in "
              f"{entry['wins'][metric]}/{pairs}")
    for side in reps:
        failed = sum(rep["bad_units"] for rep in reps[side])
        problems = sorted({problem for rep in reps[side] for problem in rep["problems"]})
        if failed or problems:
            print(f"  {side}: {failed} failed units; {problems}")
        prints = sorted({rep["sim_fingerprint"][:16] for rep in reps[side]})
        if len(prints) > 1:
            print(f"  {side}: sim_fingerprint differs between its repetitions: {prints}")
    entry["parent_fingerprint"] = reps["parent"][0]["sim_fingerprint"][:16]
    entry["fingerprint"] = reps["change"][0]["sim_fingerprint"][:16]
    entry["moved_keys"] = moved_keys(reps["parent"][0], reps["change"][0])
    print(f"  sim_fingerprint parent {entry['parent_fingerprint']}  change "
          f"{entry['fingerprint']}  moved keys: {len(entry['moved_keys'])}")
    for key in entry["moved_keys"]:
        print(f"    {key}")
    entry["parent_host_ref_us"], entry["host_ref_us"] = (
        float(f"{statistics.median(refs[side]):.6g}") for side in ("parent", "change"))
    print(f"  host_ref_us parent {entry['parent_host_ref_us']:.6g}  change "
          f"{entry['host_ref_us']:.6g}  (host weather, not a claim)")
    return entry


def last_line(tree: pathlib.Path, *args: str) -> str:
    """The last line ``python3 ARGS`` prints, run in *tree*."""
    done = subprocess.run([sys.executable, *args], cwd=tree,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip().splitlines()[-1]


def git_state(tree: pathlib.Path) -> dict:
    def git(*args):
        try:
            return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                                  text=True).stdout.strip()
        except OSError:  # no git on this host: the row says so with a null SHA
            return ""
    return {"sha": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def dumps(value, indent: str = "") -> str:
    """JSON with every object or list that holds no other on one line."""
    inner = indent + " "
    if isinstance(value, dict) and any(isinstance(v, (dict, list)) for v in value.values()):
        return "{\n" + ",\n".join(f"{inner}{json.dumps(key)}: {dumps(item, inner)}"
                                  for key, item in value.items()) + f"\n{indent}}}"
    if isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        return "[\n" + ",\n".join(inner + dumps(item, inner)
                                  for item in value) + f"\n{indent}]"
    return json.dumps(value)


def append(path: pathlib.Path, pr: int, trees: dict, seed: int, measured: dict,
           quick: bool) -> None:
    """Merge *measured* (workload -> entry, at *seed*) into *pr*'s row of *path*."""
    rows = json.loads(path.read_text()) if path.exists() else []
    row = next((row for row in rows if row["pr"] == pr and row["source"] == "ledger_pair"),
               None)
    if row is None:
        row = dict.fromkeys(("pr", "source", "sha", "dirty", "parent_sha", "host", "size",
                             "seeds", "workloads"))
        row.update(pr=pr, source="ledger_pair", workloads={})
        rows.append(row)
    change, parent = git_state(trees["change"]), git_state(trees["parent"])
    row.update(sha=change["sha"], dirty=change["dirty"], parent_sha=parent["sha"],
               host={"nproc": os.cpu_count(), "python": platform.python_version(),
                     "platform": platform.platform()},
               size=last_line(trees["change"], str(trees["change"] / "tools" / "size_report.py")))
    tools = trees["change"] / "tools"
    for workload, entry in measured.items():
        args = (workload, "--seed", str(seed)) + (("--quick",) if quick else ())
        for key, flag in (("alloc", "--gc"), ("retained", "--mem")):
            entry[key] = last_line(trees["change"], str(tools / "hot_functions.py"), *args,
                                   flag, "--top", "0")
        for key, side in (("parent_calls", "parent"), ("calls", "change")):
            entry[key] = last_line(trees[side], "-c", ON_TREE, str(tools), str(trees[side]),
                                   *args, "--calls")
        print(f"  {entry['parent_calls']}\n  {entry['calls']}")
        row["workloads"].setdefault(workload, {})[str(seed)] = entry
    row["seeds"] = sorted({int(seed) for by_seed in row["workloads"].values()
                           for seed in by_seed})
    path.write_text(dumps(rows) + "\n")
    print(f"appended to {path}: PR {pr}, {sorted(measured)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path, help="the parent tree")
    parser.add_argument("change", type=pathlib.Path, help="the change tree")
    parser.add_argument("--workload", action="append", required=True,
                        help="a ledger workload (repeat for several)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--quick", action="store_true",
                        help="the ledger's tiny self-test populations (not comparable)")
    parser.add_argument("--append", type=pathlib.Path, metavar="FILE",
                        help="record the run in this JSON trajectory (needs --pr)")
    parser.add_argument("--pr", type=int, help="the PR number the row is for")
    args = parser.parse_args(argv)
    if args.append is not None and args.pr is None:
        parser.error("--append needs --pr")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory(prefix="ledger_pair-") as scratch:
        envs = {}
        for side, tree in trees.items():
            prefix = pathlib.Path(scratch) / side
            seconds = compile_tree(tree, prefix, args.workload, args.seed)
            print(f"compiled {side} {tree} in {seconds:.3f} s (bytecode under {prefix})")
            envs[side] = tree_env(tree, prefix)
        measured = {workload: compare(trees, envs, workload, args.seed, args.pairs,
                                      args.quick)
                    for workload in args.workload}
    if args.append is not None:
        append(args.append, args.pr, trees, args.seed, measured, args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
