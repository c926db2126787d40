#!/usr/bin/env python3
"""The performance ledger: the repo's one benchmark.

Four agent-life workloads (``churn``, ``fanin_batched``, ``ft_durable``,
``churn_shards2``), the same end-to-end metrics on each, and a per-layer
table from a separately traced repetition.  See README.md beside this file.

    python3 benchmarks/ledger/run.py                       # everything, as tables
    python3 benchmarks/ledger/run.py --out A.json          # ... and keep the samples
    python3 benchmarks/ledger/run.py --compare A.json B.json
    python3 benchmarks/ledger/run.py --workload churn --seed 7 --seconds 20 --trace 0

The last form is what the benchmark driver runs; its last line of output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Every repetition is a fresh child interpreter (``ledger_rep.py``,
``PYTHONHASHSEED=0``).  End-to-end metrics summarise the untraced repetitions
of a run (median; fast-side quartile for the two host-time rates, see
``FAST_QUARTILE``); per-layer metrics come from one extra repetition under
``cProfile`` and never feed an end-to-end number.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from ledger_layers import LAYERS, NO_INCLUSIVE

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(os.path.dirname(LEDGER_DIR))
SRC_DIR = os.path.join(REPO_DIR, "src")

WORKLOADS = ("churn", "fanin_batched", "ft_durable", "churn_shards2")
DEFAULT_SEED = 1995
DEFAULT_SECONDS = 30
#: a run never summarises fewer untraced repetitions than this
MIN_REPS = 5
MIN_REPS_TRACED_RUN = 3
REP_TIMEOUT_S = 100

#: name -> (unit, better, regression bound as a share of the parent's median)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "units_per_s": ("1/s", "higher", 0.20),
    "cpu_us_per_unit": ("us", "lower", 0.20),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "sim_makespan_s": ("sim_s", "lower", 0.05),
}

#: Metrics a run reports as the quartile of its repetitions on the metric's
#: *fast* side instead of their median.  Timing noise on a shared host is
#: one-sided: neighbours slow a repetition down by 1.2-2x for seconds at a
#: time (no steal time shows; CPU seconds inflate with wall seconds) and
#: nothing ever speeds one up.  A run's median moves with the share of its
#: repetitions that were hit; the fast quartile does not until three
#: quarters are.  Over 130 back-to-back churn repetitions, cut into runs of
#: 14, the medians' interquartile range was 6.6% of their median and the fast
#: quartiles' 2.9%.
FAST_QUARTILE = ("units_per_s", "cpu_us_per_unit")

#: name -> (unit, better, how to compute it from a repetition's counts)
_COUNT_METRICS = {
    "net.simclock.events_per_unit": ("count", "lower", lambda c, u: c["events"] / u),
    "core.kernel.lives_per_unit": ("count", "lower", lambda c, u: c["launched"] / u),
    "core.kernel.meets_per_unit": ("count", "lower", lambda c, u: c["meets"] / u),
    "core.kernel.migrations_per_unit": ("count", "lower",
                                        lambda c, u: c["migrations"] / u),
    "core.codec.wire_bytes_per_unit": ("bytes", "lower",
                                       lambda c, u: c["bytes_sent"] / u),
    "net.transport.wire_msgs_per_unit": ("count", "lower",
                                         lambda c, u: c["messages_sent"] / u),
    "net.transport.msgs_per_batch": (
        "count", "higher",
        lambda c, u: c["batched_messages"] / c["batches"] if c["batches"] else 0.0),
    "net.transport.header_bytes_saved": ("bytes", "higher",
                                         lambda c, u: c["header_bytes_saved"]),
    "net.transport.early_flushes": ("count", "lower", lambda c, u: c["early_flushes"]),
    "net.transport.dropped_msgs": ("count", "lower", lambda c, u: c["messages_dropped"]),
    "net.transport.delivery_p50_sim_s": ("sim_s", "lower", lambda c, u: c["latency_p50"]),
    "net.transport.delivery_p99_sim_s": ("sim_s", "lower", lambda c, u: c["latency_p99"]),
    "flow.pairs": ("count", "lower", lambda c, u: c["flow_pairs"]),
    "store.wal_appends_per_unit": ("count", "lower", lambda c, u: c["wal_appends"] / u),
    "store.wal_bytes_per_unit": ("bytes", "lower",
                                 lambda c, u: c["wal_bytes_committed"] / u),
    "store.records_per_commit": (
        "count", "higher",
        lambda c, u: (c["wal_records_committed"] / c["wal_commits"]
                      if c["wal_commits"] else 0.0)),
    "store.barrier_piggybacks": ("count", "higher",
                                 lambda c, u: c["wal_barrier_piggybacks"]),
    "store.snapshots": ("count", "lower", lambda c, u: c["store_snapshots"]),
    "store.recoveries": ("count", "lower", lambda c, u: c["recoveries"]),
    "store.recovery_sim_s": ("sim_s", "lower", lambda c, u: c["recovery_seconds"]),
    "store.durable_folders_restored": ("count", "higher",
                                       lambda c, u: c["durable_folders_restored"]),
    "store.durable_folders_lost": ("count", "lower",
                                   lambda c, u: c["durable_folders_lost"]),
    "fault.killed_lives": ("count", "lower", lambda c, u: c["killed"]),
    "shard.handoffs_per_unit": ("count", "lower", lambda c, u: c["shard_handoffs"] / u),
    "shard.handoff_bytes_per_unit": ("bytes", "lower",
                                     lambda c, u: c["shard_handoff_bytes"] / u),
    "shard.rounds": ("count", "lower", lambda c, u: c.get("rounds", 0)),
    "shard.late_arrivals": ("count", "lower", lambda c, u: c["shard_late_arrivals"]),
    "shard.coord_overhead_s": ("s", "lower", lambda c, u: c.get("overhead_seconds", 0.0)),
    "shard.sync_s": ("s", "lower", lambda c, u: c.get("sync_seconds", 0.0)),
}


def _per_layer_table() -> Dict[str, tuple]:
    """name -> (unit, better) for every per-layer metric, in print order."""
    table: Dict[str, tuple] = {}
    for layer in LAYERS:
        table[f"{layer}.self_us_per_unit"] = ("us", "lower")
        table[f"{layer}.self_share"] = ("share", "lower")
        if layer not in NO_INCLUSIVE:
            table[f"{layer}.incl_us_per_unit"] = ("us", "lower")
    for name, (unit, better, _) in _COUNT_METRICS.items():
        table[name] = (unit, better)
    table["net.simclock.events_per_s"] = ("1/s", "higher")
    table["shard.speedup_vs_churn"] = ("x", "higher")
    table["driver.trace_overhead_x"] = ("x", "lower")
    return table


PER_LAYER = _per_layer_table()


# --------------------------------------------------------------------------
# running repetitions
# --------------------------------------------------------------------------

class LedgerError(Exception):
    """A repetition could not be run at all (as opposed to failing a check)."""


def run_rep(workload: str, seed: int, quick: bool, trace: bool) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; returns its JSON report."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [LEDGER_DIR, SRC_DIR] + [p for p in (env.get("PYTHONPATH"),) if p])
    command = [sys.executable, os.path.join(LEDGER_DIR, "ledger_rep.py"),
               "--workload", workload, "--seed", str(seed),
               "--quick", str(int(quick)), "--trace", str(int(trace))]
    # Its own session, so a hung repetition's shard workers die with it.
    child = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, err = child.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise LedgerError(f"{workload}: repetition exceeded {REP_TIMEOUT_S} s")
    if child.returncode != 0:
        raise LedgerError(f"{workload}: repetition exited {child.returncode}\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def _end_to_end_of(rep: Dict[str, Any]) -> Dict[str, float]:
    units = rep["units"]
    return {
        "setup_s": rep["setup_s"],
        "units_per_s": (units - rep["bad_units"]) / rep["wall_s"],
        "cpu_us_per_unit": rep["cpu_s"] / units * 1e6,
        "peak_rss_mb": rep["peak_rss_mb"],
        "sim_makespan_s": rep["sim_makespan_s"],
    }


def _per_layer_of(traced: Dict[str, Any], untraced_wall_s: float,
                  speedup_vs_churn: float) -> Dict[str, float]:
    units = traced["units"]
    self_s, incl_s = traced["layers"]["self_s"], traced["layers"]["incl_s"]
    total = sum(self_s.values())
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_us_per_unit"] = self_s[layer] / units * 1e6
        values[f"{layer}.self_share"] = self_s[layer] / total
        if layer not in NO_INCLUSIVE:
            values[f"{layer}.incl_us_per_unit"] = incl_s[layer] / units * 1e6
    counts = dict(traced["counts"], events=traced["events"])
    for name, (_unit, _better, compute) in _COUNT_METRICS.items():
        values[name] = compute(counts, units)
    values["net.simclock.events_per_s"] = traced["events"] / untraced_wall_s
    values["shard.speedup_vs_churn"] = speedup_vs_churn
    values["driver.trace_overhead_x"] = traced["wall_s"] / untraced_wall_s
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False) -> Dict[str, Any]:
    """One run: untraced repetitions for *seconds*, then (trace) a traced one.

    Returns ``{"correct", "attempted", "failed", "problems", "fingerprint",
    "samples": {metric: [per-repetition values]}, "per_layer": {...}}``.
    """
    started = time.perf_counter()
    budget = seconds / 2 if trace else seconds
    min_reps = 1 if quick else (MIN_REPS_TRACED_RUN if trace else MIN_REPS)
    problems: List[str] = []
    reps: List[Dict[str, Any]] = []
    reference: List[Dict[str, Any]] = []  # unsharded churn, same seed

    def more() -> bool:
        if len(reps) < min_reps:
            return True
        # Start another repetition only if it should end inside the budget.
        elapsed = time.perf_counter() - started
        return not quick and elapsed + elapsed / len(reps) <= budget

    while more():
        # churn_shards2 must reproduce churn's ledger, so it needs churn's:
        # one reference repetition per run, or one per repetition when the
        # traced run also reports the pair's throughput ratio.
        if workload == "churn_shards2" and (trace or not reference):
            reference.append(run_rep("churn", seed, quick, trace=False))
        reps.append(run_rep(workload, seed, quick, trace=False))
    traced = run_rep(workload, seed, quick, trace=True) if trace else None

    everyone = reps + ([traced] if traced else [])
    fingerprints = {rep["sim_fingerprint"] for rep in everyone}
    if len(fingerprints) != 1:
        problems.append(f"sim_fingerprint differs between repetitions: "
                        f"{sorted(fingerprints)}")
    for rep in everyone:
        problems.extend(rep["problems"])
    if reference and reference[0]["counters"] != reps[0]["counters"]:
        problems.append(f"counters differ from churn's: {reps[0]['counters']} "
                        f"vs {reference[0]['counters']}")

    per_rep = [_end_to_end_of(rep) for rep in reps]
    samples = {name: [values[name] for values in per_rep] for name in END_TO_END}
    result = {
        "workload": workload,
        "seed": seed,
        "comparable": reps[0]["comparable"],
        "attempted": sum(rep["units"] for rep in reps),
        "failed": sum(rep["bad_units"] for rep in reps),
        "problems": problems,
        "fingerprint": reps[0]["sim_fingerprint"],
        "samples": samples,
    }
    result["correct"] = not problems and result["failed"] == 0
    if traced is not None:
        wall = statistics.median(rep["wall_s"] for rep in reps)
        speedup = (statistics.median(r["wall_s"] for r in reference) / wall
                   if reference else 0.0)
        result["per_layer"] = _per_layer_of(traced, wall, speedup)
    return result


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------

def _summary(name: str, values: List[float]) -> Dict[str, float]:
    """What a run reports for end-to-end metric *name* (``value``), and the
    median, quartiles and count of its per-repetition *values*."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    if name in FAST_QUARTILE:
        value = q3 if END_TO_END[name][1] == "higher" else q1
    else:
        value = median
    return {"value": value, "median": median, "q1": q1, "q3": q3,
            "n": len(values)}


def print_end_to_end(result: Dict[str, Any]) -> None:
    tag = "" if result["comparable"] else "  [--quick: NOT comparable]"
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"sim_fingerprint={result['fingerprint'][:16]}{tag}")
    for name, (unit, better, bound) in END_TO_END.items():
        s = _summary(name, result["samples"][name])
        print(f"  {name:<18} {s['value']:>14.6g} {unit:<6} "
              f"(median {s['median']:.6g}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, "
              f"n={s['n']}; {better} is better, bound {bound:.0%})")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<18} {failed_frac:>14.6g} {'share':<6} "
          f"({result['failed']} of {result['attempted']} units)")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def print_per_layer(result: Dict[str, Any]) -> None:
    values = result["per_layer"]
    print(f"-- {result['workload']}: per-layer, from the traced repetition")
    print(f"  {'layer':<14} {'self us/unit':>13} {'self share':>11} {'incl us/unit':>13}")
    for layer in LAYERS:
        incl = values.get(f"{layer}.incl_us_per_unit")
        print(f"  {layer:<14} {values[layer + '.self_us_per_unit']:>13.3f} "
              f"{values[layer + '.self_share']:>11.4f} "
              f"{'' if incl is None else format(incl, '13.3f'):>13}")
    for name, (unit, _better) in PER_LAYER.items():
        if not name.endswith(("self_us_per_unit", "self_share", "incl_us_per_unit")):
            print(f"  {name:<40} {values[name]:>16.6g} {unit}")


def driver_line(result: Dict[str, Any], trace: bool) -> str:
    """The one-line JSON object the benchmark driver reads."""
    if trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, (unit, _better) in PER_LAYER.items()}
    else:
        metrics = {name: {"value": _summary(name, result["samples"][name])["value"],
                          "unit": unit}
                   for name, (unit, _better, _bound) in END_TO_END.items()}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


# --------------------------------------------------------------------------
# --compare: the null control, generalised
# --------------------------------------------------------------------------

def verdict(name: str, base: List[float], change: List[float]) -> str:
    """``same | better | worse | unresolved`` for metric *name* on one workload."""
    _unit, better, bound = END_TO_END[name]
    sign = -1.0 if better == "higher" else 1.0  # worse = larger after sign
    a, b = _summary(name, base), _summary(name, change)
    scale = abs(a["value"]) or 1.0
    worse_by = sign * (b["value"] - a["value"]) / scale
    spread = max((a["q3"] - a["q1"]) / scale,
                 (b["q3"] - b["q1"]) / (abs(b["value"]) or 1.0))
    all_better = max(sign * x for x in change) < min(sign * x for x in base)
    all_worse = min(sign * x for x in change) > max(sign * x for x in base)
    if all_better and -worse_by > (a["q3"] - a["q1"]) / scale:
        return "better"
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    return "worse" if worse_by > bound else "same"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    print(f"base   A = {path_a}  ({a['stamp']})")
    print(f"change B = {path_b}  ({b['stamp']})")
    worse = 0
    for workload in WORKLOADS:
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        moved = "" if wa["fingerprint"] == wb["fingerprint"] else \
            "  (sim_fingerprint differs: modelled behaviour moved)"
        print(f"== {workload}{moved}")
        for name, (unit, better, bound) in END_TO_END.items():
            sa = _summary(name, wa["samples"][name])
            sb = _summary(name, wb["samples"][name])
            outcome = verdict(name, wa["samples"][name], wb["samples"][name])
            worse += outcome == "worse"
            ratio = sb["value"] / sa["value"] if sa["value"] else float("nan")
            print(f"  {name:<16} A {sa['value']:.6g} [{sa['q1']:.6g}, {sa['q3']:.6g}] "
                  f"n={sa['n']}  B {sb['value']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}] "
                  f"n={sb['n']}  {unit}  B/A {ratio:.4f} (base A {sa['value']:.6g})  "
                  f"bound {bound:.0%} {better}-is-better  -> {outcome}")
    print(f"{worse} worse")
    return 1 if worse else 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload and end with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="feeds the workload generators only")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long one run keeps starting repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny populations, one repetition: self-test only")
    parser.add_argument("--out", help="write every sample as JSON (for --compare)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"error: the library is not at {SRC_DIR}", file=sys.stderr)
        return 2

    try:
        if args.workload:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.quick)
            print_end_to_end(result)
            if args.trace:
                print_per_layer(result)
            print(driver_line(result, bool(args.trace)))
            return 0 if result["correct"] else 1

        report = {"stamp": {"python": platform.python_version(),
                            "nproc": os.cpu_count(), "seed": args.seed,
                            "seconds": args.seconds, "quick": args.quick},
                  "workloads": {}}
        ok = True
        for workload in WORKLOADS:
            result = run_workload(workload, args.seed, args.seconds, False, args.quick)
            print_end_to_end(result)
            traced = run_workload(workload, args.seed, args.seconds, True, args.quick)
            print_per_layer(traced)
            for problem in traced["problems"]:
                print(f"  CHECK FAILED (traced run): {problem}")
            if traced["fingerprint"] != result["fingerprint"]:
                print("  CHECK FAILED: traced run's sim_fingerprint differs")
                ok = False
            ok = ok and result["correct"] and traced["correct"]
            result["per_layer"] = traced["per_layer"]
            report["workloads"][workload] = result
    except LedgerError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
