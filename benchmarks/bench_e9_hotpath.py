"""E9 — Kernel hot paths at high agent populations (ROADMAP scaling goal).

Claim: per-site queries (``agents_at``, ``site_load``) must cost
O(residents at the site), not O(every agent ever launched), or any
workload that keeps placing work by load — the paper's monitor/broker
scheduling service, the E9 balancer below — goes quadratic in the number
of agents served.

Two measurements:

* **query cost vs. history** — a kernel with a fixed resident population
  is driven through ever more launch/finish history; the per-query cost
  of the indexed path stays flat while the brute-force ledger scan (the
  pre-index implementation, kept as ``Engine._agents_at_scan`` for
  verification) grows linearly.  The acceptance gate asserts the indexed
  path is ≥5x faster at the 10k-agent point.
* **end-to-end throughput** — the 10k-agent / 20-site load-balancing
  scenario of :mod:`repro.bench.workloads` runs to completion on the
  indexed kernel; the pre-index wall time is modelled from the measured
  per-probe scan cost times the balancer's probe count.
"""

from __future__ import annotations

import time

import pytest

from repro.bench import Report
from repro.bench.workloads import HighPopulationParams, execute_high_population
from repro.core import Kernel, KernelConfig
from repro.net import lan

N_SITES = 20
RESIDENTS = 50
HISTORY_POINTS = (0, 2_000, 10_000)
#: acceptance floor for indexed vs scan per-query speedup at the 10k point
REQUIRED_SPEEDUP = 5.0


def _sleeper(ctx, bc):
    yield ctx.sleep(1_000)


def _transient(ctx, bc):
    yield ctx.sleep(0.001)


def _populated_kernel(history: int):
    """A 20-site kernel with RESIDENTS live agents and *history* finished ones."""
    sites = [f"node{i:02d}" for i in range(N_SITES)]
    kernel = Kernel(lan(sites), transport="tcp", config=KernelConfig(rng_seed=3))
    for index in range(RESIDENTS):
        kernel.launch(sites[index % N_SITES], _sleeper)
    kernel.run(until=0.1)
    if history:
        kernel.launch_many([(sites[index % N_SITES], _transient)
                            for index in range(history)])
        kernel.run(until=5.0)
    assert kernel.completed == history
    return kernel, sites


def _time_per_query(query, sites, repetitions: int) -> float:
    """Mean microseconds per single-site query over *repetitions* sweeps."""
    start = time.perf_counter()
    for _ in range(repetitions):
        for name in sites:
            query(name)
    elapsed = time.perf_counter() - start
    return elapsed / (repetitions * len(sites)) * 1e6


@pytest.fixture(scope="module")
def query_cost_rows():
    rows = []
    for history in HISTORY_POINTS:
        kernel, sites = _populated_kernel(history)
        indexed_us = _time_per_query(kernel.site_load, sites, repetitions=500)
        scan_us = _time_per_query(
            lambda name: kernel.site(name).load_metric(
                len(kernel.engines[0]._agents_at_scan(name))),
            sites, repetitions=20)
        rows.append((history, kernel.launched, RESIDENTS, indexed_us, scan_us))
    return rows


def test_e9_query_cost_independent_of_history(query_cost_rows, emit_report):
    report = Report("E9", "per-site query cost: resident index vs ledger scan")
    table = report.table(
        f"site_load per query ({N_SITES} sites, {RESIDENTS} residents)",
        ["finished history", "total launched", "residents",
         "indexed us", "scan us", "speedup"])
    for history, launched, residents, indexed_us, scan_us in query_cost_rows:
        table.add_row(history, launched, residents, round(indexed_us, 3),
                      round(scan_us, 3), round(scan_us / indexed_us, 1))
    table.add_note("scan is the pre-index implementation "
                   "(kept as Engine._agents_at_scan for verification)")
    emit_report(report)

    # The indexed path only sees residents: its cost must not track history.
    baseline = query_cost_rows[0][3]
    final = query_cost_rows[-1][3]
    assert final < baseline * 4, \
        f"indexed query cost grew with history: {baseline:.3f}us -> {final:.3f}us"
    # The scan pays for the full ledger and must be >= 5x slower at 10k.
    _, _, _, indexed_us, scan_us = query_cost_rows[-1]
    assert scan_us / indexed_us >= REQUIRED_SPEEDUP


def test_e9_high_population_throughput(benchmark, emit_report):
    params = HighPopulationParams(n_sites=N_SITES, n_agents=10_000, wave_size=500)
    start = time.perf_counter()
    kernel, result = execute_high_population(params)
    indexed_wall = time.perf_counter() - start

    assert result.agents_completed == result.agents_launched == params.n_agents
    # The balancer kept the placement even (the whole point of probing).
    assert result.placement_spread <= params.wave_size // params.n_sites * 2

    # Model the pre-index wall time: every balancer probe would have paid
    # the measured per-probe scan cost on this very kernel's final ledger.
    sites = params.site_names()
    scan_us = _time_per_query(
        lambda name: kernel.site(name).load_metric(
            len(kernel.engines[0]._agents_at_scan(name))),
        sites, repetitions=20)
    modelled_scan_wall = indexed_wall + result.load_queries * scan_us / 1e6

    report = Report("E9b", "10k-agent / 20-site load-balancing throughput")
    table = report.table("end-to-end run", ["kernel", "wall s", "agents/s"])
    table.add_row("indexed", round(indexed_wall, 2),
                  int(params.n_agents / indexed_wall))
    table.add_row("pre-index (modelled)", round(modelled_scan_wall, 2),
                  int(params.n_agents / modelled_scan_wall))
    table.add_note(f"{result.load_queries} load probes; modelled pre-index run "
                   f"charges each probe the measured {scan_us:.0f}us ledger scan")
    table.add_note(f"placement spread {result.placement_spread}, "
                   f"peak residents {result.peak_residents}, "
                   f"sim duration {result.sim_seconds:.2f}s")
    emit_report(report)

    assert modelled_scan_wall / indexed_wall >= REQUIRED_SPEEDUP

    # pytest-benchmark tracks a smaller configuration for regression history.
    benchmark(lambda: execute_high_population(
        HighPopulationParams(n_sites=10, n_agents=1_000, wave_size=200)))
