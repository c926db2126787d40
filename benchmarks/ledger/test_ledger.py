"""Self-test of the ledger benchmark on its --quick population.

Asserts structure and determinism only — never a timing — so it cannot flake
on a loaded host.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import run
from repro.shard.backend import process_backend_available

pytestmark = pytest.mark.skipif(
    not process_backend_available(),
    reason="churn_shards2 needs spawn-context multiprocessing")

RUN_PY = os.path.join(run.LEDGER_DIR, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args):
    return subprocess.run([sys.executable, RUN_PY, *args], capture_output=True,
                          text=True, timeout=120)


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(run.REPO_DIR, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One full --quick run: (completed process, path of its --out file)."""
    out = str(tmp_path_factory.mktemp("ledger") / "quick.json")
    return _run("--quick", "--out", out), out


def test_manifest_meets_the_contract_and_matches_the_runner(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert manifest["paths"] == ["benchmarks/ledger"]
    assert 1 <= manifest["run_seconds"] <= 60
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in manifest["workloads"])
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]} == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert run.END_TO_END["setup_s"][:2] == ("s", "lower")
    assert {m["name"]: (m["unit"], m["better"])
            for m in manifest["per_layer"]} == run.PER_LAYER
    assert len(manifest["per_layer"]) <= 128
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"])
               for m in manifest["end_to_end"] + manifest["per_layer"])


def test_quick_run_prints_every_metric_and_passes_its_checks(quick, manifest):
    process, out = quick
    assert process.returncode == 0, process.stdout + process.stderr
    assert "all checks passed" in process.stdout
    assert "NOT comparable" in process.stdout
    with open(out) as handle:
        report = json.load(handle)
    assert report["stamp"]["quick"] is True
    assert list(report["workloads"]) == list(run.WORKLOADS)
    for workload, result in report["workloads"].items():
        assert result["correct"] and result["failed"] == 0 and not result["problems"]
        assert result["attempted"] >= 1 and result["comparable"] is False
        for metric in manifest["end_to_end"]:
            values = result["samples"][metric["name"]]
            assert values and all(value > 0 for value in values), (workload, metric)
            assert f"{metric['name']:<18}" in process.stdout
        for metric in manifest["per_layer"]:
            assert metric["name"] in result["per_layer"], (workload, metric)
        shares = sum(value for name, value in result["per_layer"].items()
                     if name.endswith(".self_share"))
        assert shares == pytest.approx(1.0, abs=0.02)
    layers = report["workloads"]
    assert layers["fanin_batched"]["per_layer"]["net.transport.msgs_per_batch"] > 1
    assert layers["ft_durable"]["per_layer"]["store.incl_us_per_unit"] > 0
    assert layers["ft_durable"]["per_layer"]["store.recoveries"] > 0
    assert layers["churn_shards2"]["per_layer"]["shard.handoffs_per_unit"] > 0
    assert layers["churn"]["per_layer"]["shard.self_share"] == 0


def test_fingerprint_follows_the_seed_and_nothing_else(quick):
    with open(quick[1]) as handle:
        report = json.load(handle)
    for workload in run.WORKLOADS:
        base = report["workloads"][workload]
        # Same seed => same fingerprint is the runner's own check: the full
        # run above compared every repetition of its untraced and traced runs.
        other = run.run_workload(workload, base["seed"] + 1, 0, False, quick=True)
        assert other["fingerprint"] != base["fingerprint"]
        assert other["correct"]


@pytest.mark.parametrize("trace, table", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_mode_ends_with_the_contract_line(manifest, trace, table):
    process = _run("--quick", "--workload", "fanin_batched", "--seed", "3",
                   "--seconds", "1", "--trace", str(trace))
    assert process.returncode == 0, process.stdout + process.stderr
    line = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: value["unit"] for name, value in line["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in manifest[table]}
    assert all(isinstance(value["value"], (int, float))
               for value in line["metrics"].values())


def test_compare_of_a_file_with_itself_is_all_same(quick):
    process = _run("--compare", quick[1], quick[1])
    assert process.returncode == 0, process.stdout + process.stderr
    verdicts = re.findall(r"-> (\w+)", process.stdout)
    assert len(verdicts) == len(run.WORKLOADS) * len(run.END_TO_END)
    assert set(verdicts) == {"same"}


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    shift = lambda by: [value * by for value in base]
    # peak_rss_mb: lower is better, bound 10%; units_per_s: higher, bound 20%
    assert run.verdict("peak_rss_mb", base, base) == "same"
    assert run.verdict("peak_rss_mb", base, shift(1.05)) == "same"
    assert run.verdict("peak_rss_mb", base, shift(1.20)) == "worse"
    assert run.verdict("peak_rss_mb", base, shift(0.80)) == "better"
    assert run.verdict("units_per_s", base, shift(0.75)) == "worse"
    assert run.verdict("units_per_s", base, shift(0.85)) == "same"
    assert run.verdict("units_per_s", base, shift(1.20)) == "better"
    noisy = [70.0, 130.0, 85.0, 115.0, 100.0]
    assert run.verdict("peak_rss_mb", noisy, [value * 1.15 for value in noisy]) \
        == "unresolved"


def test_host_time_rates_report_their_fast_quartile():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0]
    assert run._summary("units_per_s", values)["value"] == 15.0     # higher is faster
    assert run._summary("cpu_us_per_unit", values)["value"] == 11.0  # lower is faster
    assert run._summary("setup_s", values)["value"] == 13.0          # the median
