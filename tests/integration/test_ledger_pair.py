"""``tools/ledger_pair.py``, the paired-repetition runner, held to a null control.

One tree on both sides at the ledger's ``--quick`` populations: the pair
runs, every end-to-end metric is summarised per side, the trajectory row is
written, and no fingerprint input moved.  That tree is a ``git clone`` of
``HEAD``, because ``--append`` refuses a tree with uncommitted source edits,
which the working tree under test may have.  The ``CALLS`` line the row carries
is exact: it repeats over runs and hash seeds.  ``hot_functions.py --rss``
reads both processes a ``churn_shards2`` memory claim can be in,
``--setup`` splits ``setup_s`` into its imports and build, and ``--hops``
counts the hops the region ran.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro

REPO = pathlib.Path(repro.__file__).resolve().parents[2]
TOOL = REPO / "tools" / "ledger_pair.py"
METRICS = ("setup_s", "units_per_s", "cpu_us_per_unit", "peak_rss_mb", "sim_makespan_s")

pytestmark = pytest.mark.one_engine(
    reason="drives tools/*.py in subprocesses, which the 2xinproc patch of "
           "Kernel.__init__ never reaches: a second run would repeat the first")


@pytest.fixture
def clone(tmp_path) -> pathlib.Path:
    """A ``git clone`` of this repository's ``HEAD``: every tracked file committed."""
    tree = tmp_path / "tree"
    subprocess.run(["git", "clone", "--quiet", str(REPO), str(tree)], check=True,
                   capture_output=True, timeout=60)
    return tree


def test_one_tree_on_both_sides_moves_no_key(tmp_path, clone):
    trajectory = tmp_path / "BENCH_ledger.json"
    done = subprocess.run(
        [sys.executable, str(TOOL), str(clone), str(clone), "--workload", "churn",
         "--quick", "--pairs", "1", "--pr", "0", "--append", str(trajectory)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "moved keys: 0" in done.stdout, done.stdout
    assert all(f"  {metric} " in done.stdout for metric in METRICS), done.stdout
    (row,) = json.loads(trajectory.read_text())
    assert (row["pr"], row["source"], row["seeds"]) == (0, "ledger_pair", [7])
    assert (row["sha"], row["dirty"]) == (row["parent_sha"], False)
    assert row["size"].startswith("SIZE src_lines=")
    entry = row["workloads"]["churn"]["7"]
    assert entry["moved_keys"] == [] and entry["fingerprint"] == entry["parent_fingerprint"]
    assert set(entry["change"]) == set(entry["parent"]) == set(entry["wins"]) == set(METRICS)
    assert entry["change"]["sim_makespan_s"] == entry["parent"]["sim_makespan_s"]
    assert entry["alloc"].startswith("ALLOC churn survivors_per_unit=")
    assert entry["retained"].startswith("RETAINED churn bytes_per_unit=")
    assert entry["calls"] == entry["parent_calls"]
    assert entry["calls"].startswith("CALLS churn calls_per_unit=")
    assert entry["host_ref_us"] > 0 and entry["parent_host_ref_us"] > 0
    assert "  host_ref_us parent " in done.stdout, done.stdout
    assert all(f"compiled {side} {clone} in " in done.stdout
               for side in ("parent", "change")), done.stdout


def test_append_refuses_a_tree_whose_one_edit_is_a_src_file(tmp_path, clone):
    # A row names its trees by SHA; an edited src/ file is a tree no SHA
    # names, so nothing is run and nothing is written.  One unstaged edit,
    # and nothing else, is the commonest such tree.
    trajectory = tmp_path / "BENCH_ledger.json"
    with open(clone / "src" / "repro" / "core" / "kernel.py", "a", encoding="utf-8") as handle:
        handle.write("# an uncommitted edit\n")
    done = subprocess.run(
        [sys.executable, str(TOOL), str(clone), str(clone), "--workload", "churn",
         "--quick", "--pairs", "1", "--pr", "0", "--append", str(trajectory)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "--append refused" in done.stderr
    assert "src/repro/core/kernel.py" in done.stderr, done.stderr
    assert "compiled" not in done.stdout and not trajectory.exists()


def test_only_tracked_source_edits_block_an_append(clone):
    # An edited record leaves the measured code as its SHA names it (the row
    # only says dirty); a tracked edit under src/ or benchmarks/ledger/,
    # staged or not, does not, and each one is named.
    tool = load_tool()
    assert tool.source_edits(clone) == []
    for record in ("CHANGES.md", "ROADMAP.md", "docs/architecture.md"):
        with open(clone / record, "a", encoding="utf-8") as handle:
            handle.write("a record edit\n")
    assert tool.source_edits(clone) == []
    assert tool.git_state(clone)["dirty"] is True
    sources = ["benchmarks/ledger/ledger_workloads.py", "src/repro/core/kernel.py"]
    for source in sources:
        with open(clone / source, "a", encoding="utf-8") as handle:
            handle.write("# an uncommitted edit\n")
    subprocess.run(["git", "-C", str(clone), "add", sources[0]], check=True, timeout=60)
    assert sorted(tool.source_edits(clone)) == sources


@pytest.mark.parametrize("workload", ["churn", "ft_durable"])
def test_calls_per_unit_repeats_across_runs_and_hash_seeds(workload):
    def calls(hash_seed):
        done = subprocess.run(
            [sys.executable, str(REPO / "tools" / "hot_functions.py"), workload, "--quick",
             "--calls"], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed))
        assert done.returncode == 0, done.stderr
        line = done.stdout.strip().splitlines()[-1]
        assert line.startswith(f"CALLS {workload} calls_per_unit=") and " stdlib=" in line, line
        return line

    # The whole line: the total and every layer's share of it.
    runs = [calls(hash_seed) for hash_seed in ("0", "0", "1", "4242")]
    assert runs == runs[:1] * len(runs), runs


def test_rss_line_reads_the_coordinator_and_its_largest_worker():
    from repro.shard import process_backend_available

    if not process_backend_available():
        pytest.skip("cannot fork shard workers on this host")
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "hot_functions.py"), "churn_shards2",
         "--quick", "--rss"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = done.stdout.strip().splitlines()[-1]
    match = re.fullmatch(r"RSS churn_shards2 self_mb=(\d+\.\d) children_mb=(\d+\.\d)", line)
    assert match, line
    # A reaped shard worker is a fork of the coordinator, repro imported.
    assert float(match[1]) > 8 and float(match[2]) > 8, line


def test_setup_line_splits_setup_s_and_the_profile_leaves_out_the_inputs(tmp_path):
    # No bytecode to read or write (an empty cache prefix), as in the
    # ledger's repetitions: the timed imports compile every repro module.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=str(tmp_path))
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "hot_functions.py"), "churn", "--quick",
         "--setup", "--top", "1000"], capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    first, *profiled = done.stdout.strip().splitlines()
    match = re.fullmatch(r"SETUP churn import_s=(\d+\.\d{3}) build_s=(\d+\.\d{3}) "
                         r"modules=(\d+) compiled=(\d+)", first)
    assert match and float(match[1]) > 0 and float(match[2]) > 0 and int(match[3]) > 10, first
    assert int(match[4]) >= int(match[3]), first
    listed = "\n".join(profiled)
    assert "ledger_workloads.py" in listed and "(build)" in listed, listed
    assert "(generate)" not in listed, listed


def test_hops_line_counts_the_hop_executions_of_the_region():
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "hot_functions.py"), "ft_durable", "--quick",
         "--hops"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = done.stdout.strip().splitlines()[-1]
    match = re.fullmatch(r"HOPS ft_durable executed_per_unit=(\d+\.\d\d) "
                         r"distinct_per_unit=(\d+\.\d\d) repeats_without_crash=(\d+)", line)
    assert match, line
    # Every computation runs at least its home and delivery hops.
    assert float(match[1]) >= float(match[2]) >= 2, line


def load_tool():
    spec = importlib.util.spec_from_file_location("ledger_pair", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_repetition_of_a_compiled_tree_compiles_nothing(tmp_path):
    # The compile step writes every module a repetition imports, the tree's
    # and the standard library's, so a repetition allowed to write bytecode
    # adds none: it read its sources from bytecode only.
    tool = load_tool()
    assert tool.compile_tree(REPO, tmp_path, ["churn"], 7) > 0
    written = set(tmp_path.rglob("*.pyc"))
    assert any(path.name.startswith("engine.") for path in written)
    assert any(path.parent.name == "json" for path in written)     # the stdlib's
    env = tool.tree_env(REPO, tmp_path)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    tool.run_rep(REPO, "churn", 7, True, env)
    assert set(tmp_path.rglob("*.pyc")) == written


def test_moved_keys_are_the_fingerprint_inputs_that_differ():
    tool = load_tool()
    parent = {"events": 9, "counters": {"archived": 0, "launched": 3},
              "counts": {"bytes_sent": 10, "latency_p50": 0.5}}
    change = {"events": 9, "counters": {"archived": 3, "launched": 3},
              "counts": {"bytes_sent": 10, "latency_p50": 0.7}}
    # latency_p50 is a float: not hashed into sim_fingerprint, not a moved key.
    assert tool.moved_keys(parent, change) == ["counters.archived (0 -> 3)"]
    assert tool.moved_keys(parent, dict(parent, events=10)) == ["events (9 -> 10)"]
