"""What a fresh interpreter sees: cold-start imports and hash-seed independence.

Both need a process of their own: what ``sys.modules`` holds and what
``PYTHONHASHSEED`` was are fixed once an interpreter is running.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def run_fresh(script: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_kernel_packages_loads_nothing_third_party(size_report_run):
    # A site pays its imports before its first meet, and so does every shard
    # worker; the kernel packages need the standard library only.  The size
    # report counts, in a fresh interpreter, what importing them loads; this
    # is the guard that keeps a graph or array library from creeping back in,
    # whether or not one happens to be installed where the tests run.
    report = size_report_run
    assert report.returncode == 0, report.stderr
    numbers = dict(field.split("=") for field in report.stdout.splitlines()[-1].split()[1:])
    assert numbers["third_party"] == "0", report.stdout
    assert int(numbers["import_modules"]) > 0
    # Same tool, same line: performance is measured in benchmarks/ledger/
    # only; a second benchmark harness beside it does not grow back unnoticed.
    assert numbers["bench_files"] == "0", report.stdout
    # Aim 2's line counts come next to last: source moved into a test or an
    # example still shows in them.  The package's public surface closes it.
    assert list(numbers)[-3:] == ["test_lines", "example_lines", "package_public"], \
        report.stdout
    assert int(numbers["package_public"]) > int(numbers["kernel_public"]) > 0
    examples = os.path.join(os.path.dirname(SRC), "examples")
    lines = 0
    for name in os.listdir(examples):
        if name.endswith(".py"):
            with open(os.path.join(examples, name), encoding="utf-8") as handle:
                lines += len(handle.read().splitlines())
    assert int(numbers["example_lines"]) == lines > 0


TIED_ROUTES = """
from repro.net.topology import LinkSpec, Topology, ring

names = ["tromso", "cornell", "ithaca", "oslo", "bergen", "narvik", "alta", "vadso"]
topo = ring(names, latency=0.005)            # even ring: two equal ways to the far side
spec = LinkSpec(latency=0.005)
for i, a in enumerate(names):                # plus chords, all of one latency
    topo.add_link(a, names[(i + 3) % len(names)], spec)
topo.mark_down("oslo")
for a in names:
    for b in names:
        if "oslo" not in (a, b):
            print(a, b, topo.path(a, b), topo.path_cost(a, b, 4096))
"""


def test_equal_latency_routes_do_not_depend_on_the_hash_seed():
    first = run_fresh(TIED_ROUTES, hash_seed="1")
    second = run_fresh(TIED_ROUTES, hash_seed="4242")
    assert first.count("\n") == 49
    assert first == second


ONE_ENGINE_COURIER = """
import sys

from repro.core import Kernel
from repro.core.folder import Folder
from repro.net import lan


def sink(ctx, briefcase):
    yield ctx.sleep(0)
    return "filed"


def sender(ctx, briefcase):
    sent = yield ctx.send_folder(Folder("REPORT", [b"x" * 64]), "c", "sink")
    return sent.value


kernel = Kernel(lan(["a", "b", "c"]))
kernel.install_agent(None, "sink", sink)
agent = kernel.launch("a", sender)
kernel.run()
assert kernel.result_of(agent) is True
print(sorted(name for name in sys.modules
             if name.startswith(("repro.shard", "multiprocessing"))))
"""


@pytest.mark.one_engine(reason="the kernel is built in a fresh interpreter, "
                               "which the strategy patch does not reach")
def test_a_one_engine_kernel_imports_no_shard_code():
    # Validating the config, placing the sites and couriering a folder
    # need nothing from repro.shard; importing it (and multiprocessing,
    # socket, selectors behind it) would land in every one-engine setup.
    assert run_fresh(ONE_ENGINE_COURIER, hash_seed="0") == "[]\n"


NONE_DURABILITY_START = """
import dataclasses, sys

import repro
from repro.core import Kernel, KernelConfig
from repro.net import lan

kernel = Kernel(lan(["a", "b"]), config=KernelConfig(durability="none"))
print(sorted(name for name in sys.modules if name.startswith("repro.store")))
print(sorted(f"{name}.{value.__qualname__}"
             for name, module in list(sys.modules.items())
             if name == "repro" or name.startswith("repro.")
             for value in vars(module).values()
             if isinstance(value, type) and value.__module__ == name
             and dataclasses.is_dataclass(value)))
"""


@pytest.mark.one_engine(reason="the kernel is built in a fresh interpreter, "
                               "which the strategy patch does not reach")
def test_a_kernel_without_durability_loads_no_store_and_builds_one_dataclass():
    # What a short run pays before its first event: the store's modules load
    # with the first durable site, and the records on the import path are
    # plain classes, so no dataclass decorator generates code but
    # KernelConfig's (size_report, conftest and test_store read its fields).
    assert run_fresh(NONE_DURABILITY_START, hash_seed="0") == \
        "[]\n['repro.core.kernel.KernelConfig']\n"


DURABLE_RECOVERY = """
import sys

from repro.core import Kernel, KernelConfig
from repro.net import lan

print("repro.store" in sys.modules)
for shards in (1, 2):
    config = KernelConfig(durability="wal-group-commit", shards=shards,
                          shard_placement={"a": 0, "b": shards - 1})
    kernel = Kernel(lan(["a", "b"]), config=config)
    kernel.make_durable("m", sites=["a"])
    kernel.site("a").cabinet("m").put("LOG", "kept")
    kernel.run()                            # past the group-commit window
    kernel.crash_site("a")
    kernel.recover_site("a")
    kernel.run()
    summary = kernel.store_summary()
    print(shards, "repro.store" in sys.modules, kernel.site("a").cabinet("m").elements("LOG"),
          summary["recoveries"], summary["durable_folders_restored"])
"""


@pytest.mark.one_engine(reason="the kernels are built in a fresh interpreter, "
                               "which the strategy patch does not reach")
def test_the_first_durable_site_loads_the_store_and_recovery_holds():
    # On one engine and on two in-process engines, a wal-group-commit kernel
    # loads repro.store as it builds its stores, and a committed folder
    # survives a crash and recovery of its site.
    assert run_fresh(DURABLE_RECOVERY, hash_seed="0") == \
        "False\n1 True ['kept'] 1 1\n2 True ['kept'] 1 1\n"
