"""Sanity checks on the public package surface: exports exist, versions agree.

These tests keep `__all__` honest (everything advertised is importable) so
downstream users can rely on `from repro.<pkg> import *` and the documented
entry points.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import repro

#: ``repro`` and every package under it on disk
PACKAGES = ["repro"] + sorted(info.name for info in pkgutil.walk_packages(
    repro.__path__, "repro.") if info.ispkg)


def test_the_package_list_is_read_from_disk():
    assert {"repro.core", "repro.flow", "repro.store", "repro.apps",
            "repro.apps.mail"} <= set(PACKAGES)


def exports(module, name: str) -> bool:
    """Whether ``from module import *`` binds *name*: an attribute of the
    module, or a submodule the star import loads."""
    if hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module.__name__}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_advertised_name_is_importable(package_name):
    module = importlib.import_module(package_name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{package_name} should declare __all__"
    for name in exported:
        assert exports(module, name), f"{package_name}.__all__ lists missing name {name!r}"


def test_a_submodule_name_is_exported_and_an_unknown_name_is_not():
    import repro.apps
    assert exports(repro.apps, "mail")
    assert not exports(repro.apps, "no_such_app")


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_package_has_a_docstring(package_name):
    module = importlib.import_module(package_name)
    assert module.__doc__ and module.__doc__.strip()


def test_version_is_exposed_and_consistent_with_metadata():
    assert repro.__version__
    try:
        from importlib.metadata import version
        installed = version("repro")
    except Exception:
        pytest.skip("package metadata not available in this environment")
    assert installed == repro.__version__


def test_top_level_reexports_cover_the_quickstart_needs():
    for name in ("Kernel", "KernelConfig", "Briefcase", "Folder", "FileCabinet",
                 "lan", "ring", "star", "two_clusters", "random_topology"):
        assert hasattr(repro, name)


def test_well_known_agent_names_are_globally_registered():
    """The names the paper treats as well known must resolve everywhere."""
    import repro.apps.mail          # noqa: F401  (registers letter_agent)
    import repro.apps.stormcast     # noqa: F401  (registers storm_collector)
    import repro.fault              # noqa: F401  (registers ft_visitor, rear_guard)
    import repro.scheduling         # noqa: F401  (registers scheduled_client)
    import repro.sysagents          # noqa: F401  (registers rexec, ag_py, ...)
    from repro.core import default_registry

    registry = default_registry()
    for name in ("rexec", "ag_py", "courier", "diffusion", "naive_flood",
                 "ft_visitor", "rear_guard", "letter_agent", "storm_collector",
                 "scheduled_client"):
        assert name in registry, f"{name!r} should be registered process-wide"


def test_error_hierarchy_has_a_single_root():
    from repro.core import errors

    roots = [obj for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, Exception)
             and not name.startswith("_")]
    for exc_type in roots:
        if exc_type is errors.TacomaError:
            continue
        assert issubclass(exc_type, errors.TacomaError), (
            f"{exc_type.__name__} must derive from TacomaError")


#: every KernelConfig field, in declaration order.  A new knob means editing
#: this list: the field count is one of the size numbers kept going down.
KERNEL_CONFIG_FIELDS = [
    "rng_seed",
    "delivery_batch_window", "flow_window_min", "flow_window_max",
    "flow_target_batch",
    "durability", "store_commit_window",
    "shards", "shard_placement", "shard_backend",
    "obs_enabled", "obs_sample",
]


def test_kernel_config_fields_are_exactly_the_listed_knobs():
    from repro.core import KernelConfig
    assert [spec.name for spec in dataclasses.fields(KernelConfig)] == KERNEL_CONFIG_FIELDS
    assert len(KERNEL_CONFIG_FIELDS) == 12


#: knobs that were retired: the realtime backend's two, ten costs no
#: caller but a test ever set (now ``engine.STEP_COST``,
#: ``engine.MEET_OVERHEAD``, ``engine.SPAWN_OVERHEAD``,
#: ``engine.TRANSMIT_OVERHEAD`` and ``StoreCosts.replay_latency``,
#: ``recovery_base``, ``snapshot_threshold``, ``write_latency``,
#: ``write_byte_latency`` and ``fsync_latency``), and the live trace file
#: (a trace reaches disk through ``kernel.dump_trace(path)`` only), and three
#: limits only tests changed (now ``engine.MAX_AGENT_STEPS`` and
#: ``repro.obs.sinks.RING_CAPACITY``; the ledger keeps every record).
RETIRED_KERNEL_CONFIG_FIELDS = ["backend", "store_realtime_dir", "step_cost",
                                "meet_overhead", "spawn_overhead",
                                "transmit_overhead", "store_replay_latency",
                                "store_recovery_base", "store_snapshot_threshold",
                                "store_write_latency", "store_write_byte_latency",
                                "store_fsync_latency", "obs_path",
                                "max_agent_steps", "obs_ring", "retention"]


@pytest.mark.parametrize("knob", RETIRED_KERNEL_CONFIG_FIELDS)
def test_a_retired_knob_is_refused_not_ignored(knob):
    from repro.core import KernelConfig
    assert knob not in KERNEL_CONFIG_FIELDS
    with pytest.raises(TypeError, match=knob):
        KernelConfig(**{knob: None})


#: the public definitions of ``src/repro`` that only tests call, sorted, each
#: with why it stays.  ``tools/size_report.py`` counts them as
#: ``test_only_defs``: a new one means editing this list.
TEST_ONLY_DEFS = [
    "AgentContext.is_system_agent",      # an agent asks whether it runs privileged (§2)
    "AuditFinding.clean",                # the audit's verdict: no violation found (§3)
    "BehaviourRegistry.unregister",      # register's inverse: tests undo a registration
                                         # in the process-wide registry
    "Briefcase.take",                    # pop a folder's top: a briefcase operation (§2)
    "ClockSync.lookahead",               # one shard pair's bound; the rounds read the table
    "EventLoop.step",                    # exactly one event: run() one event at a time
    "FileCabinet.move_cost",             # why cabinets stay put while briefcases move (§2)
    "FileCabinet.withdraw",              # deposit's inverse: the briefcase operations (§2)
    "Folder.front",                      # the oldest element, as peek() is the newest
    "LedgerQueries.agents",              # a Kernel read: the agent table
    "LedgerQueries.event_log",           # a Kernel read: the ring's log lines
    "MailSystem.delivery_log",           # reads the log folder the letter agents write
    "Mint.retired_value",                # the audit total of the retired-ECU table (§3)
    "RateEstimator.mean_bytes",          # the second EWMA, beside the rate windows use
    "SiteStore.dirty_count",             # folders waiting for the next group commit
    "Topology.can_communicate",          # path() without the NoRouteError
    "Transport.pending_outbox_messages", # what the fabric holds between flushes
    "broker_state",                      # BrokerState(cabinet) under the §4 broker's name
    "code_from_source",                  # a CODE element carrying source, not a name (§2)
    "fan_out_ids",                       # per-branch ids for a cloning computation (§5)
    "gossip_convergence",                # how far apart the gossiped load tables are (§4)
    "make_gossip_behaviour",             # brokers pushing their tables to peers (§4)
    "merged_load_table",                 # every broker's load table, merged across shards
    "random_topology",                   # the connected random graph diffusion floods
]


@pytest.fixture(scope="module")
def size_report():
    path = pathlib.Path(__file__).resolve().parents[2] / "tools" / "size_report.py"
    spec = importlib.util.spec_from_file_location("size_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_test_only_definitions_are_exactly_the_listed_ones(size_report):
    assert size_report.test_only_defs() == TEST_ONLY_DEFS == sorted(TEST_ONLY_DEFS)


@pytest.mark.parametrize("text, test_only", [
    ("def helper():\n    \"\"\"Unlike merged_load_table, this merges nothing.\"\"\"\n",
     True),                                                             # a docstring
    ("# merged_load_table would do here\n", True),                     # a comment
    ("from repro.scheduling import merged_load_table\n"
     "__all__ = ['merged_load_table']\n", True),                       # a re-export
    ("tables = merged_load_table(kernel)\n", False),                   # a call
    ("reader = scheduling.merged_load_table\n", False),                # an attribute
    ("getattr(scheduling, 'merged_load_table')\n", False),             # a name string
    ("print(f'{merged_load_table(kernel)}')\n", False),                # an f-string
], ids=["docstring", "comment", "re-export", "call", "attribute", "name-string",
        "f-string"])
def test_a_def_is_test_only_until_code_outside_tests_uses_it(
        size_report, tmp_path, monkeypatch, text, test_only):
    path = tmp_path / "tools" / "x.py"
    path.parent.mkdir(parents=True)
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(size_report, "outside_tests", lambda: [path])
    assert ("merged_load_table" in size_report.test_only_defs()) is test_only


#: the ``KernelConfig`` fields no code outside ``tests/`` sets, sorted, each
#: with why it stays a knob.  ``tools/size_report.py`` counts them as
#: ``test_only_knobs``: a setting only tests change is a constant they patch.
TEST_ONLY_KNOBS = [
    "obs_sample",       # ROADMAP item 6(b) gives the ledger's trace arm its first setter
]


def test_test_only_knobs_are_exactly_the_listed_ones(size_report):
    assert size_report.test_only_knobs() == TEST_ONLY_KNOBS


@pytest.mark.parametrize("path, text, test_only", [
    ("tools/run.py", "KernelConfig(obs_sample=0.5)\n", False),       # a call keyword
    ("benchmarks/arm.py", "ARM = {'obs_sample': 0.5}\n", False),      # a dict key
    ("tests/unit/test_x.py", "KernelConfig(obs_sample=0.5)\n", True),
    ("src/repro/core/kernel.py", "class KernelConfig:\n    obs_sample: float = 1.0\n",
     True),                                                             # its declaration
    ("src/repro/obs/x.py", "rate = config.obs_sample\n", True),         # a read
], ids=["call-keyword", "dict-key", "in-tests", "declaration", "read"])
def test_a_knob_is_test_only_until_code_outside_tests_sets_it(
        size_report, tmp_path, monkeypatch, path, text, test_only):
    (tmp_path / path).parent.mkdir(parents=True)
    (tmp_path / path).write_text(text, encoding="utf-8")
    monkeypatch.setattr(size_report, "ROOT", tmp_path)
    knobs = size_report.test_only_knobs()
    assert ("obs_sample" in knobs) is test_only
    assert len(knobs) == len(KERNEL_CONFIG_FIELDS) - (not test_only)


#: every public name on the ``Kernel`` facade, sorted.  ``tools/size_report.py``
#: counts them as ``kernel_public``: a new name means editing this list.
KERNEL_PUBLIC_NAMES = [
    "agent", "agents", "agents_named", "close", "counters", "crash_site",
    "dump_trace", "engines", "event_log", "heal_partition", "install_agent",
    "launch", "launch_many", "log_event", "make_durable", "now",
    "on_site_recovered", "partition", "recover_site", "result_of", "run",
    "shard_summary", "site", "site_load", "site_names", "store",
    "store_summary", "trace_spans",
]


def test_kernel_public_names_are_exactly_the_listed_ones():
    from repro.core import Kernel
    assert [name for name in dir(Kernel) if not name.startswith("_")] == KERNEL_PUBLIC_NAMES


#: second read paths that were retired: the eight ledger counts are read
#: through ``counters()`` only, the live residents of a site through
#: ``site(name).residents()``, the coordinator through ``engines`` and
#: ``shard_summary()``, the durability policy through ``config``, and
#: every counter through ``stats`` and ``counters()`` (no metrics registry).
RETIRED_KERNEL_NAMES = ["launched", "completed", "failed", "killed", "meets",
                        "transmits", "arrivals", "undeliverable", "agents_at",
                        "shard_set", "durability", "metrics"]


@pytest.mark.parametrize("name", RETIRED_KERNEL_NAMES)
def test_a_retired_kernel_name_is_gone(name):
    from repro.core import Kernel
    assert name not in KERNEL_PUBLIC_NAMES
    assert not hasattr(Kernel, name)
    with Kernel(install_system_agents=False) as kernel:
        assert not hasattr(kernel, name)


def test_a_retired_counter_is_gone():
    # ``archived`` always equalled completed + failed + killed once every
    # finished agent became a record, and ``evicted`` 0 once the ledger kept
    # every record.
    from repro.core import Kernel
    with Kernel(install_system_agents=False) as kernel:
        assert not {"archived", "evicted"} & set(kernel.counters())


#: exports retired with the two policy class hierarchies (durability is one
#: of three names, a checked value; retention went later), the
#: metrics registry (every counter lives in ``NetworkStats`` or the agent
#: table), the WAL's per-folder record (the log keeps last-wins states), the
#: ticket agent and the shell agent (no paper claim held either) and two
#: guardian admission policies (a policy is the protected agent's own
#: function, written where the guardian is built), and the three transport
#: classes (rsh, TCP and Horus are rows of ``repro.net.transport.PRICES``).
RETIRED_EXPORTS = [
    *(("repro.core", name) for name in (
        "RetentionPolicy", "KeepAll", "KeepResults", "KeepCounts", "make_retention")),
    *(("repro.store", name) for name in (
        "DurabilityPolicy", "NoDurability", "FlushOnDemand", "WalGroupCommit",
        "POLICIES", "resolve_policy", "WalRecord")),
    ("repro.obs", "MetricsRegistry"),
    *(("repro.scheduling", name) for name in (
        "ticket", "Ticket", "TicketIssuer", "make_ticket_behaviour", "TICKET_AGENT_NAME",
        "admit_authorized", "admit_rate_limited")),
    ("repro.core.errors", "TicketError"),
    *(("repro.sysagents", name) for name in ("shell", "shell_behaviour")),
    *((package, name) for package in ("repro", "repro.net")
      for name in ("RshTransport", "TcpTransport", "HorusTransport")),
]


@pytest.mark.parametrize("package_name, name", RETIRED_EXPORTS)
def test_a_retired_export_is_gone(package_name, name):
    module = importlib.import_module(package_name)
    assert name not in getattr(module, "__all__", ()) and not exports(module, name)


#: keywords retired with the ticket agent: ``(module, function, keyword)``
RETIRED_KEYWORDS = [
    ("repro.scheduling", "install_scheduling", "with_tickets"),
    ("repro.scheduling", "make_broker_behaviour", "ticket_agent"),
    ("repro.scheduling", "make_compute_service_behaviour", "issuer"),
    ("repro.scheduling", "make_compute_service_behaviour", "require_ticket"),
]


@pytest.mark.parametrize("module_name, function, keyword", RETIRED_KEYWORDS)
def test_a_retired_keyword_is_refused_not_ignored(module_name, function, keyword):
    with pytest.raises(TypeError, match=keyword):
        getattr(importlib.import_module(module_name), function)(**{keyword: True})


REPO = pathlib.Path(__file__).resolve().parents[2]
CLAIM_TABLE = (REPO / "docs" / "architecture.md").read_text(
    encoding="utf-8").split("### Paper claim → tier-1 test", 1)[1]
CLAIM_ROWS = [line for line in CLAIM_TABLE.splitlines()
              if line.startswith("| §")]


def cited_refs(row: str) -> list:
    """The backquoted references in a claim row's "held by" column."""
    return re.findall(r"`([^`]+)`", row.split("|")[3])


@pytest.fixture(scope="module")
def collected_ids() -> list:
    """Node ids pytest collects from every test module the claim table cites."""
    paths = sorted({ref.split("::")[0] for row in CLAIM_ROWS
                    for ref in cited_refs(row) if ref.startswith("tests/")})
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *paths],
        cwd=REPO, env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return [line for line in done.stdout.splitlines() if "::" in line]


#: the unreached blocks of 20 lines or more, qualified, in file order: code
#: no example and no ledger workload enters (``tools/size_report.py``'s
#: ``UNREACHED`` lines), each with what holds it, the claim row (its section
#: and words of its claim) whose tier-1 tests reach it or the open ROADMAP
#: item that decides it.  A block no row and no item holds goes.
UNREACHED_BLOCKS = {
    "repro.net.topology.random_topology":
        "§2: site-local visit records bound the flooding population",
    "repro.obs.report.main": "item 8",
    "repro.scheduling.routing.make_gossip_behaviour": "§4: load tables spread by gossip",
    "repro.shard.backend.process_backend_available": "item 3",
    "repro.store.sitestore.SiteStore.flush": "§6: cabinets flushed to disk",
    "repro.sysagents.diffusion.naive_flood_behaviour":
        "§2: site-local visit records bound the flooding population",
}
ROADMAP = (REPO / "ROADMAP.md").read_text(encoding="utf-8")
OPEN_ITEMS = ROADMAP.split("## Open items", 1)[1].split("\n## ", 1)[0]


def test_unreached_blocks_are_exactly_the_listed_ones(size_report_run):
    done = size_report_run
    assert done.returncode == 0, done.stderr
    assert "leaves out src/repro/shard/procworker.py" in done.stderr
    listed = [line.split()[3] for line in done.stdout.splitlines()
              if line.startswith("UNREACHED ")]
    assert listed == list(UNREACHED_BLOCKS), done.stdout
    assert done.stdout.splitlines()[-1].startswith("SIZE src_lines=")


def test_a_block_is_a_top_level_def_or_method_from_its_first_decorator(
        size_report, tmp_path, monkeypatch):
    # The profile hook sees a code object's first line, which for a
    # decorated def is its first decorator's; nested defs are inside a block.
    path = tmp_path / "repro" / "x.py"
    path.parent.mkdir()
    path.write_text("import functools\n"                     # 1
                    "\n"
                    "@functools.lru_cache()\n"               # 3
                    "@staticmethod\n"
                    "def cached():\n"
                    "    def inner():\n"
                    "        return 1\n"
                    "    return inner\n"                     # 8
                    "\n"
                    "class Box:\n"                           # 10
                    "    size = 1\n"
                    "\n"
                    "    @property\n"                        # 13
                    "    def area(self):\n"
                    "        return self.size\n"             # 15
                    "\n"
                    "    def grow(self):\n"                  # 17
                    "        self.size += 1\n",              # 18
                    encoding="utf-8")
    monkeypatch.setattr(size_report, "SRC", tmp_path)
    assert size_report.blocks(path) == [(3, 8, "repro.x.cached"), (13, 15, "repro.x.Box.area"),
                                        (17, 18, "repro.x.Box.grow")]


@pytest.mark.parametrize("name", UNREACHED_BLOCKS)
def test_an_unreached_block_is_held_by_a_claim_row_or_an_open_item(name):
    holder = UNREACHED_BLOCKS[name]
    if holder.startswith("item "):
        assert f"**Item {holder.split()[1]}.**" in OPEN_ITEMS
    else:
        section, claim = holder.split(": ", 1)
        assert any(row.split("|")[1].strip() == section and claim in row.split("|")[2]
                   for row in CLAIM_ROWS)


def test_paper_claim_table_covers_every_section():
    """docs/architecture.md's "Paper claim -> tier-1 test" table keeps a row
    for each of the paper's sections §1-§6."""
    assert len(CLAIM_ROWS) >= 10
    assert ({row.split("|")[1].strip() for row in CLAIM_ROWS}
            == {f"§{section}" for section in range(1, 7)})


def unresolved_refs(row: str, collected_ids: list) -> list:
    """The references of a claim row that point at nothing.

    A reference is ``path``, ``path::Name`` or a bare ``TestX`` naming a
    class of the module cited before it.  It resolves when its path exists
    and, for a test module, when pytest collects at least one test under it.
    """
    unresolved, module = [], None
    for ref in cited_refs(row):
        path, *names = ref.split("::")
        if "/" not in path:             # a bare name: the last module's
            path, names = module or "", [path]
        elif (REPO / path).exists():
            module = path
        node = "::".join([path, *names])
        if not path or not (REPO / path).exists() or path.startswith("tests/") and not any(
                node_id == node or node_id.startswith((node + "::", node + "["))
                for node_id in collected_ids):
            unresolved.append(ref)
    return unresolved


@pytest.mark.parametrize("row", CLAIM_ROWS, ids=[
    f"row{index}" for index in range(1, len(CLAIM_ROWS) + 1)])
def test_every_paper_claim_names_tests_that_exist(row, collected_ids):
    """Every path a claim row names exists, and every test module, class or
    test it cites resolves to at least one test pytest collects, so no claim
    points at nothing."""
    assert unresolved_refs(row, collected_ids) == []


def test_the_claim_check_reports_references_that_point_at_nothing(collected_ids):
    # The check above must be able to fail: a missing module, a class or a
    # test the module does not define, and a bare name with no module before
    # it are each reported, while the live references beside them are not.
    row = ("| §9 | a claim | `TestOrphan`, `tests/unit/test_no_such_module.py`, "
           "`tests/unit/test_store.py::TestBarrier`, `TestNoSuchClass`, "
           "`TestBarrierMarks`, `tests/unit/test_store.py::test_no_such_test`, "
           "`src/repro/core/kernel.py` |")
    assert unresolved_refs(row, collected_ids) == [
        "TestOrphan", "tests/unit/test_no_such_module.py", "TestNoSuchClass",
        "tests/unit/test_store.py::test_no_such_test"]
