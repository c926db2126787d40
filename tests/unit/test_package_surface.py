"""Sanity checks on the public package surface: exports exist, versions agree.

These tests keep `__all__` honest (everything advertised is importable) so
downstream users can rely on `from repro.<pkg> import *` and the documented
entry points.
"""

from __future__ import annotations

import dataclasses
import importlib
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
    for name in ("rexec", "ag_py", "courier", "diffusion", "shell",
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
    "step_cost", "meet_overhead", "max_agent_steps", "rng_seed", "retention",
    "delivery_batch_window", "flow_window_min", "flow_window_max",
    "flow_target_batch",
    "durability", "store_write_latency", "store_write_byte_latency",
    "store_fsync_latency", "store_commit_window",
    "store_recovery_base", "store_snapshot_threshold",
    "shards", "shard_placement", "shard_backend",
    "obs_enabled", "obs_sample", "obs_ring", "obs_path",
]


def test_kernel_config_fields_are_exactly_the_listed_knobs():
    from repro.core import KernelConfig
    assert [spec.name for spec in dataclasses.fields(KernelConfig)] == KERNEL_CONFIG_FIELDS


#: knobs that were retired: the realtime backend's two, and three costs no
#: caller ever set (now ``engine.SPAWN_OVERHEAD``, ``engine.TRANSMIT_OVERHEAD``
#: and ``StoreCosts.replay_latency``).
RETIRED_KERNEL_CONFIG_FIELDS = ["backend", "store_realtime_dir", "spawn_overhead",
                                "transmit_overhead", "store_replay_latency"]


@pytest.mark.parametrize("knob", RETIRED_KERNEL_CONFIG_FIELDS)
def test_a_retired_knob_is_refused_not_ignored(knob):
    from repro.core import KernelConfig
    assert knob not in KERNEL_CONFIG_FIELDS
    with pytest.raises(TypeError, match=knob):
        KernelConfig(**{knob: None})


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
