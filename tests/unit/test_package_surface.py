"""Sanity checks on the public package surface: exports exist, versions agree.

These tests keep `__all__` honest (everything advertised is importable) so
downstream users can rely on `from repro.<pkg> import *` and the documented
entry points.
"""

from __future__ import annotations

import importlib
import pathlib
import re

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.net",
    "repro.sysagents",
    "repro.cash",
    "repro.scheduling",
    "repro.fault",
    "repro.shard",
    "repro.rt",
    "repro.obs",
    "repro.apps.stormcast",
    "repro.apps.mail",
    "repro.bench",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_advertised_name_is_importable(package_name):
    module = importlib.import_module(package_name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{package_name} should declare __all__"
    for name in exported:
        assert hasattr(module, name), f"{package_name}.__all__ lists missing name {name!r}"


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


REPO = pathlib.Path(__file__).resolve().parents[2]
CLAIM_TABLE = (REPO / "docs" / "architecture.md").read_text(
    encoding="utf-8").split("### Paper claim → tier-1 test", 1)[1]
CLAIM_ROWS = [line for line in CLAIM_TABLE.splitlines()
              if line.startswith("| §")]


def test_paper_claim_table_covers_every_section():
    """docs/architecture.md's "Paper claim -> tier-1 test" table keeps a row
    for each of the paper's sections §1-§6."""
    assert len(CLAIM_ROWS) >= 10
    assert ({row.split("|")[1].strip() for row in CLAIM_ROWS}
            == {f"§{section}" for section in range(1, 7)})


@pytest.mark.parametrize("row", CLAIM_ROWS, ids=[
    f"row{index}" for index in range(1, len(CLAIM_ROWS) + 1)])
def test_every_paper_claim_names_tests_that_exist(row, monkeypatch):
    """Every path a claim row names exists, and every ``path::Name`` (or a
    bare ``TestX`` following one) is defined in that test module, so no
    claim points at nothing."""
    module = None
    for ref in re.findall(r"`([^`]+)`", row.split("|")[3]):
        path, *names = ref.split("::")
        if "/" not in path:             # a bare name: the last module's
            names = [path]
        else:
            assert (REPO / path).exists(), ref
            if path.startswith("tests/"):
                monkeypatch.syspath_prepend(str((REPO / path).parent))
                module = importlib.import_module(pathlib.Path(path).stem)
        target = module
        for name in names:
            assert hasattr(target, name), ref
            target = getattr(target, name)
