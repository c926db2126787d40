"""Shared fixtures for the experiment benchmarks.

Every benchmark module regenerates one experiment (described in its own
docstring; the performance ledger is separate, see ``ledger/README.md``): it
builds the experiment's table(s) once per session (the sweep is the
expensive part), prints them (visible with ``-s``), saves them under
``benchmarks/results/``, and lets pytest-benchmark time one representative
configuration per pipeline so regressions in simulation cost show up.
"""

from __future__ import annotations

import os

import pytest

#: where rendered experiment tables are written
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--smoke", action="store_true", default=False,
        help="run benchmarks with tiny populations (CI sanity run: the "
             "pipelines and their invariants execute, the numbers are not "
             "representative)")


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers",
        "realtime: runs the wall-clock backend (real sleeps; selected in "
        "the CI realtime smoke step with -m realtime)")


@pytest.fixture(scope="session")
def smoke(request) -> bool:
    """True when the benchmark session runs in --smoke (tiny population) mode."""
    return bool(request.config.getoption("--smoke"))


@pytest.fixture(scope="session")
def results_dir() -> str:
    """Directory the experiment reports are saved into."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def emit_report(results_dir):
    """Print a Report and persist it under benchmarks/results/."""

    def _emit(report) -> str:
        report.print()
        return report.save(results_dir)

    return _emit
