"""Shared pytest fixtures for the TACOMA reproduction test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core import Kernel, KernelConfig
from repro.net import lan, ring
from repro.shard import BACKENDS, process_backend_available

# Property tests drive whole discrete-event simulations per example, whose
# wall-clock time varies with machine load; the default 200 ms deadline
# produces spurious "flaky" reports, so it is disabled suite-wide.
settings.register_profile("repro", deadline=None)
settings.load_profile("repro")


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers",
        "realtime: runs the wall-clock backend (real sleeps; select with "
        "-m realtime, skip with -m 'not realtime')")


@pytest.fixture
def lan_kernel() -> Kernel:
    """A 4-site fully connected LAN kernel with the standard system agents."""
    return Kernel(lan(["alpha", "beta", "gamma", "delta"]), transport="tcp",
                  config=KernelConfig(rng_seed=7))


@pytest.fixture
def ring_kernel() -> Kernel:
    """A 6-site ring kernel (used by itinerary and fault-tolerance tests)."""
    return Kernel(ring([f"s{i}" for i in range(6)]), transport="tcp",
                  config=KernelConfig(rng_seed=11))


@pytest.fixture(params=BACKENDS)
def backend(request) -> str:
    """Each shard backend by name; ``process`` skips where spawn does not work."""
    if request.param == "process" and not process_backend_available():
        pytest.skip("multiprocessing spawn does not work on this host")
    return request.param
