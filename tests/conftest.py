"""Shared pytest fixtures for the TACOMA reproduction test suite."""

from __future__ import annotations

import dataclasses
import inspect

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


#: execution strategy -> how many in-process engines each kernel runs on
STRATEGIES = {"one-engine": 1, "2xinproc": 2}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "one_engine(reason): run only on one engine, skipping the 2xinproc "
        "strategy; the reason names the single-engine internal the test reads")


def pytest_generate_tests(metafunc):
    if ("strategy" in metafunc.fixturenames
            and metafunc.definition.get_closest_marker("one_engine") is None):
        metafunc.parametrize("strategy", list(STRATEGIES), indirect=True)


@pytest.fixture
def strategy(request, monkeypatch) -> int:
    """The execution strategy: how many engines a kernel asking for one gets.

    Under ``2xinproc`` every ``Kernel`` the test builds — directly, through
    a helper, or in an example script — that asks for one engine gets two
    in-process engines instead.  A test marked ``one_engine`` is not
    parametrized and runs on one engine only.
    """
    engines = STRATEGIES[getattr(request, "param", "one-engine")]
    if engines > 1:
        init = Kernel.__init__
        signature = inspect.signature(init)

        def init_on_engines(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            config = bound.arguments.get("config") or KernelConfig()
            if config.shards == 1:
                bound.arguments["config"] = dataclasses.replace(
                    config, shards=engines, shard_backend="inproc")
            init(*bound.args, **bound.kwargs)

        monkeypatch.setattr(Kernel, "__init__", init_on_engines)
    return engines
