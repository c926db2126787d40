"""How process shard workers start and end.

Workers are forked from the coordinator.  A forked child copies every file
descriptor open in its parent, the coordinator's ends of the worker pipes
among them; a worker that kept one would never read EOF from a dead
coordinator and would outlive it.  On a platform without ``fork`` there is
no process backend, and asking for one says so.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings

import pytest

import repro
from repro.core import Kernel, KernelConfig, default_registry
from repro.core.errors import KernelError, UnknownAgentError
from repro.net import lan
from repro.shard import backend as backend_module
from repro.shard import process_backend_available

needs_fork = pytest.mark.skipif(not process_backend_available(),
                                reason="cannot fork shard workers on this host")

#: builds two process-sharded kernels, prints their worker pids, then waits
TWO_KERNELS = """
import time
from repro.core import Kernel, KernelConfig
from repro.net import lan
kernels = [Kernel(lan(["a", "b", "c", "d"]),
                  config=KernelConfig(shards=2, shard_backend="process"))
           for _ in range(2)]
print(" ".join(str(engine.handle.process.pid)
               for kernel in kernels for engine in kernel.engines), flush=True)
time.sleep(120)
"""


def running(pid: int) -> bool:
    """Whether *pid* names a live process (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
def test_no_worker_outlives_a_killed_coordinator():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    coordinator = subprocess.Popen(
        [sys.executable, "-c", TWO_KERNELS], stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src))
    try:
        pids = [int(pid) for pid in coordinator.stdout.readline().split()]
    finally:
        coordinator.send_signal(signal.SIGKILL)
        coordinator.wait()
        coordinator.stdout.close()
    assert len(pids) == 4, pids
    deadline = time.monotonic() + 5
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = [pid for pid in pids if running(pid)]
    for pid in survivors:  # leave none behind, even when failing
        os.kill(pid, signal.SIGKILL)
    assert survivors == []


@needs_fork
def test_starting_workers_warns_nothing():
    """Python 3.12 warns when a multi-threaded process forks: nothing on the
    way to a worker may have started a thread."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = Kernel(lan(["a", "b", "c", "d"]),
                        config=KernelConfig(shards=2, shard_backend="process"))
        kernel.run()
        kernel.close()


def four_sites_on_two_workers() -> Kernel:
    return Kernel(lan(["a", "b", "c", "d"]), config=KernelConfig(
        shards=2, shard_backend="process",
        shard_placement={"a": 0, "b": 0, "c": 1, "d": 1}))


@needs_fork
def test_workers_hold_what_was_registered_before_the_kernel_and_nothing_after():
    """A closure cannot be pickled, but a forked worker inherits it; a
    behaviour registered once the workers exist never reaches them."""
    registry = default_registry()
    greeting = "forked"

    def closure(ctx, bc):
        yield ctx.sleep(0.01)
        return f"{greeting}:{ctx.site_name}"

    def late(ctx, bc):
        yield ctx.sleep(0.01)
        return "late"

    registry.register("closure_probe", closure, replace=True)
    try:
        kernel = four_sites_on_two_workers()
        registry.register("late_probe", late, replace=True)
        ids = [kernel.launch(site, "closure_probe") for site in ("a", "c")]
        kernel.run()
        assert [kernel.result_of(agent_id) for agent_id in ids] == ["forked:a", "forked:c"]
        with pytest.raises(UnknownAgentError, match="'late_probe' is neither installed"):
            kernel.launch("c", "late_probe")
        kernel.close()
    finally:
        for name in ("closure_probe", "late_probe"):
            if name in registry:
                registry.unregister(name)


@needs_fork
def test_a_failed_start_leaves_no_worker_running(monkeypatch):
    """Shard 0's worker dies building its engine; ``Kernel(...)`` raises and
    stops the worker that did start."""
    from repro.shard import procworker

    engine = procworker.Engine

    def engine_or_exit(*args, **kwargs):
        if kwargs["shard_id"] == 0:
            os._exit(3)
        return engine(*args, **kwargs)

    before = {child.pid for child in multiprocessing.active_children()}
    monkeypatch.setattr(procworker, "Engine", engine_or_exit)
    with pytest.raises(KernelError, match=r"shard 0 worker died \(exitcode=3\)"):
        four_sites_on_two_workers()
    assert {child.pid for child in multiprocessing.active_children()} <= before


@needs_fork
def test_nothing_the_workers_are_built_from_needs_to_pickle():
    """The spec reaches a forked worker as memory, not as a pickle: a
    transport class local to a function (which pickle cannot name) works."""
    from repro.net.tcp import TcpTransport

    class LocalTcp(TcpTransport):
        name = "local-tcp"

    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(LocalTcp)
    kernel = Kernel(lan(["a", "b", "c", "d"]), transport=LocalTcp,
                    config=KernelConfig(shards=2, shard_backend="process"))
    assert kernel.transport.name == "local-tcp"
    kernel.close()


def test_without_fork_there_is_no_process_backend(monkeypatch):
    get_context = multiprocessing.get_context

    def no_fork(method=None):
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    monkeypatch.setattr(backend_module, "_PROCESS_PROBE", None)
    assert process_backend_available() is False
    with pytest.raises(KernelError, match=r"no fork start method; use shard_backend='inproc'"):
        Kernel(lan(["a", "b"]), config=KernelConfig(shards=2, shard_backend="process"))
