"""Integration test: a kernel's trace file (``KernelConfig.obs_path``)."""

from __future__ import annotations

from repro.core import Kernel, KernelConfig
from repro.net import lan
from repro.obs.report import load_trace


def napper(ctx, briefcase):
    yield ctx.sleep(0.01)
    return "rested"


def traced_run(path, agents):
    """Run *agents* nappers on a kernel tracing into *path*; its spans."""
    kernel = Kernel(lan(["a", "b"]),
                    config=KernelConfig(obs_enabled=True, obs_path=path))
    for index in range(agents):
        kernel.launch("ab"[index % 2], napper)
    kernel.run()
    kernel.close()
    return kernel.trace_spans()


def test_a_trace_file_holds_the_last_kernel_spans_only(tmp_path):
    # One engine wrote obs_path live, appending to an earlier kernel's
    # spans; several engines wrote it once, at close, replacing them.
    path = str(tmp_path / "trace.jsonl")
    first = traced_run(path, agents=3)
    second = traced_run(path, agents=1)
    assert 0 < len(second) < len(first)
    assert load_trace(path) == second
