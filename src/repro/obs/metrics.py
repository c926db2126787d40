"""Metrics registry: one read over named sources.

The numbers live where they are counted — :class:`~repro.net.stats.NetworkStats`
for everything the paper's claims are judged by, the flow controller and the
tcp/Horus transports for their own telemetry.  Each registers once
(:meth:`MetricsRegistry.register`) and ``collect()`` returns what they all
read now as one flat JSON-able dict, which is what
``Kernel.store_summary``, shard digests and benchmark JSON read.  The
registry stores nothing itself, so it has no state to merge or ship: a
sharded facade's registry has two sources of its own (the merged stats
snapshot and the engines' other sources, summed).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Named sources, each a callable returning a dict merged into ``collect()``."""

    __slots__ = ("_sources",)

    def __init__(self):
        self._sources: Dict[str, Callable[[], Dict[str, Any]]] = {}

    def register(self, name: str,
                 source: Callable[[], Dict[str, Any]]) -> None:
        """Register (or replace) the source called *name*.

        ``registry.register("net", stats.snapshot)`` is how the kernel's
        counters are exposed.  Sources are re-read on every collect, so the
        registry always reflects live counters.
        """
        self._sources[name] = source

    def collect(self, prefix: Optional[str] = None,
                skip: Iterable[str] = ()) -> Dict[str, Any]:
        """Every source but those named in *skip*, merged, optionally prefix-filtered."""
        out: Dict[str, Any] = {}
        for name, source in self._sources.items():
            if name not in skip:
                out.update(source())
        if prefix is None:
            return out
        return {key: value for key, value in out.items()
                if key.startswith(prefix)}
