"""Fold a cProfile run into the ledger's layer table.

A layer is the first matching source-file prefix below.  The traced
repetition profiles the measured region from outside (the interpreter's
profile hook; nothing under ``src/`` is edited or patched), and this module
turns the ``pstats`` rows into, per layer:

* **self time** — time in the layer's own functions, plus the self time of
  the stdlib/builtin functions it called (heap operations, ``pickle``, pipe
  waits in ``multiprocessing.connection``).  Such a function has no layer of
  its own; its time is charged to the nearest calling layers, following
  caller edges upward in proportion to the time through each edge.  A
  direct-caller-only rule would leave most of a process-sharded
  coordinator's time (blocked in ``Connection.recv`` three stdlib frames
  below ``shard/``) unattributed.
* **inclusive time** — time between a call entering the layer from another
  layer and its return (the cumulative time of every cross-layer caller
  edge).  A layer re-entered while it is already on the stack is counted
  again; the workloads' call graphs nest at most kernel -> behaviour ->
  kernel service, so this stays small.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Optional, Tuple

LAYERS = ("driver", "net.simclock", "core.codec", "core.kernel", "net.stats",
          "net.transport", "flow", "store", "fault", "shard", "obs",
          "sysagents", "other")

#: layers that everything runs inside, for which "time since the call
#: entered the layer" is the whole run and says nothing
NO_INCLUSIVE = frozenset({"driver", "net.simclock", "core.kernel", "other"})

#: (layer, path prefixes relative to src/repro); first match wins
_RULES = (
    ("net.simclock", ("net/simclock.py", "core/timing.py", "rt/scheduler.py")),
    ("core.codec", ("core/briefcase.py", "core/folder.py", "core/codec.py",
                    "core/cabinet.py")),
    ("core.kernel", ("core/",)),
    ("net.stats", ("net/stats.py",)),
    ("net.transport", ("net/",)),
    ("flow", ("flow/",)),
    ("store", ("store/", "rt/wal.py")),
    ("fault", ("fault/",)),
    ("shard", ("shard/",)),
    ("obs", ("obs/",)),
    ("sysagents", ("sysagents/",)),
)

_LEDGER_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

Func = Tuple[str, int, str]


def layer_of(filename: str, repro_dir: str) -> Optional[str]:
    """The layer owning *filename*, or None for stdlib/builtin code."""
    if filename.startswith(_LEDGER_DIR):
        return "driver"
    if not filename.startswith(repro_dir):
        return None
    relative = filename[len(repro_dir):].replace(os.sep, "/")
    for layer, prefixes in _RULES:
        if relative.startswith(prefixes):
            return layer
    return "other"


def fold(stats: pstats.Stats, repro_dir: str) -> Dict[str, Dict[str, float]]:
    """``{"self_s": {layer: seconds}, "incl_s": {layer: seconds}}``."""
    repro_dir = os.path.abspath(repro_dir) + os.sep
    table = stats.stats  # {func: (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})}
    own = {func: layer_of(func[0], repro_dir) for func in table}
    memo: Dict[Func, Dict[str, float]] = {}
    visiting = set()

    def owners(func: Func) -> Dict[str, float]:
        """Layer shares of *func*: itself, or its callers' for unowned code."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        visiting.add(func)
        edges = [(caller, edge[3] if edge[3] > 0 else edge[0] * 1e-9)
                 for caller, edge in table[func][4].items()
                 if caller in table and caller not in visiting]
        total = sum(weight for _, weight in edges)
        shares: Dict[str, float] = {}
        if total <= 0:
            shares["other"] = 1.0  # a root, or only reachable through a cycle
        else:
            for caller, weight in edges:
                for layer, share in owners(caller).items():
                    shares[layer] = shares.get(layer, 0.0) + share * weight / total
        visiting.discard(func)
        memo[func] = shares
        return shares

    self_s = dict.fromkeys(LAYERS, 0.0)
    incl_s = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tt, _ct, callers) in table.items():
        for layer, share in owners(func).items():
            self_s[layer] += tt * share
        layer = own[func]
        if layer is None or layer in NO_INCLUSIVE:
            continue
        for caller, edge in callers.items():
            inside = owners(caller).get(layer, 0.0) if caller in table else 0.0
            incl_s[layer] += edge[3] * (1.0 - inside)
    return {"self_s": self_s, "incl_s": incl_s}
