"""Deterministic site → shard placement.

The sharded kernel partitions the topology's sites across N shards.  The
default placement hashes the site name with CRC-32 — stable across
processes and Python versions, unlike ``hash()`` which is randomised per
interpreter — so the same topology always shards the same way.  An
explicit placement map (``KernelConfig.shard_placement``) overrides the
hash per site, which is how benchmarks co-locate chatty site groups.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, Mapping, Optional

__all__ = ["resolve_placement"]


def resolve_placement(site_names: Iterable[str], shards: int,
                      explicit: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
    """Map every site to a shard id in ``[0, shards)``.

    A site's home shard is the CRC-32 of its name modulo *shards* (stable
    across processes); *explicit* entries win over the hash.  A shard left
    with no sites is fine (it simply idles).  The entries are trusted:
    ``KernelConfig.validate`` and the ``Kernel`` constructor refuse an id
    outside ``[0, shards)`` and an unknown site on any shard count.
    """
    overrides = explicit or {}
    return {name: overrides[name] if name in overrides
            else zlib.crc32(name.encode("utf-8")) % shards for name in site_names}
