"""The shared cost model: one linear price per scarce resource.

Every simulated-time charge in the system is an affine function of three
things: how many items were processed (messages framed, redo records
written), how many payload bytes moved, and how many synchronisation
points were paid (fsyncs, connection handshakes, rsh forks).
:class:`CostModel` captures exactly that, so the WAL's group commit and a
transport's ``setup_delay`` price their resource with the same arithmetic
instead of re-deriving it inline.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.record import Record

__all__ = ["CostModel"]


class CostModel(Record):
    """A linear price for using a scarce resource.

    ``cost = base * items + per_byte * size_bytes + sync * syncs``, plus an
    optional uniform jitter fraction (the rsh transport's noisy fork).
    All terms default to zero so a model names only the costs its resource
    actually has.  Immutable and hashable: assigning an attribute raises
    :class:`AttributeError`.
    """

    __slots__ = _fields = ("base", "per_byte", "sync", "jitter")

    def __init__(self, base: float = 0.0, per_byte: float = 0.0, sync: float = 0.0,
                 jitter: float = 0.0):
        # Seconds per item (one message, one redo record), per payload byte
        # and per sync point (fsync, handshake, fork); noise fraction (0 = none).
        for name, value in zip(self._fields, (base, per_byte, sync, jitter)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"a CostModel is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return CostModel, self._values()

    def cost(self, items: int = 1, size_bytes: int = 0, syncs: int = 1,
             rng: Optional[random.Random] = None) -> float:
        """Price *items* items carrying *size_bytes* bytes over *syncs* syncs."""
        total = self.base * items + self.per_byte * size_bytes + self.sync * syncs
        if self.jitter > 0 and rng is not None:
            total += total * self.jitter * rng.random()
        return total

    def __repr__(self) -> str:
        terms = [f"base={self.base:g}"]
        if self.per_byte:
            terms.append(f"per_byte={self.per_byte:g}")
        if self.sync:
            terms.append(f"sync={self.sync:g}")
        if self.jitter:
            terms.append(f"jitter={self.jitter:g}")
        return f"CostModel({', '.join(terms)})"
