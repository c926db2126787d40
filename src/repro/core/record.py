"""The base of the plain records built on ``import repro`` (the syscalls,
messages, link, failure and cost records): not dataclasses, whose decorator
generates and ``exec``s each class's methods when the module is imported.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["Record"]


class Record:
    """``==`` and ``repr`` over ``_fields``, as a dataclass has them; like a
    mutable dataclass, unhashable unless the class defines ``__hash__``."""

    __slots__ = ()
    #: the attributes ``==`` compares and ``repr`` shows, in order
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({values})"
