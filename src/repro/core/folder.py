"""Folders: the basic unit of agent-carried data (paper section 2).

A *folder* is "a list of elements, each of which is an uninterpreted
sequence of bits.  Because it is a list, it can be treated as a stack or a
queue."  Folders must be cheap to move between sites, so the representation
is a flat list of ``bytes`` with no index structures.

The paper stresses that folder contents are *uninterpreted and typeless*,
which is what lets a folder hold another agent, a briefcase, or a whole
queued meeting request (section 4).  To keep user code pleasant, this class
accepts ``bytes``, ``str`` (encoded as UTF-8) and arbitrary picklable
Python objects (encoded through :mod:`repro.core.codec` helpers); whatever
goes in, the stored element is always ``bytes``.
"""

from __future__ import annotations

import pickle
from typing import Any, Iterable, Iterator, List, Optional

from repro.core.errors import EmptyFolderError, FolderError

__all__ = ["Folder"]

# A tiny tag prefix distinguishes raw bytes from pickled objects so that
# ``pop_object`` can refuse to unpickle something that was stored raw.
_RAW_TAG = b"R"
_PICKLE_TAG = b"P"
_TEXT_TAG = b"T"

#: the size model's fixed charges (a briefcase charges an inline folder the same)
FOLDER_FRAMING = 16
ELEMENT_FRAMING = 4


def _check_name(name: Any) -> None:
    """A folder name is a non-empty string (with or without a Folder object)."""
    if not name or not isinstance(name, str):
        raise FolderError("folder name must be a non-empty string")


def _is_stored(element: Any) -> bool:
    """The one test of a stored element: exactly ``bytes``.  Elements are shared, not
    copied, so a ``bytearray`` (mutable) or a ``bytes`` subclass (anything) is not one."""
    return type(element) is bytes


def _immutable(elements: Iterable[bytes]) -> List[bytes]:
    """Stored *elements* as a fresh list of immutable ``bytes``: a mutable
    buffer smuggled into the source is copied (an exact ``bytes`` is shared)."""
    return [stored if _is_stored(stored) else bytes(stored) for stored in elements]


def _encode(element: Any) -> bytes:
    """Encode *element* into the tagged byte representation stored in folders."""
    kind = type(element)  # exact types first: no isinstance call for the common cases
    if kind is bytes:
        return _RAW_TAG + element
    if kind is str:
        return _TEXT_TAG + element.encode("utf-8")
    if isinstance(element, (bytes, bytearray)):
        return _RAW_TAG + bytes(element)
    if isinstance(element, str):
        return _TEXT_TAG + element.encode("utf-8")
    try:
        return _PICKLE_TAG + pickle.dumps(element, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # pragma: no cover - exercised via FolderError tests
        raise FolderError(f"element of type {type(element).__name__} "
                          f"cannot be stored in a folder: {exc}") from exc


def _decode(stored: bytes) -> Any:
    """Decode a tagged byte element back into the Python value that was stored."""
    tag = stored[:1]
    if tag == _TEXT_TAG:  # first: most reads are named string arguments
        return str(stored[1:], "utf-8")
    if tag == _RAW_TAG:
        return stored[1:]
    if tag == _PICKLE_TAG:
        return pickle.loads(stored[1:])
    raise FolderError(f"corrupt folder element (unknown tag {tag!r})")


class Folder:
    """An ordered list of uninterpreted byte elements.

    The two access disciplines of the paper are both provided:

    * **stack**: :meth:`push` / :meth:`pop` / :meth:`peek` operate on the
      *top* (the end of the list);
    * **queue**: :meth:`enqueue` (an alias of :meth:`push`) /
      :meth:`dequeue` / :meth:`front` operate FIFO.

    Elements are stored as tagged ``bytes``; :meth:`pop` and friends return
    the original value (``bytes``, ``str`` or unpickled object).  The raw
    stored form is reachable through :meth:`raw_elements` and is what the
    wire-size model charges for.
    """

    __slots__ = ("name", "_elements")

    def __init__(self, name: str, elements: Optional[Iterable[Any]] = None):
        _check_name(name)
        self.name = name
        self._elements: List[bytes] = (
            [] if elements is None else [_encode(element) for element in elements])

    # -- stack discipline ---------------------------------------------------

    def push(self, element: Any) -> None:
        """Append *element* to the top of the folder."""
        self._elements.append(_encode(element))

    def pop(self) -> Any:
        """Remove and return the top (most recently pushed) element."""
        if not self._elements:
            raise EmptyFolderError(f"folder {self.name!r} is empty")
        return _decode(self._elements.pop())

    def peek(self) -> Any:
        """Return the top element without removing it."""
        if not self._elements:
            raise EmptyFolderError(f"folder {self.name!r} is empty")
        return _decode(self._elements[-1])

    # -- queue discipline ---------------------------------------------------

    def enqueue(self, element: Any) -> None:
        """Append *element* to the back of the queue (same end as :meth:`push`)."""
        self.push(element)

    def dequeue(self) -> Any:
        """Remove and return the oldest element (FIFO order)."""
        if not self._elements:
            raise EmptyFolderError(f"folder {self.name!r} is empty")
        return _decode(self._elements.pop(0))

    def front(self) -> Any:
        """Return the oldest element without removing it."""
        if not self._elements:
            raise EmptyFolderError(f"folder {self.name!r} is empty")
        return _decode(self._elements[0])

    # -- whole-folder operations --------------------------------------------

    def clear(self) -> None:
        """Remove every element."""
        self._elements.clear()

    def extend(self, elements: Iterable[Any]) -> None:
        """Push every element of *elements* in order."""
        self._elements.extend([_encode(element) for element in elements])

    def elements(self) -> List[Any]:
        """Return all elements, oldest first, decoded to their original values."""
        return [_decode(stored) for stored in self._elements]

    def raw_elements(self) -> List[bytes]:
        """Return the stored (tagged) byte elements, oldest first."""
        return list(self._elements)

    def replace(self, elements: Iterable[Any]) -> None:
        """Replace the folder contents with *elements* (oldest first)."""
        self.clear()
        self.extend(elements)

    def copy(self) -> "Folder":
        """Return an independent copy of this folder.

        Stored elements are normalised to immutable ``bytes`` on the way, so
        a mutable buffer smuggled into the source cannot be shared by the
        clone (copying an immutable ``bytes`` object is free — CPython
        returns the same object).
        """
        clone = Folder.__new__(Folder)  # the name was validated when self was built
        clone.name = self.name
        clone._elements = _immutable(self._elements)
        return clone

    # -- size model ----------------------------------------------------------

    def wire_size(self) -> int:
        """Bytes this folder occupies when shipped between sites.

        The model charges the encoded element bytes plus a small fixed
        per-element and per-folder framing overhead.  This is what every
        bytes-on-the-wire comparison measures.
        """
        elements = self._elements
        return (FOLDER_FRAMING + len(self.name.encode("utf-8"))
                + sum(map(len, elements)) + ELEMENT_FRAMING * len(elements))

    # -- dunder conveniences --------------------------------------------------

    def __len__(self) -> int:
        return len(self._elements)

    def __bool__(self) -> bool:
        # An empty folder is still a folder; truthiness follows emptiness to
        # make ``while folder:`` drain loops natural.
        return bool(self._elements)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.elements())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Folder):
            return NotImplemented
        return self.name == other.name and self._elements == other._elements

    def __repr__(self) -> str:
        return f"Folder({self.name!r}, {len(self._elements)} elements)"

    # -- (de)serialisation helpers used by the codec -------------------------

    def to_wire(self) -> dict:
        """Return a plain-dict representation suitable for the codec."""
        return {"name": self.name, "elements": list(self._elements)}

    @classmethod
    def from_wire(cls, payload: dict) -> "Folder":
        """Rebuild a folder from :meth:`to_wire` output."""
        return cls.from_stored(payload["name"], list(payload["elements"]))

    @classmethod
    def from_stored(cls, name: str, elements: List[bytes]) -> "Folder":
        """A folder around already-encoded *elements* (adopted, not copied).

        The inverse of ``(folder.name, folder.raw_elements())``: the name is
        validated as usual and *elements* must be a list of ``bytes``.
        """
        folder = cls(name)
        if type(elements) is not list or not all(map(_is_stored, elements)):
            raise FolderError("wire payload for a folder must be a list of bytes elements")
        folder._elements = elements
        return folder
