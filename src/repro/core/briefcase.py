"""Briefcases: the named-folder collections that travel with agents.

Paper section 2: "our implementations associate with each agent a
*briefcase*, which contains a collection of named folders."  The briefcase
is also the argument list of a ``meet`` — each folder is one argument.

Briefcases must be cheap to ship and to carry, so they are a flat mapping,
with no auxiliary indexes, from folder name to a
:class:`~repro.core.folder.Folder` — or, for a folder of exactly one element
that nobody has asked for as an object yet (every named scalar argument:
``HOST``, ``CONTACT``, ``SEQ`` ...), to that one stored ``bytes`` element
itself: section 2's "list of elements, each ... an uninterpreted sequence of
bits", kept as the bits it already is, in a ``dict`` the cyclic collector
need not track.  The ``Folder`` is built the first time one is asked for
(``folder``, ``folders``, ``remove``, ``split``, ``merge``, iteration) or a
second element is ``put``, and then stays, so a held handle keeps observing
later edits.  Nothing observable depends on which form a folder is in.

Stored elements are immutable, so a move never copies them: a message carries
:meth:`Briefcase.snapshot` (the same names and elements under its own ``dict``)
and every arrival rebuilds with the validating :meth:`Briefcase.from_stored_items`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.errors import BriefcaseError, MissingFolderError
from repro.core.folder import (ELEMENT_FRAMING, FOLDER_FRAMING, Folder, _check_name,
                               _decode, _encode, _immutable, _is_stored)

__all__ = ["Briefcase"]

# Folder names given special meaning by the system agents.  Kept here (and
# re-exported by repro.core) so user code and system agents agree on spelling.
CODE_FOLDER = "CODE"
HOST_FOLDER = "HOST"
CONTACT_FOLDER = "CONTACT"
SITES_FOLDER = "SITES"


class Briefcase:
    """A collection of named folders carried by an agent.

    The operations mirror what TACOMA offered: create/fetch/delete folders
    by name, merge another briefcase in, split folders out, and measure the
    wire size for the bandwidth model.  Folder names are unique within a
    briefcase.
    """

    __slots__ = ("_folders",)

    def __init__(self, folders: Optional[Iterable[Folder]] = None):
        #: name -> Folder, or (exactly ``bytes``) the one element of an inline folder
        self._folders: Dict[str, Union[Folder, bytes]] = {}
        if folders is not None:
            for folder in folders:
                self.add(folder)

    # -- folder management ----------------------------------------------------

    def add(self, folder: Folder, replace: bool = False) -> Folder:
        """Add *folder*; refuse to overwrite an existing name unless *replace*."""
        if not isinstance(folder, Folder):
            raise BriefcaseError(f"expected a Folder, got {type(folder).__name__}")
        if folder.name in self._folders and not replace:
            raise BriefcaseError(f"briefcase already has a folder named {folder.name!r}")
        self._folders[folder.name] = folder
        return folder

    def folder(self, name: str, create: bool = False) -> Folder:
        """Return the folder called *name*.

        With ``create=True`` a missing folder is created empty, which is the
        common idiom for agents accumulating results as they roam.
        """
        try:
            folder = self._folders[name]
        except KeyError:
            if create:
                return self.add(Folder(name))
            raise MissingFolderError(f"briefcase has no folder named {name!r}") from None
        if type(folder) is bytes:  # first touch: its object, in the same position
            folder = self._folders[name] = Folder.from_stored(name, [folder])
        return folder

    def remove(self, name: str) -> Folder:
        """Remove and return the folder called *name*."""
        folder = self.folder(name)
        del self._folders[name]
        return folder

    def discard(self, name: str) -> Optional[Folder]:
        """Remove the folder called *name* if present; return it or ``None``."""
        return self.remove(name) if name in self._folders else None

    def has(self, name: str) -> bool:
        """True if a folder called *name* is present."""
        return name in self._folders

    def names(self) -> List[str]:
        """Folder names, in insertion order."""
        return list(self._folders)

    def folders(self) -> List[Folder]:
        """The folders themselves, in insertion order."""
        return [self.folder(name) for name in list(self._folders)]

    # -- element conveniences ---------------------------------------------------
    #
    # Very common pattern in agent code: a folder holding a single value that
    # acts as a named argument.  These helpers keep that pattern short.

    # They run several times per agent step, so they work on the stored form
    # directly (the inline element, or the folder's element list) rather than
    # through the folder's stack methods; a folder they create starts inline.

    def put(self, folder_name: str, element: Any) -> None:
        """Push *element* onto *folder_name*, creating the folder if needed."""
        folder = self._folders.get(folder_name)
        if folder is None:
            _check_name(folder_name)
            self._folders[folder_name] = _encode(element)
            return
        if type(folder) is bytes:  # a second element: the list is real now
            folder = self.folder(folder_name)
        folder._elements.append(_encode(element))

    def set(self, folder_name: str, element: Any) -> None:
        """Make *folder_name* contain exactly *element* (replacing prior contents)."""
        folder = self._folders.get(folder_name)
        if folder is None:
            _check_name(folder_name)
        elif type(folder) is not bytes:
            # In place: whoever holds this Folder keeps seeing the contents.
            folder._elements = [_encode(element)]
            return
        self._folders[folder_name] = _encode(element)

    def get(self, folder_name: str, default: Any = None) -> Any:
        """Return the top element of *folder_name*, or *default* if absent/empty."""
        folder = self._folders.get(folder_name)
        if type(folder) is bytes:
            return _decode(folder)
        if folder is None or not folder._elements:
            return default
        return _decode(folder._elements[-1])

    def take(self, folder_name: str) -> Any:
        """Pop and return the top element of *folder_name* (must exist)."""
        return self.folder(folder_name).pop()

    # -- whole-briefcase operations ----------------------------------------------

    def merge(self, other: "Briefcase", replace: bool = False) -> None:
        """Copy every folder of *other* into this briefcase.

        When both briefcases have a folder of the same name the elements of
        the other folder are appended, unless *replace* is set, in which case
        the other folder wins wholesale.

        Both paths copy what they take, normalised to immutable ``bytes``
        (the folder contract), so a mutable stored buffer that slipped past
        the normalisation is never shared between the two briefcases.
        """
        for folder in other.folders():
            if folder.name in self._folders and not replace:
                self.folder(folder.name)._elements.extend(  # noqa: SLF001
                    _immutable(folder._elements))
            else:
                self._folders[folder.name] = folder.copy()

    def split(self, names: Iterable[str]) -> "Briefcase":
        """Remove the named folders and return them as a new briefcase."""
        extracted = Briefcase()
        for name in list(names):
            extracted.add(self.remove(name))
        return extracted

    def copy(self) -> "Briefcase":
        """Deep-enough copy: folders are copied, elements are immutable bytes."""
        clone = Briefcase()
        clone._folders = {
            name: folder if type(folder) is bytes else folder.copy()
            for name, folder in self._folders.items()}
        return clone

    def clear(self) -> None:
        """Remove every folder."""
        self._folders.clear()

    # -- size model -----------------------------------------------------------------

    def wire_size(self) -> int:
        """Bytes this briefcase occupies when shipped between sites (what the
        network is charged — not the length of the pickle that carries it)."""
        total = 32  # briefcase framing
        for name, folder in self._folders.items():
            if type(folder) is bytes:
                total += (FOLDER_FRAMING + len(name.encode("utf-8"))
                          + len(folder) + ELEMENT_FRAMING)
            else:
                total += folder.wire_size()
        return total

    # -- dunders -----------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._folders

    def __len__(self) -> int:
        return len(self._folders)

    def __iter__(self) -> Iterator[Folder]:
        return iter(self.folders())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Briefcase):
            return NotImplemented
        return dict(self.stored_items()) == dict(other.stored_items())

    def __repr__(self) -> str:
        return f"Briefcase({', '.join(self._folders) or 'empty'})"

    # -- wire representation -----------------------------------------------------
    #
    # Every wire form (a message's snapshot, the dict below, the flat pickle of
    # repro.core.codec) is read with stored_items and rebuilt — and validated —
    # by from_stored_items, so shipping a briefcase never builds a Folder.

    def stored_items(self) -> List[Tuple[str, List[bytes]]]:
        """``(folder name, fresh list of stored elements)`` pairs, in order."""
        return [(name, [folder] if type(folder) is bytes else folder.raw_elements())
                for name, folder in self._folders.items()]

    def snapshot(self) -> "Briefcase":
        """What a message carries: an independent, *unchecked* briefcase over the
        same names and stored elements; a one-element folder travels inline."""
        clone = Briefcase()
        for name, elements in self.stored_items():
            if len(elements) == 1 and _is_stored(elements[0]):
                clone._folders[name] = elements[0]
            else:
                clone._folders[name] = folder = Folder(name)
                folder._elements = elements
        return clone

    @classmethod
    def from_stored_items(cls, items: Iterable[Tuple[str, List[bytes]]]) -> "Briefcase":
        """The inverse of :meth:`stored_items` (element lists are adopted),
        validating as ``add(Folder.from_stored(...))`` per pair would."""
        briefcase = cls()
        folders = briefcase._folders
        for name, elements in items:
            _check_name(name)
            if name in folders:
                raise BriefcaseError(f"briefcase already has a folder named {name!r}")
            if (type(elements) is list and len(elements) == 1
                    and _is_stored(elements[0])):
                folders[name] = elements[0]
            else:
                folders[name] = Folder.from_stored(name, elements)
        return briefcase

    def to_wire(self) -> dict:
        """Plain-dict representation used by the codec."""
        return {"folders": [{"name": name, "elements": elements}
                            for name, elements in self.stored_items()]}

    @classmethod
    def from_wire(cls, payload: dict) -> "Briefcase":
        """Rebuild a briefcase from :meth:`to_wire` output."""
        return cls.from_stored_items(
            (folder["name"], list(folder["elements"]))
            for folder in payload["folders"])
