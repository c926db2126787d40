"""Briefcases: the named-folder collections that travel with agents.

Paper section 2: "our implementations associate with each agent a
*briefcase*, which contains a collection of named folders."  The briefcase
is also the argument list of a ``meet`` — each folder is one argument.

Briefcases must be cheap to ship, so they are a flat mapping from folder
name to :class:`~repro.core.folder.Folder` with no auxiliary indexes.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.core.errors import BriefcaseError, MissingFolderError
from repro.core.folder import Folder, _decode, _encode

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
        self._folders: Dict[str, Folder] = {}
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
            return self._folders[name]
        except KeyError:
            if create:
                return self.add(Folder(name))
            raise MissingFolderError(f"briefcase has no folder named {name!r}") from None

    def remove(self, name: str) -> Folder:
        """Remove and return the folder called *name*."""
        try:
            return self._folders.pop(name)
        except KeyError:
            raise MissingFolderError(f"briefcase has no folder named {name!r}") from None

    def discard(self, name: str) -> Optional[Folder]:
        """Remove the folder called *name* if present; return it or ``None``."""
        return self._folders.pop(name, None)

    def has(self, name: str) -> bool:
        """True if a folder called *name* is present."""
        return name in self._folders

    def names(self) -> List[str]:
        """Folder names, in insertion order."""
        return list(self._folders)

    def folders(self) -> List[Folder]:
        """The folders themselves, in insertion order."""
        return list(self._folders.values())

    # -- element conveniences ---------------------------------------------------
    #
    # Very common pattern in agent code: a folder holding a single value that
    # acts as a named argument.  These helpers keep that pattern short.

    # They run several times per agent step, so they work on the folder's
    # stored element list directly rather than through its stack methods.

    def put(self, folder_name: str, element: Any) -> None:
        """Push *element* onto *folder_name*, creating the folder if needed."""
        folder = self._folders.get(folder_name)
        if folder is None:
            folder = self._folders[folder_name] = Folder(folder_name)
        folder._elements.append(_encode(element))

    def set(self, folder_name: str, element: Any) -> None:
        """Make *folder_name* contain exactly *element* (replacing prior contents)."""
        folder = self._folders.get(folder_name)
        if folder is None:
            folder = self._folders[folder_name] = Folder(folder_name)
        folder._elements = [_encode(element)]

    def get(self, folder_name: str, default: Any = None) -> Any:
        """Return the top element of *folder_name*, or *default* if absent/empty."""
        folder = self._folders.get(folder_name)
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

        Both paths copy what they take: the append path used to splice the
        other folder's stored element objects straight into ``mine``, so a
        mutable stored buffer (anything that slipped past the bytes
        normalisation) was shared between the two briefcases — while the
        replace path always copied.  Merged elements are now normalised to
        immutable ``bytes``, matching the folder contract.
        """
        for folder in other.folders():
            if folder.name in self._folders and not replace:
                mine = self._folders[folder.name]
                for stored in folder.raw_elements():
                    # noqa: SLF001 - same-class access
                    mine._elements.append(stored if type(stored) is bytes
                                          else bytes(stored))
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
        for folder in self._folders.values():
            clone.add(folder.copy())
        return clone

    def clear(self) -> None:
        """Remove every folder."""
        self._folders.clear()

    # -- size model -----------------------------------------------------------------

    def wire_size(self) -> int:
        """Bytes this briefcase occupies when shipped between sites."""
        framing = 32
        return framing + sum(map(Folder.wire_size, self._folders.values()))

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
        return self._folders == other._folders

    def __repr__(self) -> str:
        return f"Briefcase({', '.join(self._folders) or 'empty'})"

    # -- wire representation -----------------------------------------------------

    def to_wire(self) -> dict:
        """Plain-dict representation used by the codec."""
        return {"folders": [folder.to_wire() for folder in self._folders.values()]}

    @classmethod
    def from_wire(cls, payload: dict) -> "Briefcase":
        """Rebuild a briefcase from :meth:`to_wire` output."""
        briefcase = cls()
        for folder_payload in payload["folders"]:
            briefcase.add(Folder.from_wire(folder_payload))
        return briefcase
