"""File cabinets: site-local groupings of folders (paper section 2).

"Just as an agent's folders are grouped into briefcases, we have found it
useful to group site-local folders.  We refer to such a grouping as a *file
cabinet*.  File cabinets support the same operations as briefcases, but we
expect these operations to be implemented differently" — cabinets are
optimised for access at the cost of being expensive to move, and "can be
flushed to disk when permanence is required" (section 6) — which is
:mod:`repro.store`'s business: a site's durable store journals the cabinets
made durable and rebuilds them after a crash.

This implementation keeps folders in a dict plus a per-folder element index
(the set of a folder's stored elements) so membership queries used by agents
such as the diffusion agent are O(1).  The deliberately large
:meth:`move_cost` stands against the briefcase's cheap wire size
(``tests/unit/test_cabinet.py::TestCostModel``).

Access-side structures like that index are the asymmetry the paper
sanctions: a briefcase stays a flat list of bytes because it must be cheap
to move, a cabinet may keep whatever makes reads cheap because it stays
put.  The index is *derived* state: built from the stored bytes on a
folder's first ``contains_element``, kept up by ``put`` from then on, dropped
by any other edit — so a folder that is only appended to (a mailbox, a
release log, parked checkpoints) never pays for it.  :meth:`derived` extends
the same licence, and the same lifetime, to the cabinet's readers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Set

from repro.core.briefcase import Briefcase
from repro.core.errors import CabinetError, MissingFolderError
from repro.core.folder import Folder, _encode, _immutable

__all__ = ["FileCabinet"]


class FileCabinet:
    """A site-local folder store with access-time indexes.

    The cabinet mirrors the briefcase API (``folder``, ``put``, ``get``,
    ``has`` ...) so agent code can treat "local storage" and "carried
    storage" uniformly, which is exactly the symmetry the paper points out.
    On top of that it keeps an element index per queried folder so that
    :meth:`contains_element` — the operation the diffusion agent's
    "have I visited this site already?" check needs — does not scan lists.
    """

    #: charged per byte when (rarely) a cabinet is moved between sites; the
    #: factor models re-building indexes and copying the backing store.
    MOVE_COST_FACTOR = 8

    def __init__(self, name: str, site: Optional[str] = None):
        if not name:
            raise CabinetError("cabinet name must be a non-empty string")
        self.name = name
        self.site = site
        self._folders: Dict[str, Folder] = {}
        #: folder name -> set of its stored elements, once it has been queried
        self._index: Dict[str, Set[bytes]] = {}
        #: per-folder read-side state kept by readers (see :meth:`derived`);
        #: dies with ``_index``
        self._derived: Dict[str, Dict[Any, Any]] = {}
        #: mutation hook installed by a durable SiteStore (see repro.store);
        #: called with the folder name on every cabinet-level mutation
        self._store_hook: Optional[Callable[[str], None]] = None

    # -- durability hook ---------------------------------------------------------

    def attach_store(self, hook: Callable[[str], None]) -> None:
        """Route cabinet-level mutations to a durable store's journal.

        The hook sees every change to a folder, because folders change only
        through the cabinet API: ``put`` appends, ``add(..., replace=True)``
        rewrites a whole folder, ``deposit`` merges, ``remove`` drops (and
        ``folder(..., create=True)`` creates) — one notice each, a ``put``
        that creates its folder included.  A :class:`Folder` got from
        :meth:`folder` is for reading; editing it in place bypasses the
        hook and the element index.
        """
        self._store_hook = hook

    def _notify(self, folder_name: str) -> None:
        if self._store_hook is not None:
            self._store_hook(folder_name)

    # -- folder access (briefcase-compatible surface) ---------------------------

    def add(self, folder: Folder, replace: bool = False) -> Folder:
        """Add *folder*; refuse to overwrite an existing name unless *replace*."""
        if not isinstance(folder, Folder):
            raise CabinetError(f"expected a Folder, got {type(folder).__name__}")
        if folder.name in self._folders and not replace:
            raise CabinetError(f"cabinet already has a folder named {folder.name!r}")
        self._folders[folder.name] = folder
        self._forget(folder.name)
        self._notify(folder.name)
        return folder

    def folder(self, name: str, create: bool = False) -> Folder:
        """Return (optionally creating) the folder called *name*."""
        if name in self._folders:
            return self._folders[name]
        if create:
            return self.add(Folder(name))
        raise MissingFolderError(f"cabinet {self.name!r} has no folder named {name!r}")

    def remove(self, name: str) -> Folder:
        """Remove and return the folder called *name*."""
        try:
            folder = self._folders.pop(name)
        except KeyError:
            raise MissingFolderError(
                f"cabinet {self.name!r} has no folder named {name!r}") from None
        self._forget(name)
        self._notify(name)
        return folder

    def has(self, name: str) -> bool:
        """True if the cabinet holds a folder called *name*."""
        return name in self._folders

    def clear(self) -> None:
        """Drop every folder (crash semantics: volatile state is discarded).

        Used by the durable store when a site crashes; deliberately does
        *not* notify the store hook — the store itself drives the clearing.
        """
        self._folders.clear()
        self._index.clear()
        self._derived.clear()

    def names(self) -> List[str]:
        """All folder names: in insertion order while live, in the durable
        image's order after crash recovery (a folder removed and re-added
        comes back in its old slot)."""
        return list(self._folders)

    def folders(self) -> List[Folder]:
        """All folders in the cabinet."""
        return list(self._folders.values())

    # -- element conveniences ----------------------------------------------------

    def put(self, folder_name: str, element: Any) -> None:
        """Push *element* into *folder_name*, creating the folder if needed."""
        folder = self._folders.get(folder_name)
        if folder is None:
            folder = self._folders[folder_name] = Folder(folder_name)
            self._forget(folder_name)
        folder.push(element)
        index = self._index.get(folder_name)
        if index is not None:
            index.add(folder._elements[-1])  # noqa: SLF001
        self._notify(folder_name)

    def get(self, folder_name: str, default: Any = None) -> Any:
        """Top element of *folder_name*, or *default*."""
        if not self.has(folder_name):
            return default
        folder = self.folder(folder_name)
        if not folder:
            return default
        return folder.peek()

    def contains_element(self, folder_name: str, element: Any) -> bool:
        """O(1) membership test: is *element* stored in *folder_name*?

        This is the primitive the flooding/diffusion example relies on to
        terminate instead of cloning without bound.
        """
        folder = self._folders.get(folder_name)
        if folder is None:
            return False
        index = self._index.get(folder_name)
        if index is None:
            index = self._index[folder_name] = set(folder._elements)  # noqa: SLF001
        return _encode(element) in index

    def elements(self, folder_name: str) -> List[Any]:
        """All elements of *folder_name* (empty list if the folder is missing)."""
        if folder_name not in self._folders:
            return []
        return self._folders[folder_name].elements()

    def derived(self, folder_name: str) -> Dict[Any, Any]:
        """Scratch dict for state a reader derives from *folder_name*'s elements.

        A reader that would otherwise decode the whole folder on every call
        (the rear guards' release log) parks what it worked out here and
        next time decodes only what ``put`` appended since.  The dict is
        valid exactly as long as the folder has only been appended to: it is
        dropped wherever the element index is (``add``,
        ``deposit``, ``remove``, ``clear``), so after a rewrite or a
        crash-recovery restore the reader starts from the stored bytes
        again.  It is never journaled, flushed, sized or moved.
        """
        derived = self._derived.get(folder_name)
        if derived is None:
            derived = self._derived[folder_name] = {}
        return derived

    # -- briefcase interchange ------------------------------------------------------

    def deposit(self, briefcase: Briefcase, names: Optional[Iterable[str]] = None) -> None:
        """Copy folders from a briefcase into the cabinet (merging by name).

        This is how an agent "leaves information behind" at a site.  Like
        :meth:`Briefcase.merge`, it normalises what it copies to ``bytes``.
        """
        wanted = set(names) if names is not None else None
        for name, elements in briefcase.stored_items():
            if wanted is not None and name not in wanted:
                continue
            mine = self._folders.get(name)
            if mine is None:
                self._folders[name] = Folder.from_stored(name, _immutable(elements))
            else:
                mine._elements.extend(_immutable(elements))  # noqa: SLF001
            self._forget(name)
            self._notify(name)

    def withdraw(self, names: Iterable[str]) -> Briefcase:
        """Copy the named folders out into a fresh briefcase (cabinet keeps them)."""
        briefcase = Briefcase()
        for name in names:
            if name in self._folders:
                briefcase.add(self._folders[name].copy())
        return briefcase

    # -- cost model ---------------------------------------------------------------

    def storage_size(self) -> int:
        """Bytes of folder payload stored in the cabinet."""
        return sum(folder.wire_size() for folder in self._folders.values())

    def move_cost(self) -> int:
        """Simulated cost (bytes-equivalent) of relocating this cabinet.

        Deliberately much larger than the storage size: cabinets trade
        mobility for access speed (paper section 2).
        """
        return self.storage_size() * self.MOVE_COST_FACTOR

    # -- internals -----------------------------------------------------------------

    def _forget(self, folder_name: str) -> None:
        """Drop everything derived from *folder_name*'s previous contents."""
        self._index.pop(folder_name, None)
        self._derived.pop(folder_name, None)

    # -- dunders ---------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._folders

    def __len__(self) -> int:
        return len(self._folders)

    def __repr__(self) -> str:
        return f"FileCabinet({self.name!r}, site={self.site!r}, {len(self._folders)} folders)"
