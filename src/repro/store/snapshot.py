"""Cabinet snapshots: base images the WAL is compacted into and replayed over.

A :class:`CabinetImage` is the durable byte-level state of one cabinet:
``{folder name: tuple of raw stored elements}``.  Images are what the
store keeps between group commits; recovery rebuilds live
:class:`~repro.core.cabinet.FileCabinet` objects from images plus the
WAL's redo records (see :meth:`SiteStore.complete_recovery`).

Capturing copies only references to the immutable ``bytes`` elements, so a
snapshot is cheap in real memory; the *simulated* cost of writing it is
charged by the store's cost model, not here.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.cabinet import FileCabinet
from repro.core.folder import Folder

__all__ = ["CabinetImage", "capture_folder", "capture_cabinet", "restore_cabinet",
           "image_folder_count"]

#: durable byte-level state of one cabinet: folder name -> raw elements
CabinetImage = Dict[str, Tuple[bytes, ...]]


def capture_folder(folder: Folder) -> Tuple[bytes, ...]:
    """The raw stored elements of *folder*, frozen."""
    return tuple(folder.raw_elements())


def capture_cabinet(cabinet: FileCabinet) -> CabinetImage:
    """Freeze the full byte-level state of *cabinet*."""
    return {folder.name: capture_folder(folder) for folder in cabinet.folders()}


def restore_cabinet(cabinet: FileCabinet, image: CabinetImage) -> int:
    """Rebuild *cabinet*'s contents from *image*; returns folders restored.

    The cabinet is cleared first — its element indexes and readers'
    derived state with it, to be rebuilt from the restored bytes on their
    next use — then every imaged folder is re-added.
    """
    cabinet.clear()
    for folder_name, elements in image.items():
        folder = Folder(folder_name)
        folder._elements = list(elements)  # noqa: SLF001 - byte-exact restore
        cabinet.add(folder)
    return len(image)


def image_folder_count(images: Dict[str, CabinetImage],
                       cabinet: Optional[str] = None) -> int:
    """Total folders held across *images* (or in one cabinet's image)."""
    if cabinet is not None:
        return len(images.get(cabinet, {}))
    return sum(len(image) for image in images.values())
