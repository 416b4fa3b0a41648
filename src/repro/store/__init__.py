"""``repro.store`` — columnar-snapshot persistence.

One :class:`~repro.store.base.SnapshotStore` protocol consumed by serve
artifacts (save/load) and the refresher (persist after refits); the
mmap store is the only persisted form of a snapshot.  See
:mod:`repro.store.base` for the rationale and
:mod:`repro.store.mmapfile` for the file format.
"""

from __future__ import annotations

from typing import Optional

from repro.store.base import STORE_KINDS, SnapshotStore, SnapshotStoreError
from repro.store.memory import MemorySnapshotStore
from repro.store.mmapfile import MmapSnapshotStore


def open_store(kind: str, path: Optional[str] = None) -> SnapshotStore:
    """Construct the store backend named by ``AuricConfig.store``.

    ``memory`` needs no path; ``mmap`` persists at ``path``.
    """
    if kind == "memory":
        return MemorySnapshotStore()
    if kind == "mmap":
        if path is None:
            raise SnapshotStoreError(
                f"snapshot store kind {kind!r} requires a path"
            )
        return MmapSnapshotStore(path)
    raise SnapshotStoreError(
        f"unknown snapshot store kind {kind!r}; expected one of {STORE_KINDS}"
    )


__all__ = [
    "STORE_KINDS",
    "SnapshotStore",
    "SnapshotStoreError",
    "MemorySnapshotStore",
    "MmapSnapshotStore",
    "open_store",
]
