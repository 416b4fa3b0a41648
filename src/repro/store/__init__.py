"""``repro.store`` — the mmap snapshot store.

:class:`MmapSnapshotStore` persists an encoded
:class:`~repro.core.columnar.ColumnarSnapshot` to one binary file next
to a saved artifact and maps it back read-only.  Serve artifacts are
its one consumer: :func:`repro.serve.save_engine` writes the file for
an engine configured with ``AuricConfig.store="mmap"``, and
:func:`repro.serve.engine_from_dict` opens it.  See
:mod:`repro.store.mmapfile` for the file format.
"""

from __future__ import annotations

from repro.store.mmapfile import MmapSnapshotStore, SnapshotStoreError

__all__ = ["MmapSnapshotStore", "SnapshotStoreError"]
