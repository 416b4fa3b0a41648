"""The :class:`SnapshotStore` persistence surface.

A ``SnapshotStore`` keeps an encoded
:class:`~repro.core.columnar.ColumnarSnapshot` outside the engine for
the two layers that need one: serve artifacts (``save_engine``
persists it next to the artifact, ``load_engine`` opens it) and the
refresher (re-persists after refits):

* :meth:`SnapshotStore.persist` — write the current snapshot out.
* :meth:`SnapshotStore.load` — open what was persisted (``None`` when
  nothing is there), zero-copy where the backend supports it.
* :meth:`SnapshotStore.exists` — whether a persisted snapshot is
  available at all.

Two implementations ship: in-memory (:mod:`repro.store.memory`, the
default — nothing leaves the process) and the binary mmap store
(:mod:`repro.store.mmapfile`), the only persisted form of a snapshot.
Its :meth:`load` maps the file read-only and hands out zero-copy array
views; a pool worker handed such a snapshot re-maps the same file
instead of receiving copies.  A loaded engine serves from its
artifact's samples and never reads the snapshot: the mapped snapshot
spares only the encoding pass of its first refit or fit.

Backends are selected per engine through ``AuricConfig.store`` /
``--store`` and constructed with :func:`repro.store.open_store`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict

from repro.obs import metrics as obs_metrics

#: Backend names accepted by ``open_store`` / ``AuricConfig.store``.
STORE_KINDS = ("memory", "mmap")


class SnapshotStoreError(Exception):
    """A snapshot store could not persist or open."""


class SnapshotStore(ABC):
    """One load/persist surface for columnar snapshots."""

    kind: str = "abstract"

    @abstractmethod
    def persist(self, snapshot) -> Dict:
        """Write ``snapshot`` out; returns a summary dict (kind, sizes)."""

    @abstractmethod
    def load(self):
        """The persisted snapshot, or ``None``.

        Backends that support it return arrays as zero-copy views over
        the persisted bytes; callers must treat them as immutable.
        """

    @abstractmethod
    def exists(self) -> bool:
        """Whether a persisted snapshot is available."""

    def describe(self) -> Dict:
        """Cheap metadata for logs and artifact summaries."""
        return {"kind": self.kind}


# -- shared instrumentation ----------------------------------------------


def record_persist(kind: str, seconds: float, nbytes: int) -> None:
    obs_metrics.counter(
        "repro_store_persist_total", "Snapshot-store persist operations"
    ).inc(1.0)
    obs_metrics.counter(
        "repro_store_persist_seconds_total",
        "Wall-clock seconds spent persisting snapshots",
    ).inc(float(seconds))
    obs_metrics.counter(
        "repro_store_persist_bytes_total",
        "Bytes written by snapshot-store persists",
    ).inc(float(nbytes))


def record_open(kind: str, seconds: float, nbytes: int) -> None:
    obs_metrics.counter(
        "repro_store_open_total", "Snapshot-store load/open operations"
    ).inc(1.0)
    obs_metrics.counter(
        "repro_store_open_seconds_total",
        "Wall-clock seconds spent opening persisted snapshots",
    ).inc(float(seconds))
    obs_metrics.counter(
        "repro_store_open_bytes_total",
        "Bytes made available by snapshot-store opens",
    ).inc(float(nbytes))
