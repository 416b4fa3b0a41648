"""In-process :class:`SnapshotStore` (the default backend).

Holds a reference to the persisted snapshot and hands out shallow views
of it — the arrays are shared, so ``load`` is zero-copy by construction.
Nothing touches the filesystem; this is the behaviour every caller had
before external stores existed.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.core.columnar import ColumnarSnapshot
from repro.store.base import SnapshotStore, record_open, record_persist


class MemorySnapshotStore(SnapshotStore):
    kind = "memory"

    def __init__(self) -> None:
        self._snapshot: Optional[ColumnarSnapshot] = None

    def persist(self, snapshot: ColumnarSnapshot) -> Dict:
        started = time.perf_counter()
        self._snapshot = snapshot
        nbytes = sum(array.nbytes for _, _, array in snapshot._arrays())
        record_persist(self.kind, time.perf_counter() - started, nbytes)
        return {
            "kind": self.kind,
            "carriers": len(snapshot.carrier_ids),
            "parameters": sorted(snapshot.parameters),
            "bytes": nbytes,
        }

    def load(self) -> Optional[ColumnarSnapshot]:
        started = time.perf_counter()
        held = self._snapshot
        if held is None:
            return None
        view = ColumnarSnapshot(
            carrier_ids=held.carrier_ids,
            codes=held.codes,
            vocabs=held.vocabs,
            parameters=dict(held.parameters),
        )
        nbytes = sum(array.nbytes for _, _, array in view._arrays())
        record_open(self.kind, time.perf_counter() - started, nbytes)
        return view

    def exists(self) -> bool:
        return self._snapshot is not None

    def describe(self) -> Dict:
        return {"kind": self.kind, "held": self._snapshot is not None}
