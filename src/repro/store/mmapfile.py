"""Memory-mapped binary :class:`SnapshotStore`.

One file holds the whole columnar snapshot:

.. code-block:: text

    bytes 0..8    magic  b"AURSTOR1"
    bytes 8..16   little-endian uint64: header length H
    bytes 16..16+H  header JSON (utf-8)
    (zero padding to the next 16-byte boundary)
    array blobs, each at a 16-byte-aligned offset

The header carries everything non-numeric — attribute vocabularies and
per-parameter metadata — plus a layout entry ``[field, parameter,
dtype, shape, relative_offset]`` per array.  The carrier ids are an
array too (format 2): an ``int32`` ``(n, 4)`` blob of market, eNodeB,
face and slot, in slot order.  Format 1 kept them as header strings and
still opens.
Offsets are relative to the (alignment-rounded) end of the header, so
the header can be rendered before the blob positions are final.

:meth:`MmapSnapshotStore.load` maps the file with ``mmap.ACCESS_READ``
and returns a snapshot whose arrays are **read-only zero-copy views**
over the page cache: opening is one header parse plus an ``mmap``, and
the kernel shares the pages across every process that maps the same
file.  The snapshot keeps a :class:`FileBacking` record so pool payloads
ship as ``(path, layouts)`` references instead of array copies.

Writes are deterministic — parameters sorted by name, canonical JSON —
so persisting an unchanged snapshot reproduces the file byte for byte
(asserted by the artifact round-trip suite).
"""

from __future__ import annotations

import json
import mmap as _mmap
import os
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.columnar import ColumnarSnapshot, ParameterColumns
from repro.netmodel.identifiers import CarrierId, ENodeBId, MarketId
from repro.obs import metrics as obs_metrics
from repro.store.base import (
    SnapshotStore,
    SnapshotStoreError,
    record_open,
    record_persist,
)

MAGIC = b"AURSTOR1"
FORMAT_VERSION = 2
_PREFIX = len(MAGIC) + 8  # magic + header-length word


@dataclass(frozen=True)
class SegmentLayout:
    """Where one array lives inside a store file."""

    dtype: str
    shape: Tuple[int, ...]
    offset: int


def aligned(offset: int, alignment: int = 16) -> int:
    """Round ``offset`` up to the next ``alignment`` boundary."""
    return (offset + alignment - 1) // alignment * alignment


class MappedFile:
    """A read-only memory map of a snapshot-store file.

    Arrays read from it are zero-copy views over the page cache; keep
    the object referenced for as long as any view is alive (the owning
    snapshot holds it through its backing record).
    """

    __slots__ = ("path", "_file", "_map")

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._file = open(self.path, "rb")
        try:
            self._map = _mmap.mmap(
                self._file.fileno(), 0, access=_mmap.ACCESS_READ
            )
        except (ValueError, OSError):
            self._file.close()
            raise

    def size(self) -> int:
        return self._map.size()

    def read(self, layout: SegmentLayout) -> np.ndarray:
        """A read-only zero-copy view over the mapped file."""
        count = 1
        for dim in layout.shape:
            count *= int(dim)
        array = np.frombuffer(
            self._map,
            dtype=np.dtype(layout.dtype),
            count=count,
            offset=layout.offset,
        )
        return array.reshape(layout.shape)

    def close(self) -> None:
        try:
            self._map.close()
        finally:
            self._file.close()


def map_file(path: str) -> MappedFile:
    """Map a store file read-only (store open, pool worker attach)."""
    mapped = MappedFile(path)
    obs_metrics.counter(
        "repro_store_mmap_attach_total",
        "Read-only mmap attachments of snapshot-store files",
    ).inc(1.0)
    obs_metrics.counter(
        "repro_store_mmap_bytes_total",
        "Bytes mapped zero-copy from snapshot-store files",
    ).inc(float(mapped.size()))
    return mapped


@dataclass
class FileBacking:
    """Ties a snapshot's arrays to the store file they are mapped from.

    ``ColumnarSnapshot.__getstate__`` consults this record: while every
    buffer is still the mapped view created at open time, pickles carry
    only ``(path, layouts)`` and the receiver re-maps the file instead
    of copying the arrays.
    """

    path: str
    mapped: MappedFile
    layouts: Dict[Tuple[str, Optional[str]], SegmentLayout] = field(
        default_factory=dict
    )
    arrays: Dict[Tuple[str, Optional[str]], np.ndarray] = field(
        default_factory=dict
    )


def _snapshot_arrays(
    snapshot: ColumnarSnapshot,
) -> List[Tuple[str, Optional[str], np.ndarray]]:
    """Every buffer in the file's canonical (deterministic) order."""
    arrays: List[Tuple[str, Optional[str], np.ndarray]] = [
        ("carrier_ids", None, snapshot.carrier_rows()),
        ("codes", None, snapshot.codes),
    ]
    for name in sorted(snapshot.parameters):
        columns = snapshot.parameters[name]
        arrays.append(("sources", name, columns.sources))
        if columns.neighbors is not None:
            arrays.append(("neighbors", name, columns.neighbors))
        arrays.append(("label_codes", name, columns.label_codes))
    return arrays


def _carrier_ids(rows: np.ndarray) -> List[CarrierId]:
    """Carrier ids from their ``(market, eNodeB, face, slot)`` rows,
    sharing one ``MarketId`` and one ``ENodeBId`` per distinct value."""
    markets: Dict[int, MarketId] = {}
    enodebs: Dict[Tuple[int, int], ENodeBId] = {}
    carrier_ids = []
    for market, enodeb, face, slot in rows.tolist():
        site = enodebs.get((market, enodeb))
        if site is None:
            owner = markets.get(market)
            if owner is None:
                owner = markets[market] = MarketId(market)
            site = enodebs[(market, enodeb)] = ENodeBId(owner, enodeb)
        carrier_ids.append(CarrierId(site, face, slot))
    return carrier_ids


class MmapSnapshotStore(SnapshotStore):
    kind = "mmap"

    def __init__(self, path: str) -> None:
        self.path = str(path)

    # -- write ------------------------------------------------------------

    def persist(self, snapshot: ColumnarSnapshot) -> Dict:
        started = time.perf_counter()
        arrays = _snapshot_arrays(snapshot)
        layouts = []
        offset = 0
        for field, name, array in arrays:
            offset = aligned(offset)
            layouts.append(
                [field, name, array.dtype.str, list(array.shape), offset]
            )
            offset += array.nbytes
        header = {
            "kind": "auric-columnar-store",
            "format": FORMAT_VERSION,
            "vocabs": [list(vocab) for vocab in snapshot.vocabs],
            "parameters": [
                {
                    "parameter": name,
                    "pairwise": snapshot.parameters[name].pairwise,
                    "label_vocab": list(snapshot.parameters[name].label_vocab),
                }
                for name in sorted(snapshot.parameters)
            ],
            "layouts": layouts,
        }
        header_bytes = json.dumps(
            header, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
        data_start = aligned(_PREFIX + len(header_bytes))
        tmp = f"{self.path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            for (_, _, array), layout in zip(arrays, layouts):
                target = data_start + layout[4]
                fh.write(b"\x00" * (target - fh.tell()))
                fh.write(np.ascontiguousarray(array).tobytes())
        os.replace(tmp, self.path)
        nbytes = os.path.getsize(self.path)
        record_persist(self.kind, time.perf_counter() - started, nbytes)
        return {
            "kind": self.kind,
            "path": self.path,
            "carriers": len(snapshot.carrier_ids),
            "parameters": sorted(snapshot.parameters),
            "bytes": nbytes,
        }

    # -- read -------------------------------------------------------------

    def _read_header(self) -> Tuple[Dict, int]:
        with open(self.path, "rb") as fh:
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise SnapshotStoreError(
                    f"{self.path} is not an auric mmap store (bad magic)"
                )
            (header_len,) = struct.unpack("<Q", fh.read(8))
            try:
                header = json.loads(fh.read(header_len).decode("utf-8"))
            except ValueError as exc:
                raise SnapshotStoreError(
                    f"corrupt store header in {self.path}: {exc}"
                ) from exc
        if header.get("format", 0) > FORMAT_VERSION:
            raise SnapshotStoreError(
                f"{self.path} uses store format {header.get('format')}; "
                f"this build reads up to {FORMAT_VERSION}"
            )
        return header, aligned(_PREFIX + header_len)

    def load(self) -> Optional[ColumnarSnapshot]:
        if not self.exists():
            return None
        started = time.perf_counter()
        header, data_start = self._read_header()
        mapped = map_file(self.path)
        layouts: Dict[Tuple[str, Optional[str]], SegmentLayout] = {}
        buffers: Dict[Tuple[str, Optional[str]], np.ndarray] = {}
        for field, name, dtype, shape, rel_offset in header["layouts"]:
            layout = SegmentLayout(
                dtype=dtype, shape=tuple(shape), offset=data_start + rel_offset
            )
            layouts[(field, name)] = layout
            buffers[(field, name)] = mapped.read(layout)
        parameters: Dict[str, ParameterColumns] = {}
        for meta in header["parameters"]:
            name = meta["parameter"]
            parameters[name] = ParameterColumns(
                parameter=name,
                pairwise=bool(meta["pairwise"]),
                sources=buffers[("sources", name)],
                neighbors=buffers.get(("neighbors", name)),
                label_codes=buffers[("label_codes", name)],
                label_vocab=list(meta["label_vocab"]),
            )
        if "carrier_ids" in header:  # format 1
            from repro.dataio.keys import carrier_key_from_str

            carrier_ids = [
                carrier_key_from_str(t) for t in header["carrier_ids"]
            ]
        else:
            carrier_ids = _carrier_ids(buffers.pop(("carrier_ids", None)))
        snapshot = ColumnarSnapshot(
            carrier_ids=carrier_ids,
            codes=buffers[("codes", None)],
            vocabs=[list(vocab) for vocab in header["vocabs"]],
            parameters=parameters,
        )
        snapshot._backing = FileBacking(
            path=self.path, mapped=mapped, layouts=layouts, arrays=buffers
        )
        record_open(self.kind, time.perf_counter() - started, mapped.size())
        return snapshot

    # -- lifecycle --------------------------------------------------------

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def describe(self) -> Dict:
        info: Dict = {"kind": self.kind, "path": self.path}
        if self.exists():
            info["bytes"] = os.path.getsize(self.path)
        return info
