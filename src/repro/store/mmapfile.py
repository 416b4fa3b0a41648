"""The memory-mapped snapshot store file.

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
the views keep the map alive.  A file shorter than its header or its
layouts says is refused with :class:`SnapshotStoreError`.

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
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.columnar import ColumnarSnapshot, ParameterColumns
from repro.netmodel.identifiers import CarrierId, ENodeBId, MarketId
from repro.obs import metrics as obs_metrics

MAGIC = b"AURSTOR1"
FORMAT_VERSION = 2
_PREFIX = len(MAGIC) + 8  # magic + header-length word


class SnapshotStoreError(Exception):
    """A snapshot store could not persist or open."""


def aligned(offset: int, alignment: int = 16) -> int:
    """Round ``offset`` up to the next ``alignment`` boundary."""
    return (offset + alignment - 1) // alignment * alignment


def record_persist(seconds: float, nbytes: int) -> None:
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


def record_open(seconds: float, nbytes: int) -> None:
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


class MmapSnapshotStore:
    """A columnar snapshot persisted to, and mapped from, one file."""

    def __init__(self, path: str) -> None:
        self.path = str(path)

    # -- write ------------------------------------------------------------

    def persist(self, snapshot: ColumnarSnapshot) -> Dict:
        """Write ``snapshot`` out; returns a summary dict (path, sizes)."""
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
        record_persist(time.perf_counter() - started, nbytes)
        return {
            "kind": "mmap",
            "path": self.path,
            "carriers": len(snapshot.carrier_ids),
            "parameters": sorted(snapshot.parameters),
            "bytes": nbytes,
        }

    # -- read -------------------------------------------------------------

    def _truncated(
        self, size: int, needed: int, what: str
    ) -> SnapshotStoreError:
        return SnapshotStoreError(
            f"{self.path} is truncated: {what} ends at byte {needed}, "
            f"the file at byte {size}"
        )

    def _read_header(self) -> Tuple[Dict, int]:
        with open(self.path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            prefix = fh.read(_PREFIX)
            if prefix[: len(MAGIC)] != MAGIC:
                raise SnapshotStoreError(
                    f"{self.path} is not an auric mmap store (bad magic)"
                )
            if len(prefix) < _PREFIX:
                raise self._truncated(size, _PREFIX, "the header length")
            (header_len,) = struct.unpack("<Q", prefix[len(MAGIC) :])
            if _PREFIX + header_len > size:
                raise self._truncated(size, _PREFIX + header_len, "the header")
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
        """The persisted snapshot, its arrays read-only zero-copy views
        over the mapped file, or ``None`` when there is no file."""
        if not os.path.exists(self.path):
            return None
        started = time.perf_counter()
        header, data_start = self._read_header()
        with open(self.path, "rb") as fh:
            mapped = _mmap.mmap(fh.fileno(), 0, access=_mmap.ACCESS_READ)
        size = len(mapped)
        buffers: Dict[Tuple[str, Optional[str]], np.ndarray] = {}
        for field, name, dtype, shape, rel_offset in header["layouts"]:
            dtype = np.dtype(dtype)
            count = 1
            for dim in shape:
                count *= int(dim)
            offset = data_start + rel_offset
            end = offset + count * dtype.itemsize
            if end > size:
                raise self._truncated(size, end, f"the {field} array")
            buffers[(field, name)] = np.frombuffer(
                mapped, dtype=dtype, count=count, offset=offset
            ).reshape(shape)
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
            carrier_ids = _carrier_ids(buffers[("carrier_ids", None)])
        snapshot = ColumnarSnapshot(
            carrier_ids=carrier_ids,
            codes=buffers[("codes", None)],
            vocabs=[list(vocab) for vocab in header["vocabs"]],
            parameters=parameters,
        )
        record_open(time.perf_counter() - started, size)
        return snapshot
