"""One record sink: a bounded ring and an append-only JSONL file.

Spans (the tracer's exporters, the front end's ``/debug/trace`` store,
``--trace`` files), flight-recorder digests and lifecycle-journal
records all land in a :class:`RecordSink`, and every file one of them
writes reads back through :func:`read_records`.

Durability contract:

* a record is written as one line, ``json.dumps(record, default=str)``
  (a record with a ``to_dict()`` method is written as its dict);
* each line is one ``os.write`` to an ``O_APPEND`` descriptor, followed
  by ``os.fsync`` when the sink is opened with ``fsync=True``, so
  concurrent writers — threads, or other sinks on the same path —
  interleave whole lines, and a crash loses at most the line being
  written;
* opening a file **cuts a torn tail**: a last line without its newline
  (a crash mid-write) is truncated away, so the next record never welds
  onto it.  A complete line is kept whatever it holds;
* write failures are swallowed (a full disk must never take serving
  down), and :meth:`RecordSink.close` is safe to call twice and against
  racing appends, which then write nothing;
* :func:`read_records` is tolerant: torn and corrupt lines are counted
  and skipped, never fatal.

The ring is a ``deque`` with a ``maxlen``: an append is one GIL-atomic
call with no lock, and the oldest record falls out when the ring is full.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["RecordScan", "RecordSink", "encode_record", "read_records"]

#: Bytes read per step while looking back for a file's last newline.
_TAIL_CHUNK = 4096


def encode_record(record: Any) -> bytes:
    """One record as its JSONL line (newline included)."""
    to_dict = getattr(record, "to_dict", None)
    payload = to_dict() if to_dict is not None else record
    return (json.dumps(payload, default=str) + "\n").encode("utf-8")


def _cut_torn_tail(fd: int) -> None:
    """Truncate the file after its last newline."""
    end = keep = os.fstat(fd).st_size
    while keep > 0:
        start = max(0, keep - _TAIL_CHUNK)
        newline = os.pread(fd, keep - start, start).rfind(b"\n")
        if newline >= 0:
            keep = start + newline + 1
            break
        keep = start
    if keep < end:
        os.ftruncate(fd, keep)


class RecordSink:
    """The last ``capacity`` records in memory (no ring when 0) and,
    with a ``path``, every record appended to that JSONL file."""

    def __init__(
        self,
        capacity: int = 0,
        path: Optional[str] = None,
        fsync: bool = False,
    ) -> None:
        self.closed = False
        self._ring: Optional[deque] = deque(maxlen=capacity) if capacity else None
        self._fsync = bool(fsync)
        # Orders writes against close: a write after close could land in
        # whatever file reuses the descriptor number.
        self._lock = threading.Lock()
        self._fd: Optional[int] = None
        if path is not None:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            self._fd = os.open(
                path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
            )
            _cut_torn_tail(self._fd)

    def append(self, record: Any) -> None:
        """Keep ``record`` in the ring and write it to the file."""
        if self._ring is not None:
            self._ring.append(record)
        if self._fd is None:
            return
        line = encode_record(record)
        with self._lock:
            if self._fd is None:
                return
            try:
                os.write(self._fd, line)
                if self._fsync:
                    os.fsync(self._fd)
            except OSError:  # pragma: no cover - disk trouble
                pass

    def records(self, limit: Optional[int] = None) -> List[Any]:
        """The ring, oldest first (optionally only the newest ``limit``)."""
        out = list(self._ring) if self._ring is not None else []
        if limit is not None and limit >= 0:
            out = out[-limit:]
        return out

    def close(self) -> None:
        with self._lock:
            self.closed = True
            fd, self._fd = self._fd, None
            if fd is not None:
                os.close(fd)


@dataclass
class RecordScan:
    """What :func:`read_records` found in one file."""

    path: str
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: Torn or corrupt lines skipped (a torn last line after a crash is
    #: expected and harmless; mid-file corruption is worth alarming on).
    skipped: int = 0


def read_records(path: str) -> RecordScan:
    """Read the JSON objects of a JSONL file, one per complete line.

    Blank lines are ignored; a torn last line, and a line that is not a
    JSON object, count as skipped.  Raises ``OSError`` when the file
    cannot be read.
    """
    scan = RecordScan(path=path)
    with open(path, "rb") as handle:
        for raw in handle:
            if not raw.endswith(b"\n"):
                scan.skipped += 1
                continue
            line = raw.strip()
            if not line:
                continue
            try:
                parsed = json.loads(line)
            except ValueError:
                parsed = None
            if isinstance(parsed, dict):
                scan.records.append(parsed)
            else:
                scan.skipped += 1
    return scan
