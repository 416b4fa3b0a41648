"""The benchmark's own spans.

A traced run wraps each call into a layer — the HTTP call, fit, warm,
bind, artifact JSON parse, ``engine_from_dict`` — in a span recorded
here, from the benchmark's files only; nothing inside the program is
instrumented.  Spans stay in memory and are written out as JSON lines
when the run ends.  With tracing off, :meth:`Tracer.span` hands back a
shared no-op span, so an untraced run pays one method call per layer.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from typing import Dict, List, Optional


class Span:
    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start", "end", "attrs")

    def __init__(self, name, trace_id, span_id, parent_id, attrs):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def set(self, key: str, value) -> None:
        self.attrs[key] = value

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class _NullSpan:
    duration = 0.0

    def set(self, key: str, value) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Recording:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.span.start = time.monotonic()
        return self.span

    def __exit__(self, *exc) -> bool:
        self.span.end = time.monotonic()
        self.tracer.finished.append(self.span)
        return False


class Tracer:
    """An in-memory span recorder, one per process.

    Times are ``time.monotonic()`` — one system-wide clock on Linux, so
    the server's and the load generator's spans share a timeline.
    """

    def __init__(self, enabled: bool, process: str):
        self.enabled = enabled
        self.process = process
        self.finished: List[Span] = []
        self._ids = itertools.count(1)  # next() is atomic in CPython

    def _mint(self) -> str:
        return f"{self.process}-{os.getpid()}-{next(self._ids)}"

    def span(self, name: str, parent: Optional[Span] = None, **attrs):
        if not self.enabled:
            return _NULL
        span_id = self._mint()
        trace_id = parent.trace_id if parent is not None else span_id
        parent_id = parent.span_id if parent is not None else None
        return _Recording(self, Span(name, trace_id, span_id, parent_id, attrs))

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for span in self.finished:
                handle.write(json.dumps(span.to_dict()) + "\n")
