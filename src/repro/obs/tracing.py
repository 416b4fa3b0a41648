"""Lightweight tracing: nested wall-clock spans with exporters.

A span records one timed operation — ``span("engine.fit")``,
``span("service.handle")`` — with a name, attributes, and its position
in the trace tree (``trace_id`` / ``span_id`` / ``parent_id``).  The
current span is tracked in a :mod:`contextvars` variable, so nesting
works across threads and ``async`` alike, and finished spans flow to
exporters: anything with an ``append(span)`` method.  That is a
:class:`repro.obs.records.RecordSink` — its ring keeps the last N spans
in memory (tests, the front end's ``/debug/trace`` store), its file
takes one JSONL line per span (the CLI's ``--trace <path>``) — or a
plain list (:func:`collect`).

**Process-pool propagation.**  The master captures its current context
with :func:`current_context` and ships it to workers alongside the
task; a worker runs its work under :func:`collect` (a buffering tracer)
rooted at :func:`span_from_context`, and returns the finished spans
with the result.  The master feeds them back through :func:`ingest`, so
worker spans land in the master's exporters re-parented under the span
that dispatched them — one coherent trace across processes (see
:func:`repro.parallel.pool.run_tasks`).

Tracing is **zero-cost when disabled**: with no tracer configured,
:func:`span` returns a shared no-op context manager and records
nothing.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "TraceTree",
    "Tracer",
    "active",
    "active_spans",
    "assemble_trace",
    "collect",
    "configure",
    "current_context",
    "disable",
    "format_traceparent",
    "get_tracer",
    "ingest",
    "parse_traceparent",
    "record_span",
    "span",
    "span_from_context",
    "thread_span_stack",
    "track_thread_spans",
    "use_context",
]

#: (trace_id, span_id) of the span currently executing in this context.
_CURRENT: "contextvars.ContextVar[Optional[Tuple[str, str]]]" = (
    contextvars.ContextVar("repro_obs_current_span", default=None)
)


def _new_id() -> str:
    # os.urandom + bytes.hex is ~4x cheaper than uuid4 — ids are minted
    # on every span, so this is serving-path hot.
    return os.urandom(8).hex()


def _new_trace_id() -> str:
    """A W3C-width (32 hex chars) trace id for trace roots."""
    return os.urandom(16).hex()


# -- W3C trace-context propagation --------------------------------------------

_TRACEPARENT_VERSION = "00"
_HEX_DIGITS = frozenset("0123456789abcdef")


def _is_hex(value: str) -> bool:
    return bool(value) and set(value) <= _HEX_DIGITS


def parse_traceparent(header: Optional[str]) -> Optional[Tuple[str, str]]:
    """Parse a W3C ``traceparent`` header into a ``(trace_id, span_id)``
    context, or ``None`` when the header is absent or malformed.

    Accepts ``<version>-<32 hex trace-id>-<16 hex parent-id>-<2 hex
    flags>``.  Per the spec, all-zero trace or parent ids are invalid,
    version ``ff`` is invalid, and future versions are accepted as long
    as the first four fields parse (extra suffix fields are ignored).
    Malformed input is treated as "no incoming context" rather than an
    error, so a bad client header can never fail a request.
    """
    if not header:
        return None
    parts = header.strip().lower().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, parent_id, flags = parts[0], parts[1], parts[2], parts[3]
    if len(version) != 2 or not _is_hex(version) or version == "ff":
        return None
    if version == _TRACEPARENT_VERSION and len(parts) != 4:
        return None
    if len(trace_id) != 32 or not _is_hex(trace_id):
        return None
    if len(parent_id) != 16 or not _is_hex(parent_id):
        return None
    if len(flags) != 2 or not _is_hex(flags):
        return None
    if trace_id == "0" * 32 or parent_id == "0" * 16:
        return None
    return (trace_id, parent_id)


def format_traceparent(context: Optional[Tuple[str, str]]) -> Optional[str]:
    """Render a ``(trace_id, span_id)`` context as a ``traceparent``
    header value (sampled flag set), or ``None`` without a context.

    Internal trace ids predating W3C support are 16 hex chars; they are
    left-padded with zeros to the 32-char wire width.
    """
    if context is None:
        return None
    trace_id, span_id = context
    trace_id = str(trace_id).lower().rjust(32, "0")[:32]
    span_id = str(span_id).lower().rjust(16, "0")[:16]
    return f"{_TRACEPARENT_VERSION}-{trace_id}-{span_id}-01"


class Span:
    """One finished (or in-flight) timed operation."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_time",
        "duration_s",
        "attributes",
        "pid",
        "status",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        attributes: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_time = time.time()
        self.duration_s = 0.0
        self.attributes = attributes or {}
        self.pid = os.getpid()
        self.status = "ok"

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute to the span."""
        self.attributes[key] = value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_time": self.start_time,
            "duration_s": self.duration_s,
            "attributes": self.attributes,
            "pid": self.pid,
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        out = cls(
            payload["name"],
            payload["trace_id"],
            payload["span_id"],
            payload.get("parent_id"),
            dict(payload.get("attributes", {})),
        )
        out.start_time = float(payload.get("start_time", 0.0))
        out.duration_s = float(payload.get("duration_s", 0.0))
        out.pid = int(payload.get("pid", 0))
        out.status = payload.get("status", "ok")
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, {self.duration_s * 1e3:.3f}ms)"
        )


class Tracer:
    """Creates spans and fans finished ones out to exporters."""

    def __init__(self, exporters: Sequence = ()):
        self.exporters = list(exporters)

    def start(
        self,
        name: str,
        attributes: Optional[Dict[str, Any]] = None,
        parent: Optional[Tuple[str, str]] = None,
    ) -> "_SpanHandle":
        if parent is None:
            parent = _CURRENT.get()
        if parent is None:
            trace_id, parent_id = _new_trace_id(), None
        else:
            trace_id, parent_id = parent
        span_obj = Span(name, trace_id, _new_id(), parent_id, attributes)
        return _SpanHandle(self, span_obj)

    def finish(self, span_obj: Span) -> None:
        for exporter in self.exporters:
            exporter.append(span_obj)


class _SpanHandle:
    """Context manager wrapping one in-flight span."""

    __slots__ = ("_tracer", "span", "_token", "_started")

    def __init__(self, tracer: Tracer, span_obj: Span):
        self._tracer = tracer
        self.span = span_obj
        self._token = None
        self._started = 0.0

    def set(self, key: str, value: Any) -> None:
        self.span.set(key, value)

    def __enter__(self) -> "_SpanHandle":
        self._token = _CURRENT.set((self.span.trace_id, self.span.span_id))
        self._started = time.perf_counter()
        # Single-key dict ops are GIL-atomic, so in-flight bookkeeping
        # costs no lock on the hot path.
        _ACTIVE_SPANS[self.span.span_id] = self.span
        if _TRACK_THREAD_SPANS:
            _THREAD_SPANS.setdefault(
                threading.get_ident(), []
            ).append(self.span.name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.span.duration_s = time.perf_counter() - self._started
        if exc_type is not None:
            self.span.status = f"error:{exc_type.__name__}"
        _CURRENT.reset(self._token)
        _ACTIVE_SPANS.pop(self.span.span_id, None)
        if _TRACK_THREAD_SPANS:
            stack = _THREAD_SPANS.get(threading.get_ident())
            if stack and stack[-1] == self.span.name:
                stack.pop()
        self._tracer.finish(self.span)


class _NullSpanHandle:
    """The shared no-op handle returned while tracing is disabled."""

    __slots__ = ()
    span = None

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpanHandle()

#: The process-global tracer; ``None`` means tracing is disabled.
_TRACER: Optional[Tracer] = None


def configure(exporters: Sequence) -> Tracer:
    """Install a tracer with the given exporters as the global."""
    global _TRACER
    _TRACER = Tracer(exporters)
    return _TRACER


def disable() -> None:
    global _TRACER
    _TRACER = None


def get_tracer() -> Optional[Tracer]:
    return _TRACER


def active() -> bool:
    return _TRACER is not None


def span(name: str, **attributes):
    """Open a span under the current context (no-op while disabled)."""
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.start(name, attributes or None)


def current_context() -> Optional[Tuple[str, str]]:
    """``(trace_id, span_id)`` of the current span, for propagation."""
    return _CURRENT.get()


def span_from_context(
    context: Optional[Tuple[str, str]], name: str, **attributes
):
    """Open a span parented at an explicitly propagated context.

    Used on the far side of a process boundary: the master's
    :func:`current_context` travels with the task, and the worker's
    spans nest under it even though the worker has no local parent.
    """
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    parent = tuple(context) if context is not None else None
    return tracer.start(name, attributes or None, parent=parent)


class use_context:
    """Context manager: adopt an explicit ``(trace_id, span_id)`` as the
    current context without opening a span.

    The serving path uses this to run downstream work (shard handling,
    engine calls) under a request's trace when the code crossing the
    boundary — a worker thread draining a batch queue — has no
    :mod:`contextvars` inheritance from the request coroutine.
    ``None`` leaves the ambient context untouched.
    """

    __slots__ = ("_context", "_token")

    def __init__(self, context: Optional[Tuple[str, str]]):
        self._context = tuple(context) if context is not None else None
        self._token = None

    def __enter__(self) -> "use_context":
        if self._context is not None:
            self._token = _CURRENT.set(self._context)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None


def record_span(
    name: str,
    context: Optional[Tuple[str, str]],
    start_time: float,
    duration_s: float,
    status: str = "ok",
    **attributes,
) -> Optional[Span]:
    """Emit an already-finished span parented at ``context``.

    For operations whose bounds are only known after the fact — e.g. a
    request's queue wait is measured when the batch worker dequeues it,
    long after the wait started.  ``start_time`` is a wall-clock epoch
    timestamp; returns the exported span, or ``None`` while disabled.
    """
    tracer = _TRACER
    if tracer is None:
        return None
    if context is None:
        trace_id, parent_id = _new_trace_id(), None
    else:
        trace_id, parent_id = context
    span_obj = Span(name, trace_id, _new_id(), parent_id, attributes or None)
    span_obj.start_time = start_time
    span_obj.duration_s = max(0.0, duration_s)
    span_obj.status = status
    tracer.finish(span_obj)
    return span_obj


class collect:
    """Context manager: buffer this context's spans into a list.

    Temporarily replaces the global tracer with a collecting one;
    ``as`` yields the list finished spans accumulate into.  Used by
    pool workers to hand their spans back to the master.
    """

    def __init__(self):
        self._spans: List[Span] = []
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> List[Span]:
        global _TRACER
        self._previous = _TRACER
        _TRACER = Tracer([self._spans])
        return self._spans

    def __exit__(self, exc_type, exc, tb) -> None:
        global _TRACER
        _TRACER = self._previous


# -- in-flight span tracking (flight-recorder dumps) -------------------------

#: span_id -> Span for every span currently open anywhere in the
#: process.  Populated by :class:`_SpanHandle` (single-key dict ops are
#: GIL-atomic, so no lock); read by :func:`active_spans` when the flight
#: recorder captures a black-box snapshot.
_ACTIVE_SPANS: Dict[str, Span] = {}


def active_spans() -> List[Span]:
    """Snapshot of every span currently in flight (unordered)."""
    return list(_ACTIVE_SPANS.values())


# -- trace assembly ------------------------------------------------------------


class TraceTree:
    """One trace reassembled from finished spans.

    ``roots`` are the spans without a parent in the trace whose
    ``parent_id`` is either ``None`` or marked ``remote_parent`` (the
    parent lives in the caller's process — e.g. a client-sent
    ``traceparent``).  ``orphans`` are spans that *claim* a local parent
    that never showed up: a broken propagation link.
    """

    __slots__ = ("trace_id", "spans", "roots", "children", "orphans")

    def __init__(
        self,
        trace_id: str,
        spans: List[Span],
        roots: List[Span],
        children: Dict[str, List[Span]],
        orphans: List[Span],
    ):
        self.trace_id = trace_id
        self.spans = spans
        self.roots = roots
        self.children = children
        self.orphans = orphans

    def to_dict(self) -> Dict[str, Any]:
        def node(span_obj: Span) -> Dict[str, Any]:
            payload = span_obj.to_dict()
            payload["children"] = [
                node(child) for child in self.children.get(span_obj.span_id, [])
            ]
            return payload

        return {
            "trace_id": self.trace_id,
            "span_count": len(self.spans),
            "orphan_count": len(self.orphans),
            "roots": [node(root) for root in self.roots],
            "orphans": [node(orphan) for orphan in self.orphans],
        }

    def render(self) -> str:
        """ASCII rendering of the span tree (the ``repro trace`` CLI)."""
        lines: List[str] = [f"trace {self.trace_id} ({len(self.spans)} spans)"]

        def walk(span_obj: Span, prefix: str, is_last: bool) -> None:
            connector = "`-- " if is_last else "|-- "
            detail = f"{span_obj.name}  {span_obj.duration_s * 1e3:.3f}ms"
            extras = []
            if span_obj.status != "ok":
                extras.append(span_obj.status)
            for key in ("market", "shard", "generation", "batch_size"):
                if key in span_obj.attributes:
                    extras.append(f"{key}={span_obj.attributes[key]}")
            if extras:
                detail += f"  [{', '.join(extras)}]"
            lines.append(prefix + connector + detail)
            kids = self.children.get(span_obj.span_id, [])
            child_prefix = prefix + ("    " if is_last else "|   ")
            for i, child in enumerate(kids):
                walk(child, child_prefix, i == len(kids) - 1)

        for i, root in enumerate(self.roots):
            walk(root, "", i == len(self.roots) - 1)
        if self.orphans:
            lines.append(f"!! {len(self.orphans)} orphan span(s):")
            for orphan in self.orphans:
                lines.append(
                    f"   {orphan.name} (span={orphan.span_id}, "
                    f"missing parent={orphan.parent_id})"
                )
        return "\n".join(lines)


def assemble_trace(spans: Iterable, trace_id: str) -> TraceTree:
    """Rebuild the span tree for one trace id from a span soup.

    Accepts :class:`Span` objects or their dicts (e.g. read back from a
    ``--trace`` file with :func:`repro.obs.records.read_records`).  Spans whose ``parent_id`` is missing
    from the trace are split into *roots* (no parent, or the parent is
    explicitly remote via a truthy ``remote_parent`` attribute) and
    *orphans* (a local parent that never arrived — a propagation bug).
    Children sort by start time.
    """
    trace_id = str(trace_id).lower()
    want = {trace_id, trace_id.rjust(32, "0"), trace_id.lstrip("0") or "0"}
    selected: List[Span] = []
    for item in spans:
        span_obj = item if isinstance(item, Span) else Span.from_dict(item)
        if str(span_obj.trace_id).lower() in want:
            selected.append(span_obj)
    selected.sort(key=lambda s: s.start_time)
    by_id = {s.span_id: s for s in selected}
    roots: List[Span] = []
    orphans: List[Span] = []
    children: Dict[str, List[Span]] = {}
    for span_obj in selected:
        parent_id = span_obj.parent_id
        if parent_id and parent_id in by_id:
            children.setdefault(parent_id, []).append(span_obj)
        elif parent_id and not span_obj.attributes.get("remote_parent"):
            orphans.append(span_obj)
        else:
            roots.append(span_obj)
    return TraceTree(trace_id, selected, roots, children, orphans)


# -- thread-span bookkeeping (profiler attribution) --------------------------

#: thread ident -> stack of open span names.  Maintained by
#: :class:`_SpanHandle` only while :func:`track_thread_spans` has turned
#: the flag on (the sampling profiler does), so ordinary tracing pays a
#: single falsy global check per span.
_THREAD_SPANS: Dict[int, List[str]] = {}
_TRACK_THREAD_SPANS = False


def track_thread_spans(enabled: bool) -> None:
    """Switch cross-thread span bookkeeping on or off.

    The sampling profiler (:mod:`repro.obs.profiler`) cannot read
    another thread's :mod:`contextvars`, so while it runs, span handles
    additionally push/pop their names on a per-thread stack readable
    from the sampling thread via :func:`thread_span_stack`.
    """
    global _TRACK_THREAD_SPANS
    _TRACK_THREAD_SPANS = bool(enabled)
    if not enabled:
        _THREAD_SPANS.clear()


def thread_span_stack(thread_id: int) -> Tuple[str, ...]:
    """The open span names of one thread, outermost first (snapshot)."""
    stack = _THREAD_SPANS.get(thread_id)
    return tuple(stack) if stack else ()


def ingest(spans: Iterable) -> int:
    """Feed spans (objects or dicts) through the global tracer's
    exporters — the master-side merge of worker span batches."""
    tracer = _TRACER
    if tracer is None:
        return 0
    merged = 0
    for item in spans:
        span_obj = item if isinstance(item, Span) else Span.from_dict(item)
        tracer.finish(span_obj)
        merged += 1
    return merged
