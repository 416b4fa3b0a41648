"""The engine-lifecycle journal: every generation tells its story.

The serving half of this system is deeply observable (traces, flight
recorder, SLOs), but *why engine generation N exists* used to be
unrecorded: nothing tied a hot swap to the drift report that triggered
it, or an incremental refit to the per-parameter path each touched
parameter took.  This module is the missing evidence trail — an
**append-only, fsync-safe JSONL journal** where every lifecycle
transition emits one structured record:

* ``fit`` — an engine learned its models (parameters, phase breakdown,
  snapshot fingerprint);
* ``refresh`` / ``full-refit`` / ``incremental-refit`` — the
  refresher swapped a new engine into a service (or, for a changelog
  refit that changed no model, kept the old one), with the refit kind,
  per-parameter path (skip / selection-reuse / full), and the drift
  scores that triggered it;
* ``front-start`` / ``hot-swap`` — the front-end tier's generation
  counter (the one stamped on every HTTP response) moved;
* ``push`` / ``launch`` / ``rollback`` — the ops loop accepted a
  configuration change or undid one;
* ``artifact-save`` / ``artifact-load`` — an engine crossed the
  persistence boundary (schema version + fingerprints).

Records carry a ``parent_generation`` link, so the whole run replays
as a generation DAG: :func:`assemble_timeline` reconstructs it,
``repro timeline`` renders it (ASCII or JSON), and the front end's
``GET /debug/generations`` resolves any response's generation id back
to its journal record.

Records land in a :class:`repro.obs.records.RecordSink`, fsync'd by
default, whose module gives the durability contract: one write per
record, torn tails cut at open, a tolerant reader.  On reopen, ``seq``
resumes after the highest intact record.

Like metrics, tracing and the flight recorder, the journal is
process-global and disabled by default: :func:`record` costs one
``None`` check until :func:`configure` installs one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.obs.records import RecordScan, RecordSink, read_records

__all__ = [
    "EngineJournal",
    "Timeline",
    "TimelineNode",
    "active",
    "assemble_timeline",
    "configure",
    "disable",
    "get_journal",
    "mint_stream",
    "read_journal",
    "record",
]

#: Records kept in the in-memory tail for live introspection
#: (``GET /debug/generations`` reads this, not the file).
DEFAULT_TAIL = 4096

#: Events that move a generation counter (everything else annotates the
#: generation it happened under).
TRANSITION_EVENTS = frozenset(
    {"refresh", "full-refit", "incremental-refit", "hot-swap", "front-start"}
)

_STREAM_COUNTER = itertools.count(1)
_STREAM_LOCK = threading.Lock()


def mint_stream(prefix: str) -> str:
    """A process-unique stream id (``front-1``, ``svc-2``, ...).

    Streams separate parallel generation chains — two services each
    have their own generation 0/1/2 — so the timeline never welds
    unrelated chains together.  Minting is always cheap and never
    touches the journal, so lifecycle objects can mint eagerly.
    """
    with _STREAM_LOCK:
        return f"{prefix}-{next(_STREAM_COUNTER)}"


class EngineJournal:
    """Append-only, fsync-safe JSONL lifecycle journal."""

    def __init__(
        self,
        path: str,
        fsync: bool = True,
        tail: int = DEFAULT_TAIL,
    ) -> None:
        self.path = path
        self._lock = threading.RLock()
        # The sink's ring is the in-memory tail; its file is the journal.
        self._sink = RecordSink(max(int(tail), 1), path, fsync=fsync)
        self._seq = 1 + max(
            (int(r.get("seq", 0) or 0) for r in read_records(path).records),
            default=0,
        )
        self._records_counter = obs_metrics.counter(
            "repro_journal_records_total",
            "Engine-lifecycle journal records written, by event",
            labelnames=("event",),
        )

    # -- writing -------------------------------------------------------------

    def record(
        self,
        event: str,
        scope: str = "engine",
        stream: Optional[str] = None,
        generation: Optional[int] = None,
        parent_generation: Optional[int] = None,
        trigger: Optional[str] = None,
        drift: Optional[Dict[str, Any]] = None,
        refit: Optional[Dict[str, Any]] = None,
        fingerprints: Optional[Dict[str, Any]] = None,
        duration_s: Optional[float] = None,
        trace_id: Optional[str] = None,
        **attrs: Any,
    ) -> Optional[Dict[str, Any]]:
        """Append one lifecycle record; returns the record written.

        ``trace_id`` defaults to the current tracing context, so a
        journal record always names the span that caused it when
        tracing is on.  Write failures are swallowed (a full disk must
        never take serving down) — the record is still kept in the
        in-memory tail.
        """
        if trace_id is None:
            context = tracing.current_context()
            if context is not None:
                trace_id = context[0]
        entry: Dict[str, Any] = {
            "seq": 0,  # assigned under the lock below
            "ts": time.time(),
            "event": event,
            "scope": scope,
        }
        if stream is not None:
            entry["stream"] = stream
        if generation is not None:
            entry["generation"] = int(generation)
        if parent_generation is not None:
            entry["parent_generation"] = int(parent_generation)
        if trigger is not None:
            entry["trigger"] = trigger
        if drift is not None:
            entry["drift"] = drift
        if refit is not None:
            entry["refit"] = refit
        if fingerprints:
            entry["fingerprints"] = fingerprints
        if duration_s is not None:
            entry["duration_s"] = round(float(duration_s), 6)
        if trace_id is not None:
            entry["trace_id"] = trace_id
        if attrs:
            entry["attrs"] = attrs
        with self._lock:
            if self._sink.closed:
                return None
            entry["seq"] = self._seq
            self._seq += 1
            self._sink.append(entry)
        self._records_counter.labels(event=event).inc()
        return entry

    # -- introspection -------------------------------------------------------

    def tail(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """The most recent records written by this process, oldest
        first (bounded by the tail capacity, not the file)."""
        return self._sink.records(limit)

    def digest(self) -> Dict[str, Any]:
        """A small fingerprint of the journal's current head — embedded
        in flight-recorder dumps so a post-mortem names the exact
        generation lineage that was serving."""
        with self._lock:
            head = self._sink.records(1)
            seq = self._seq - 1
        last = head[0] if head else None
        head_hash = None
        if last is not None:
            head_hash = hashlib.sha256(
                json.dumps(last, default=str).encode("utf-8")
            ).hexdigest()[:16]
        return {
            "path": self.path,
            "last_seq": seq,
            "last_event": last.get("event") if last else None,
            "generation": last.get("generation") if last else None,
            "stream": last.get("stream") if last else None,
            "head": head_hash,
        }

    def close(self) -> None:
        with self._lock:
            self._sink.close()

    def __enter__(self) -> "EngineJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- tolerant reading ----------------------------------------------------------


def read_journal(path: str) -> RecordScan:
    """Read a journal file: the records of :func:`read_records` that
    carry an ``event``; any other line counts as skipped."""
    scan = read_records(path)
    records = [r for r in scan.records if "event" in r]
    skipped = scan.skipped + len(scan.records) - len(records)
    return RecordScan(path, records, skipped)


# -- timeline assembly ---------------------------------------------------------


@dataclass
class TimelineNode:
    """One generation of one stream, with every record that touched it."""

    scope: str
    stream: str
    generation: int
    parent_generation: Optional[int] = None
    #: True for a generation-0 root synthesized because a transition
    #: referenced it without an explicit start record.
    implicit: bool = False
    events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.scope, self.stream, self.generation)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scope": self.scope,
            "stream": self.stream,
            "generation": self.generation,
            "parent_generation": self.parent_generation,
            "implicit": self.implicit,
            "events": self.events,
        }


@dataclass
class Timeline:
    """The generation DAG reconstructed from journal records."""

    #: ``{(scope, stream): {generation: TimelineNode}}``
    streams: Dict[Tuple[str, str], Dict[int, TimelineNode]] = field(
        default_factory=dict
    )
    #: Records with no generation at all (fits, artifact events, ops
    #: events outside any serving generation), in journal order.
    loose: List[Dict[str, Any]] = field(default_factory=list)
    #: ``(scope, stream, parent_generation)`` referenced by a transition
    #: but absent from the journal — the "gaps" the CI smoke forbids.
    missing_parents: List[Tuple[str, str, int]] = field(default_factory=list)
    total_records: int = 0

    @property
    def complete(self) -> bool:
        return not self.missing_parents

    def node(
        self, scope: str, stream: str, generation: int
    ) -> Optional[TimelineNode]:
        return self.streams.get((scope, stream), {}).get(generation)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total_records": self.total_records,
            "complete": self.complete,
            "missing_parents": [
                {"scope": s, "stream": st, "generation": g}
                for s, st, g in self.missing_parents
            ],
            "streams": [
                {
                    "scope": scope,
                    "stream": stream,
                    "generations": [
                        nodes[g].to_dict() for g in sorted(nodes)
                    ],
                }
                for (scope, stream), nodes in sorted(self.streams.items())
            ],
            "loose": self.loose,
        }

    def render(self) -> str:
        """ASCII rendering of the generation DAG, one stream per block."""
        lines: List[str] = []
        for (scope, stream), nodes in sorted(self.streams.items()):
            lines.append(f"{scope} [{stream}]")
            for generation in sorted(nodes):
                node = nodes[generation]
                arrow = (
                    "──"
                    if node.parent_generation is None
                    else f"◀─ gen {node.parent_generation}"
                )
                head = f"  gen {node.generation} {arrow}"
                if node.implicit:
                    lines.append(f"{head} (initial)")
                for entry in node.events:
                    lines.append(f"{head} {_describe(entry)}")
                    head = " " * len(f"  gen {node.generation} ") + "·"
            lines.append("")
        if self.loose:
            lines.append("ungenerationed events")
            for entry in self.loose:
                lines.append(f"  {_describe(entry)}")
            lines.append("")
        if self.missing_parents:
            lines.append("MISSING PARENTS")
            for scope, stream, generation in self.missing_parents:
                lines.append(f"  {scope} [{stream}] gen {generation}")
        return "\n".join(lines).rstrip() + "\n"


def _describe(entry: Dict[str, Any]) -> str:
    bits = [entry.get("event", "?")]
    if entry.get("trigger"):
        bits.append(f"trigger={entry['trigger']}")
    drift = entry.get("drift")
    if drift:
        bits.append(
            f"drift={drift.get('verdict')}(psi={drift.get('psi_max', 0):.3f})"
        )
    refit = entry.get("refit")
    if refit:
        kind = refit.get("kind")
        if kind:
            bits.append(f"refit={kind}")
        refitted = refit.get("refitted") or {}
        if refitted:
            bits.append(f"refitted={len(refitted)}")
        if refit.get("reused_selection"):
            bits.append(f"reused={len(refit['reused_selection'])}")
        if refit.get("skipped"):
            bits.append(f"skipped={len(refit['skipped'])}")
    if entry.get("duration_s") is not None:
        bits.append(f"{entry['duration_s']:.3f}s")
    fingerprints = entry.get("fingerprints") or {}
    if fingerprints.get("snapshot"):
        bits.append(f"snap={str(fingerprints['snapshot'])[:8]}")
    if entry.get("trace_id"):
        bits.append(f"trace={str(entry['trace_id'])[:8]}")
    attrs = entry.get("attrs") or {}
    for key in ("parameters", "carrier", "outcome", "schema_version"):
        if key in attrs:
            bits.append(f"{key}={attrs[key]}")
    return "  ".join(str(b) for b in bits)


def assemble_timeline(records: Iterable[Dict[str, Any]]) -> Timeline:
    """Reconstruct the generation DAG from journal records.

    Transition records (``refresh``, ``hot-swap``, ...) create nodes
    and parent edges; in-place records (``drift-check``) attach to
    the generation they ran under, and so does
    a transition whose parent is its own generation (a changelog refit
    that swapped nothing).  A transition whose parent generation has
    no record of its own is a **gap** — except generation 0, the
    construction-time state, which is synthesized as an implicit root
    (services journal nothing at construction; their first refresh
    references parent 0).
    """
    timeline = Timeline()
    for entry in records:
        timeline.total_records += 1
        generation = entry.get("generation")
        if generation is None:
            timeline.loose.append(entry)
            continue
        scope = str(entry.get("scope", "engine"))
        stream = str(entry.get("stream", "-"))
        nodes = timeline.streams.setdefault((scope, stream), {})
        node = nodes.get(int(generation))
        if node is None:
            node = TimelineNode(
                scope=scope, stream=stream, generation=int(generation)
            )
            nodes[node.generation] = node
        node.events.append(entry)
        parent = entry.get("parent_generation")
        if (
            parent is not None
            and int(parent) != node.generation
            and entry.get("event") in TRANSITION_EVENTS
        ):
            node.parent_generation = int(parent)
    # Resolve parent links after every node exists.
    for (scope, stream), nodes in timeline.streams.items():
        for node in list(nodes.values()):
            parent = node.parent_generation
            if parent is None or parent in nodes:
                continue
            if parent == 0:
                root = TimelineNode(
                    scope=scope, stream=stream, generation=0, implicit=True
                )
                nodes[0] = root
            else:
                timeline.missing_parents.append((scope, stream, parent))
    timeline.missing_parents.sort()
    return timeline


# -- the process-global journal ------------------------------------------------

_JOURNAL: Optional[EngineJournal] = None


def configure(
    path: str, fsync: bool = True, tail: int = DEFAULT_TAIL
) -> EngineJournal:
    """Install a journal as the process global and return it."""
    global _JOURNAL
    if _JOURNAL is not None:
        _JOURNAL.close()
    _JOURNAL = EngineJournal(path, fsync=fsync, tail=tail)
    return _JOURNAL


def disable() -> None:
    global _JOURNAL
    if _JOURNAL is not None:
        _JOURNAL.close()
    _JOURNAL = None


def get_journal() -> Optional[EngineJournal]:
    return _JOURNAL


def active() -> bool:
    return _JOURNAL is not None


def record(event: str, **fields: Any) -> Optional[Dict[str, Any]]:
    """Append to the global journal (no-op while disabled)."""
    journal = _JOURNAL
    if journal is None:
        return None
    return journal.record(event, **fields)
