"""Black-box flight recorder: always-on ring of recent request digests.

An aircraft flight recorder is cheap to write and only read after
something goes wrong.  This is the serving-path equivalent: every
request that crosses the front end appends one small
:class:`RequestDigest` (trace id, market, shard, generation, status,
latency, shed reason) to the ring of a
:class:`repro.obs.records.RecordSink` — no lock, no I/O on the hot
path — and when something breaks, the recorder **dumps** a snapshot to
disk:

* every digest still in the ring (JSONL, newest last),
* the spans currently in flight (:func:`repro.obs.tracing.active_spans`),
* a metrics-registry snapshot, when one is enabled.

Dumps are triggered by the SLO engine on a rule breach
(:mod:`repro.obs.slo`), by the admission controller on a shed burst
(:mod:`repro.serve.front.admission`), and at interpreter exit or on
SIGTERM/SIGINT once :meth:`FlightRecorder.arm_exit_dump` has run — so a
post-mortem always has the last N requests that led up to the event,
even though per-request logging was never enabled.

Like tracing and metrics, the recorder is process-global and disabled
by default: :func:`record` is a no-op until :func:`configure` installs
one.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.obs.records import RecordSink, encode_record

__all__ = [
    "FlightRecorder",
    "RequestDigest",
    "configure",
    "disable",
    "get_recorder",
    "record",
]

#: Default ring capacity: enough for a few seconds of storm traffic
#: while staying trivially small (~100 bytes per digest).
DEFAULT_CAPACITY = 4096

#: Minimum spacing between dumps with the same reason, so a breach that
#: persists across SLO evaluations does not fill the disk.
DEFAULT_COOLDOWN_S = 5.0

_EXIT_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class RequestDigest:
    """One request's black-box record — small enough to always keep."""

    __slots__ = (
        "trace_id",
        "market",
        "shard",
        "generation",
        "status",
        "latency_ms",
        "shed_reason",
        "ts",
    )

    def __init__(
        self,
        trace_id: Optional[str],
        market: Optional[str],
        shard: Optional[int],
        generation: Optional[int],
        status: int,
        latency_ms: float,
        shed_reason: Optional[str] = None,
        ts: Optional[float] = None,
    ):
        self.trace_id = trace_id
        self.market = market
        self.shard = shard
        self.generation = generation
        self.status = int(status)
        self.latency_ms = float(latency_ms)
        self.shed_reason = shed_reason
        self.ts = time.time() if ts is None else float(ts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ts": self.ts,
            "trace_id": self.trace_id,
            "market": self.market,
            "shard": self.shard,
            "generation": self.generation,
            "status": self.status,
            "latency_ms": self.latency_ms,
            "shed_reason": self.shed_reason,
        }


class FlightRecorder:
    """Lock-free ring of digests with triggered black-box dumps.

    ``record`` is the hot path: one append to the sink's ring — no
    lock, no I/O.  ``dump`` is the cold path and takes the lock only to
    snapshot the ring, rate-limit per reason, and write the file.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        dump_dir: Optional[str] = None,
        cooldown_s: float = DEFAULT_COOLDOWN_S,
    ):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = int(capacity)
        self.dump_dir = dump_dir or os.path.join(".", "flight-dumps")
        self.cooldown_s = float(cooldown_s)
        self._ring = RecordSink(self.capacity)
        self._lock = threading.Lock()
        self._dump_seq = 0
        self._last_dump_ts: Dict[str, float] = {}
        self._dumps: List[str] = []
        self.dump_on_exit = False
        self._exit_dumped = False
        #: signum -> the handler installed before ours (run after the dump).
        self._previous_handlers: Dict[int, Any] = {}
        self._records = obs_metrics.counter(
            "repro_flight_records_total", "Request digests recorded"
        )
        self._dumps_counter = obs_metrics.counter(
            "repro_flight_dumps_total",
            "Flight-recorder dumps written, by trigger",
            labelnames=("reason",),
        )

    # -- hot path -----------------------------------------------------------

    def record(self, digest: RequestDigest) -> None:
        self._ring.append(digest)
        self._records.inc()

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring.records())

    def digests(self, limit: Optional[int] = None) -> List[RequestDigest]:
        """Newest-last snapshot of the ring (optionally the last N)."""
        return self._ring.records(limit)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "recorded_total": int(self._records.value)
                if hasattr(self._records, "value")
                else None,
                "in_ring": len(self._ring.records()),
                "dumps_written": self._dump_seq,
                "dump_files": list(self._dumps),
                "dump_dir": self.dump_dir,
            }

    # -- cold path: dumps ----------------------------------------------------

    def dump(self, reason: str, force: bool = False) -> Optional[str]:
        """Write a black-box snapshot; returns the file path.

        Rate-limited per reason (``cooldown_s``) unless ``force``;
        returns ``None`` when suppressed or the ring is empty.  The file
        is JSONL: a ``meta`` record first (reason, active spans, metrics
        snapshot), then one record per digest, oldest first.
        """
        now = time.time()
        with self._lock:
            digests = self._ring.records()
            if not digests:
                return None
            last = self._last_dump_ts.get(reason, 0.0)
            if not force and now - last < self.cooldown_s:
                return None
            self._last_dump_ts[reason] = now
            self._dump_seq += 1
            seq = self._dump_seq
        active = [s.to_dict() for s in tracing.active_spans()]
        registry = obs_metrics.get_registry()
        metrics_snapshot = registry.to_dict() if registry is not None else {}
        meta = {
            "record": "meta",
            "reason": reason,
            "ts": now,
            "pid": os.getpid(),
            "digest_count": len(digests),
            "active_spans": active,
            "metrics": metrics_snapshot,
        }
        # Post-mortems need to know *which engine generation* was
        # serving — embed the lifecycle journal's head digest when one
        # is active (imported lazily: journal imports this package).
        from repro.obs import journal as obs_journal

        active_journal = obs_journal.get_journal()
        if active_journal is not None:
            meta["journal"] = active_journal.digest()
        os.makedirs(self.dump_dir, exist_ok=True)
        path = os.path.join(self.dump_dir, f"flight-{seq:04d}-{reason}.jsonl")
        try:
            # A dump is a snapshot: it replaces a file of the same name.
            with open(path, "wb") as handle:
                handle.writelines(map(encode_record, [meta, *digests]))
        except OSError:  # pragma: no cover - disk trouble at dump time
            return None
        with self._lock:
            self._dumps.append(path)
        self._dumps_counter.labels(reason).inc()
        return path

    # -- exit-path integration ----------------------------------------------

    def arm_exit_dump(self) -> None:
        """Dump once when the process exits: at interpreter exit, or on
        SIGTERM/SIGINT, after which the handler that was installed
        before runs (from the main thread; elsewhere only at exit)."""
        self.dump_on_exit = True
        self._exit_dumped = False
        atexit.unregister(self.flush)
        atexit.register(self.flush)
        if self._previous_handlers:
            return
        try:
            for signum in _EXIT_SIGNALS:
                self._previous_handlers[signum] = signal.signal(
                    signum, self._on_exit_signal
                )
        except ValueError:  # pragma: no cover - not the main thread
            self._previous_handlers.clear()

    def disarm_exit_dump(self) -> None:
        """Undo :meth:`arm_exit_dump`, restoring the previous handlers."""
        self.dump_on_exit = False
        atexit.unregister(self.flush)
        try:
            for signum, previous in self._previous_handlers.items():
                signal.signal(signum, previous)
        except ValueError:  # pragma: no cover - not the main thread
            pass
        self._previous_handlers.clear()

    def flush(self) -> None:
        """The exit hook: one forced dump, idempotent."""
        if not self.dump_on_exit or self._exit_dumped:
            return
        self._exit_dumped = True
        self.dump("exit", force=True)

    def _on_exit_signal(self, signum, frame) -> None:
        """Dump, then hand the signal to whoever had it before."""
        self.flush()
        previous = self._previous_handlers.get(signum)
        if callable(previous) and previous not in (
            signal.SIG_DFL, signal.SIG_IGN, signal.default_int_handler
        ):
            previous(signum, frame)
            return
        if previous is signal.SIG_IGN:
            return
        # Default disposition: restore it and re-raise, so the process
        # dies with the signal's exit status.
        signal.signal(signum, signal.SIG_DFL)
        signal.raise_signal(signum)


#: The process-global recorder; ``None`` means recording is disabled.
_RECORDER: Optional[FlightRecorder] = None


def configure(
    capacity: int = DEFAULT_CAPACITY,
    dump_dir: Optional[str] = None,
    cooldown_s: float = DEFAULT_COOLDOWN_S,
) -> FlightRecorder:
    """Install a recorder as the process global and return it."""
    global _RECORDER
    _RECORDER = FlightRecorder(capacity, dump_dir, cooldown_s)
    return _RECORDER


def disable() -> None:
    global _RECORDER
    if _RECORDER is not None:
        _RECORDER.disarm_exit_dump()
    _RECORDER = None


def get_recorder() -> Optional[FlightRecorder]:
    return _RECORDER


def record(digest: RequestDigest) -> None:
    """Append to the global recorder (no-op while disabled)."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.record(digest)
