"""The asyncio HTTP surface of the serving front end.

A deliberately small, dependency-free HTTP/1.1 server (keep-alive,
``Content-Length`` framing) — the protocol layer is not the point; the
serving discipline behind it is:

* ``POST /recommend`` — one unified request.  Parsed with structured
  validation (400s name the field), routed by consistent hash, gated
  by admission control (503s carry ``retry_after_ms``), coalesced by
  shard backlog (an idle shard gets it at once).
* ``POST /batch`` — a request batch; split per shard and submitted
  directly (the client already batched — no coalescing).
* ``POST /admin/swap`` — refit (or reuse the snapshot) and hot-swap
  every shard with zero downtime; returns the swap report.
* ``POST /admin/invalidate`` — drop cached votes (all or one
  parameter) on every shard.
* ``GET /healthz`` / ``GET /stats`` / ``GET /metrics`` — liveness, the
  shard-set counters, and the Prometheus exposition of the process
  registry (exemplars included).
* ``GET /debug/trace/<trace_id>`` / ``GET /debug/flight`` — the
  reassembled span tree of one request, and the flight recorder's
  black-box ring.
* ``GET /debug/generations`` — the engine-lifecycle timeline from the
  process journal: which generation is serving, how it came to be
  (fit → refresh → hot swap → ...), and the raw recent records.

Every recommendation request is traced end to end: the server accepts
and emits W3C ``traceparent``, answers with a ``Server-Timing`` header
plus a ``timings`` body field (queue/coalesce/engine/serialize), and
appends a digest to the flight recorder.

The event loop owns parsing, routing, admission and coalescing; shard
worker threads own the engine calls; completion crosses back with
``call_soon_threadsafe``.  :func:`serve_in_thread` hosts the loop in a
daemon thread for synchronous callers (the CLI, the benchmark, CI).
"""

from __future__ import annotations

import asyncio
import json
import queue
import threading
import time
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.recommendation import RecommendResult
from repro.obs import flight
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.obs.records import RecordSink
from repro.serve.front.admission import AdmissionController, OverloadError
from repro.serve.front.coalesce import Coalescer
from repro.serve.front.routing import shard_key
from repro.serve.front.shards import EngineShard, ShardSet
from repro.serve.front.timings import RequestTimings
from repro.serve.validation import (
    RequestValidationError,
    unified_request_from_dict,
    unified_requests_from_json,
)

__all__ = ["FrontConfig", "FrontServer", "ServerHandle", "serve_in_thread"]

_MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_HEADER_BYTES = 64 * 1024


@dataclass
class FrontConfig:
    """Tuning knobs of the front end (the ``repro serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is on the handle
    shards: int = 2
    max_inflight: int = 512
    max_batch: int = 32
    #: Default parameter restriction applied to requests that do not
    #: name their own (None = the service's default set).
    parameters: Optional[Tuple[str, ...]] = None


@dataclass
class _ConnState:
    requests: int = 0
    keep_alive: bool = True


class FrontServer:
    """One front end over one :class:`ShardSet`."""

    def __init__(self, shard_set: ShardSet, config: Optional[FrontConfig] = None):
        self.shard_set = shard_set
        self.config = config or FrontConfig()
        self._admission = AdmissionController(self.config.max_inflight)
        self._coalescers: Dict[int, Coalescer] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._requests_counter = obs_metrics.counter(
            "repro_front_requests_total",
            "Front-end requests by endpoint and outcome",
            labelnames=("endpoint", "status"),
        )
        self._latency_histogram = obs_metrics.histogram(
            "repro_front_request_seconds",
            "Front-end request latency (admission to response)",
            buckets=obs_metrics.DEFAULT_LATENCY_BUCKETS,
        )
        #: Span store backing ``/debug/trace/<id>``; attached to the
        #: global tracer while the server runs (only when tracing is
        #: enabled at start).
        self._trace_buffer: Optional[RecordSink] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> int:
        """Bind and start accepting; returns the bound port."""
        self._loop = asyncio.get_event_loop()
        tracer = tracing.get_tracer()
        if tracer is not None:
            self._trace_buffer = RecordSink(capacity=8192)
            tracer.exporters.append(self._trace_buffer)
        for shard in self.shard_set.shards:
            self._coalescers[shard.shard_id] = Coalescer(
                self._make_flush(shard),
                max_batch=self.config.max_batch,
                loop=self._loop,
            )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive connections sit in readuntil forever; cancel
        # them so the loop can close cleanly.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        for coalescer in self._coalescers.values():
            coalescer.close()
        if self._trace_buffer is not None:
            tracer = tracing.get_tracer()
            if tracer is not None and self._trace_buffer in tracer.exporters:
                tracer.exporters.remove(self._trace_buffer)

    @property
    def port(self) -> Optional[int]:
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    # -- shard dispatch ------------------------------------------------------

    def _make_flush(self, shard: EngineShard):
        """The coalescer flush: hand one micro-batch to the shard.

        A shed releases the shard's coalescer slot on the next loop turn,
        not by recursion, so a full queue sheds a long backlog one batch
        at a time; ``_resolve_batch`` releases it otherwise."""

        def flush(batch):
            requests = [entry.request for entry in batch]
            futures = [entry.future for entry in batch]
            traces = [entry.trace for entry in batch]
            timings = [entry.timings for entry in batch]

            def on_done(results, error):
                # Runs on the shard worker thread.
                self._loop.call_soon_threadsafe(
                    self._resolve_batch, shard, futures, results, error
                )

            try:
                shard.submit_batch(requests, on_done, traces, timings)
            except queue.Full:
                shed = self._admission.shed_queue_full(
                    shard.shard_id, shard.max_queue, shard.depth
                )
                for future in futures:
                    if not future.done():
                        future.set_exception(
                            OverloadError(
                                shed.reason, shed.limit, shed.depth,
                                shed.retry_after_ms, shed.shard,
                            )
                        )
                self._loop.call_soon(self._coalescers[shard.shard_id].release)

        return flush

    def _resolve_batch(self, shard, futures, results, error) -> None:
        self._coalescers[shard.shard_id].release()
        if error is not None:
            for future in futures:
                if not future.done():
                    future.set_exception(error)
            return
        for future, result in zip(futures, results):
            if not future.done():
                future.set_result((shard.shard_id, result))

    async def _dispatch(
        self,
        request,
        context: Optional[Tuple[str, str]] = None,
        timings: Optional[RequestTimings] = None,
    ) -> Tuple[int, RecommendResult]:
        """Admit, coalesce and await one request's result.

        ``context`` is the request's ``front.request`` span context; it
        rides with the coalesced entry so the shard worker can re-root
        its spans, and the coalesce/queue waits are emitted as
        retroactive spans once the timings are complete.
        """
        shard = self.shard_set.shard_for(request)
        with tracing.span("front.admission", shard=shard.shard_id):
            self._admission.admit()
        started = time.perf_counter()
        try:
            outcome = await self._coalescers[shard.shard_id].submit(
                request, trace=context, timings=timings
            )
        finally:
            self._admission.release(
                latency_s=time.perf_counter() - started
            )
        if context is not None and timings is not None and tracing.active():
            self._emit_wait_spans(context, timings, shard.shard_id)
        return outcome

    def _emit_wait_spans(
        self,
        context: Tuple[str, str],
        timings: RequestTimings,
        shard_id: int,
    ) -> None:
        """Retroactive ``front.coalesce`` / ``front.queue`` spans.

        The waits are only bounded after the shard worker dequeued the
        batch, so the spans are recorded after the fact, parented at
        the request's root span and placed on the wall clock via the
        timings anchor.
        """
        if timings.submitted is not None and timings.flushed is not None:
            tracing.record_span(
                "front.coalesce",
                context,
                timings.wall(timings.submitted),
                timings.coalesce_s,
                shard=shard_id,
            )
        if timings.flushed is not None and timings.dequeued is not None:
            tracing.record_span(
                "front.queue",
                context,
                timings.wall(timings.flushed),
                timings.queue_s,
                shard=shard_id,
            )

    def _result_body(
        self,
        shard_id: int,
        result: RecommendResult,
        timings: Optional[RequestTimings] = None,
    ) -> Dict:
        serialize_started = time.perf_counter()
        body = {
            "target": result.recommendation.target,
            "values": {
                name: rec.value
                for name, rec in sorted(
                    result.recommendation.recommendations.items()
                )
            },
            "scopes": result.scope_counts(),
            "shard": shard_id,
            "generation": result.generation,
            "duration_ms": round(result.duration_s * 1000.0, 3),
            "explain": result.explain.to_dict() if result.explain else None,
        }
        if timings is not None:
            if timings.engine_s is None:
                timings.engine_s = result.duration_s
            else:
                timings.engine_s += result.duration_s
            serialize_s = time.perf_counter() - serialize_started
            timings.serialize_s = (timings.serialize_s or 0.0) + serialize_s
        return body

    # -- endpoints -----------------------------------------------------------

    async def _post_recommend(
        self,
        payload,
        context: Optional[Tuple[str, str]] = None,
        timings: Optional[RequestTimings] = None,
    ) -> Tuple[int, Dict]:
        request = unified_request_from_dict(
            payload, "request", self.config.parameters
        )
        shard_id, result = await self._dispatch(request, context, timings)
        body = self._result_body(shard_id, result, timings)
        body["market"] = str(shard_key(request))
        return 200, body

    async def _post_batch(
        self,
        payload,
        context: Optional[Tuple[str, str]] = None,
        timings: Optional[RequestTimings] = None,
    ) -> Tuple[int, Dict]:
        requests = unified_requests_from_json(payload, self.config.parameters)
        if not requests:
            return 200, {"results": []}
        # The client already batched: admit the whole batch, split it
        # per shard and submit directly — no coalescing.  One
        # trace and one (aggregate) timings object cover the batch.
        with tracing.span("front.admission", batch=len(requests)):
            self._admission.admit(weight=len(requests))
        started = time.perf_counter()
        if timings is not None:
            timings.submitted = started
            timings.flushed = started
        try:
            groups: Dict[int, List[Tuple[int, object]]] = {}
            for position, request in enumerate(requests):
                shard = self.shard_set.shard_for(request)
                groups.setdefault(shard.shard_id, []).append(
                    (position, request)
                )
            shard_by_id = {s.shard_id: s for s in self.shard_set.shards}
            futures = []
            for shard_id, entries in groups.items():
                shard = shard_by_id[shard_id]
                group_future = self._loop.create_future()

                def on_done(results, error, _future=group_future):
                    self._loop.call_soon_threadsafe(
                        self._resolve_group, _future, results, error
                    )

                group_requests = [r for _, r in entries]
                try:
                    shard.submit_batch(
                        group_requests,
                        on_done,
                        traces=[context] * len(group_requests),
                        timings=[timings] * len(group_requests),
                    )
                except queue.Full:
                    raise self._admission.shed_queue_full(
                        shard.shard_id, shard.max_queue, shard.depth
                    ) from None
                futures.append((shard_id, entries, group_future))

            ordered: List[Optional[Dict]] = [None] * len(requests)
            for shard_id, entries, group_future in futures:
                results = await group_future
                for (position, _), result in zip(entries, results):
                    ordered[position] = self._result_body(
                        shard_id, result, timings
                    )
            return 200, {"results": ordered}
        finally:
            self._admission.release(
                weight=len(requests),
                latency_s=time.perf_counter() - started,
            )

    def _resolve_group(self, future, results, error) -> None:
        if future.done():
            return
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(results)

    async def _post_swap(self, payload) -> Tuple[int, Dict]:
        payload = payload or {}
        jobs = payload.get("jobs", 1)
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 0:
            raise RequestValidationError(
                "jobs", "expected a non-negative integer"
            )
        report = await self._loop.run_in_executor(
            None, lambda: self.shard_set.hot_swap(jobs=jobs)
        )
        return 200, {
            "generation": report.generation,
            "refit_s": round(report.refit_s, 6),
            "swap_s": round(report.swap_s, 6),
            "warmed": report.warmed,
            "shards": report.shards,
        }

    async def _post_invalidate(self, payload) -> Tuple[int, Dict]:
        payload = payload or {}
        parameter = payload.get("parameter")
        if parameter is not None and not isinstance(parameter, str):
            raise RequestValidationError(
                "parameter", "expected a parameter name string"
            )
        dropped = self.shard_set.invalidate(parameter)
        return 200, {"dropped": dropped}

    def _get_healthz(self) -> Tuple[int, Dict]:
        return 200, {
            "status": "ok",
            "generation": self.shard_set.generation,
            "shards": len(self.shard_set.shards),
            "inflight": self._admission.inflight,
        }

    def _get_stats(self) -> Tuple[int, Dict]:
        stats = self.shard_set.stats()
        stats["inflight"] = self._admission.inflight
        stats["max_inflight"] = self.config.max_inflight
        stats["coalescer_pending"] = {
            shard_id: c.pending for shard_id, c in self._coalescers.items()
        }
        return 200, stats

    # -- HTTP plumbing -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        state = _ConnState()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while state.keep_alive:
                head = await self._read_head(reader)
                if head is None:
                    break
                method, path, headers = head
                if headers.get("connection", "").lower() == "close":
                    state.keep_alive = False
                body = b""
                raw_length = headers.get("content-length", "0") or "0"
                if not (raw_length.isascii() and raw_length.isdigit()):
                    # The body's extent is unknown, so the framing is
                    # lost: answer, then close the connection.
                    error = RequestValidationError(
                        "content-length", "expected a non-negative integer"
                    )
                    await self._respond(writer, 400, error.to_dict())
                    break
                length = int(raw_length)
                if length:
                    if length > _MAX_BODY_BYTES:
                        await self._respond(
                            writer, 413,
                            {"error": "payload_too_large", "limit": _MAX_BODY_BYTES},
                        )
                        break
                    body = await reader.readexactly(length)
                status, payload, extra = await self._route(
                    method, path, body, headers
                )
                state.requests += 1
                await self._respond(writer, status, payload, extra)
        except (
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_head(self, reader):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            return None
        if len(head) > _MAX_HEADER_BYTES:
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            return None
        method, path, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), path, headers

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, object, Dict[str, str]]:
        started = time.perf_counter()
        endpoint = path.split("?", 1)[0]
        headers = headers or {}
        extra: Dict[str, str] = {}
        try:
            if method == "GET":
                if endpoint == "/healthz":
                    status, payload = self._get_healthz()
                elif endpoint == "/stats":
                    status, payload = self._get_stats()
                elif endpoint == "/metrics":
                    text = obs_metrics.get_registry().to_prometheus_text(
                        exemplars=True
                    )
                    self._count(endpoint, "200", started)
                    return 200, text, {"content-type": "text/plain; version=0.0.4"}
                elif endpoint == "/debug/generations":
                    status, payload = self._get_debug_generations()
                elif endpoint == "/debug/flight":
                    status, payload = self._get_debug_flight()
                elif endpoint.startswith("/debug/trace/"):
                    status, payload = self._get_debug_trace(
                        endpoint[len("/debug/trace/"):]
                    )
                else:
                    status, payload = 404, {"error": "not_found", "path": endpoint}
            elif method == "POST":
                try:
                    parsed = json.loads(body.decode("utf-8")) if body else None
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise RequestValidationError(
                        "body", f"request body is not valid JSON: {exc}"
                    ) from None
                if endpoint in ("/recommend", "/batch"):
                    # The traced request path does its own error
                    # handling, accounting and response decoration.
                    return await self._serve_traced(
                        endpoint, parsed, headers, started
                    )
                if endpoint == "/admin/swap":
                    status, payload = await self._post_swap(parsed)
                elif endpoint == "/admin/invalidate":
                    status, payload = await self._post_invalidate(parsed)
                else:
                    status, payload = 404, {"error": "not_found", "path": endpoint}
            else:
                status, payload = 405, {"error": "method_not_allowed"}
        except RequestValidationError as exc:
            status, payload = 400, exc.to_dict()
        except OverloadError as exc:
            status, payload = 503, exc.to_dict()
            extra["retry-after"] = str(
                max(exc.retry_after_ms / 1000.0, 0.001)
            )
        except Exception as exc:  # noqa: BLE001 - the 500 boundary
            status, payload = 500, {
                "error": "internal",
                "reason": f"{type(exc).__name__}: {exc}",
            }
        self._count(endpoint, str(status), started)
        return status, payload, extra

    async def _serve_traced(
        self,
        endpoint: str,
        parsed,
        headers: Dict[str, str],
        started: float,
    ) -> Tuple[int, object, Dict[str, str]]:
        """The recommendation path: ``POST /recommend`` and ``/batch``.

        Opens the request's root span (continuing the client's W3C
        ``traceparent`` when one arrived), decorates the response with
        ``traceparent`` + ``Server-Timing`` headers and a ``timings``
        body field, feeds the latency histogram an exemplar and the
        flight recorder a digest — for every outcome, including sheds.
        """
        timings = RequestTimings()
        incoming = tracing.parse_traceparent(headers.get("traceparent"))
        extra: Dict[str, str] = {}
        handler = (
            self._post_recommend if endpoint == "/recommend" else self._post_batch
        )
        context: Optional[Tuple[str, str]] = None
        try:
            if tracing.active():
                attrs: Dict[str, object] = {"endpoint": endpoint}
                if incoming is not None:
                    attrs["remote_parent"] = True
                handle = tracing.span_from_context(
                    incoming, "front.request", **attrs
                )
                with handle:
                    context = (handle.span.trace_id, handle.span.span_id)
                    status, payload = await handler(parsed, context, timings)
                    handle.set("status", status)
            else:
                # Tracing off: still mint a context so the response
                # carries a traceparent and the digest a trace id.
                trace_id = incoming[0] if incoming else os.urandom(16).hex()
                context = (trace_id, os.urandom(8).hex())
                status, payload = await handler(parsed, context, timings)
        except RequestValidationError as exc:
            status, payload = 400, exc.to_dict()
        except OverloadError as exc:
            status, payload = 503, exc.to_dict()
            extra["retry-after"] = str(
                max(exc.retry_after_ms / 1000.0, 0.001)
            )
        except Exception as exc:  # noqa: BLE001 - the 500 boundary
            status, payload = 500, {
                "error": "internal",
                "reason": f"{type(exc).__name__}: {exc}",
            }
        timings.finished = time.perf_counter()
        if status == 200 and isinstance(payload, dict):
            payload["timings"] = timings.breakdown_ms()
        traceparent = tracing.format_traceparent(context)
        if traceparent is not None:
            extra["traceparent"] = traceparent
        extra["server-timing"] = timings.server_timing()
        trace_id = context[0] if context is not None else None
        self._record_digest(trace_id, status, payload, timings)
        self._count(endpoint, str(status), started, trace_id=trace_id)
        return status, payload, extra

    def _record_digest(
        self,
        trace_id: Optional[str],
        status: int,
        payload,
        timings: RequestTimings,
    ) -> None:
        """One flight-recorder digest per recommendation request."""
        recorder = flight.get_recorder()
        if recorder is None:
            return
        market = shard_id = generation = shed_reason = None
        if isinstance(payload, dict):
            market = payload.get("market")
            shard_id = payload.get("shard")
            generation = payload.get("generation")
            if status == 503:
                shed_reason = payload.get("reason")
        if generation is None:
            generation = self.shard_set.generation
        recorder.record(
            flight.RequestDigest(
                trace_id=trace_id,
                market=market,
                shard=shard_id,
                generation=generation,
                status=status,
                latency_ms=round(timings.total_s * 1000.0, 3),
                shed_reason=shed_reason,
            )
        )

    def _get_debug_trace(self, trace_id: str) -> Tuple[int, Dict]:
        """``GET /debug/trace/<trace_id>`` — the reassembled span tree."""
        trace_id = trace_id.strip().strip("/")
        if not trace_id:
            return 404, {"error": "not_found", "path": "/debug/trace/"}
        if self._trace_buffer is None:
            return 404, {
                "error": "tracing_disabled",
                "detail": "start the server with tracing enabled",
            }
        tree = tracing.assemble_trace(self._trace_buffer.records(), trace_id)
        if not tree.spans:
            return 404, {"error": "trace_not_found", "trace_id": trace_id}
        return 200, tree.to_dict()

    def _get_debug_generations(self) -> Tuple[int, Dict]:
        """``GET /debug/generations`` — the lifecycle timeline.

        Resolves the ``generation`` id stamped on response payloads back
        to the journal records that created it: the assembled timeline
        plus the raw recent records."""
        from repro.obs import journal as obs_journal

        active_journal = obs_journal.get_journal()
        if active_journal is None:
            return 404, {
                "error": "journal_disabled",
                "detail": "start the server with --journal PATH",
            }
        records = active_journal.tail()
        timeline = obs_journal.assemble_timeline(records)
        return 200, {
            "serving": {
                "generation": self.shard_set.generation,
                "stream": self.shard_set.journal_stream,
                "shards": len(self.shard_set.shards),
            },
            "journal": active_journal.digest(),
            "timeline": timeline.to_dict(),
            "records": records,
        }

    def _get_debug_flight(self) -> Tuple[int, Dict]:
        """``GET /debug/flight`` — recorder stats + recent digests."""
        recorder = flight.get_recorder()
        if recorder is None:
            return 404, {
                "error": "flight_recorder_disabled",
                "detail": "start the server with the flight recorder enabled",
            }
        stats = recorder.stats()
        stats["digests"] = [
            digest.to_dict() for digest in recorder.digests(limit=200)
        ]
        return 200, stats

    def _count(
        self,
        endpoint: str,
        status: str,
        started: float,
        trace_id: Optional[str] = None,
    ) -> None:
        self._requests_counter.labels(endpoint=endpoint, status=status).inc()
        self._latency_histogram.observe(
            time.perf_counter() - started, exemplar=trace_id
        )

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload,
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        reasons = {
            200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error", 503: "Service Unavailable",
        }
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; charset=utf-8"
        else:
            body = json.dumps(payload, default=str).encode("utf-8")
            content_type = "application/json"
        headers = {
            "content-type": content_type,
            "content-length": str(len(body)),
        }
        if extra:
            headers.update(extra)
        head = f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
        head += "".join(f"{k}: {v}\r\n" for k, v in headers.items())
        writer.write(head.encode("latin-1") + b"\r\n" + body)
        await writer.drain()


class ServerHandle:
    """A front end hosted on a daemon thread, for synchronous callers."""

    def __init__(self, server: FrontServer):
        self.server = server
        self.port: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._stopping = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self, timeout: float = 30.0) -> "ServerHandle":
        self._thread = threading.Thread(
            target=self._run, name="repro-front", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("front end did not start in time")
        if self._error is not None:
            raise RuntimeError(f"front end failed to start: {self._error}")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        stop_waiter = self._loop.create_future()
        self._stop_waiter = stop_waiter
        try:
            self.port = self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_until_complete(stop_waiter)
            self._loop.run_until_complete(self.server.stop())
        finally:
            self._loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is None or self._thread is None:
            return
        if not self._stopping.is_set():
            self._stopping.set()

            def _finish():
                if not self._stop_waiter.done():
                    self._stop_waiter.set_result(None)

            self._loop.call_soon_threadsafe(_finish)
        self._thread.join(timeout=timeout)


def serve_in_thread(
    shard_set: ShardSet, config: Optional[FrontConfig] = None
) -> ServerHandle:
    """Boot a front end on a daemon thread; returns the started handle
    (``handle.port`` is the bound port)."""
    return ServerHandle(FrontServer(shard_set, config)).start()
