"""The load generator's HTTP calls and its view of the server process.

One :class:`Connection` per generator thread (keep-alive HTTP/1.1 over
``http.client``); each call returns a :class:`Call` with its timing,
status and decoded body.  Sheds (503) are retried after the server's
``retry_after_ms``; a call that exhausts its retries, times out or
answers anything but 200 is a failure.

:func:`proc_cpu_seconds` and :func:`proc_peak_rss_mb` read the server
process from ``/proc`` — outside the program; :func:`host_cpu_ticks`
reads the host's CPU time stolen by the hypervisor.
"""

from __future__ import annotations

import http.client
import json
import os
import time
from typing import Dict, Optional

#: Per-call socket timeout; a failed call is counted at this latency.
CALL_TIMEOUT_S = 60.0
SWAP_TIMEOUT_S = 150.0
MAX_RETRIES = 3


class Call:
    __slots__ = ("sent", "received", "status", "body", "retries", "error")

    def __init__(self):
        self.sent = 0.0
        self.received = 0.0
        self.status = 0
        self.body: Optional[Dict] = None
        self.retries = 0
        self.error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.body is not None

    @property
    def rtt_s(self) -> float:
        return self.received - self.sent


class Connection:
    def __init__(self, port: int, timeout: float = CALL_TIMEOUT_S):
        self.port = port
        self.timeout = timeout
        self._conn = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _once(self, method: str, path: str, body: Optional[bytes]):
        connection = self._connection()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        content_type = response.getheader("content-type", "")
        return response.status, response.read(), content_type

    def call(self, method: str, path: str, body: Optional[bytes] = None) -> Call:
        """One logical call, retrying sheds; ``sent`` is the first send."""
        call = Call()
        call.sent = time.perf_counter()
        while True:
            try:
                status, raw, content_type = self._once(method, path, body)
            except (OSError, http.client.HTTPException) as exc:
                self.close()
                call.received = time.perf_counter()
                call.error = f"{type(exc).__name__}: {exc}"
                return call
            call.status = status
            if status == 503 and call.retries < MAX_RETRIES:
                call.retries += 1
                try:
                    wait_ms = float(json.loads(raw).get("retry_after_ms", 5.0))
                except (ValueError, AttributeError):
                    wait_ms = 5.0
                time.sleep(min(max(wait_ms, 1.0), 1000.0) / 1000.0)
                continue
            call.received = time.perf_counter()
            if status == 200:
                if content_type.startswith("application/json"):
                    call.body = json.loads(raw)
                else:
                    call.body = raw.decode("utf-8")
            else:
                call.error = f"HTTP {status}: {raw[:200]!r}"
            return call


def get_text(port: int, path: str) -> str:
    connection = Connection(port)
    try:
        call = connection.call("GET", path)
    finally:
        connection.close()
    if not call.ok:
        raise RuntimeError(f"GET {path} failed: {call.error}")
    return call.body if isinstance(call.body, str) else json.dumps(call.body)


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds the process has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        stat = handle.read()
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the whole line.
    fields = stat[stat.rindex(")") + 2:].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """The process's peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_cpu_ticks():
    """``(steal, total)`` CPU ticks of the host since boot: the time a
    virtual machine's CPUs were ready but held by the hypervisor, and
    all CPU time."""
    with open("/proc/stat") as handle:
        fields = [int(f) for f in handle.readline().split()[1:]]
    return fields[7], sum(fields)
