"""Auric's serving and set-up paths, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload wave --seed 1 --seconds 30 --trace 0

This process is the load generator.  It starts the server launcher
(``perfbench/server.py``) as a second process, drives it over HTTP with
at most two connections, audits every answer against an oracle fitted
here, and prints every metric by name with its unit and sample count.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The exit code is 1 when an answer fails the audit or a
budget does not close, 2 when the repository is not there.

See ``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import queue
import shutil
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import promtext  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from client import (  # noqa: E402
    CALL_TIMEOUT_S,
    SWAP_TIMEOUT_S,
    Connection,
    get_text,
    host_cpu_ticks,
    proc_cpu_seconds,
    proc_peak_rss_mb,
)
from spans import Tracer  # noqa: E402

WORKLOADS = ("wave", "bulk")
#: Set-ups before and after the window; ``setup_s`` is their median.
#: The one after the window lands in another phase of the host's speed.
SETUPS_BEFORE = 2
SETUPS_AFTER = 1
#: Idle hot swaps after the window of a traced run; they give the swap
#: layers, and the fit layers of ``bulk``, whose set-up loads instead.
IDLE_SWAPS = 2
#: Longest the server may take to build the snapshot or to set up.
STARTUP_TIMEOUT_S = 120.0
#: Allowed relative gap between a request budget's layers and its total.
CLOSURE_TOLERANCE = 0.05
#: The same for a fit budget.  ``repro_fit_phase_seconds`` leaves out
#: the drift-baseline capture at the end of a fit, about 5% of a fit
#: (``core.fit.unattributed_s``), so a fit budget closes within 10%.
FIT_CLOSURE_TOLERANCE = 0.10
FIT_PHASES = ("core.fit.encode_s", "core.fit.select_s", "core.fit.vote_s")
LOAD_PARTS = ("serve.artifact.parse_s", "serve.artifact.rebuild_s", "store.open_s")
REQUEST_LAYERS = ("outside", "inside_gap", "coalesce", "queue", "engine", "serialize")
LAYER_NAMES = {
    "outside": "front.outside_ms",
    "inside_gap": "front.inside_gap_ms",
    "coalesce": "front.coalesce_ms",
    "queue": "front.queue_ms",
    "engine": "serve.engine_ms",
    "serialize": "front.serialize_ms",
}


class BenchError(RuntimeError):
    """The run could not be carried out (not an audit verdict)."""


# -- the server process ------------------------------------------------------


def cpu_split():
    """``(server CPU, generator CPU)``: two of the CPUs this process may
    use, or ``(None, None)`` when it may use only one.

    Left to the scheduler, the two processes' threads sometimes share a
    CPU and sometimes not, and a hand-off between CPUs costs a wake-up
    that a virtual machine makes dear: ``bulk`` ran at either about
    1,700 or about 2,300 rps.  With one CPU each, the server is a
    one-process-per-core deployment and the generator a client on its
    own core."""
    allowed = sorted(os.sched_getaffinity(0))
    return (allowed[0], allowed[1]) if len(allowed) >= 2 else (None, None)


class ServerProcess:
    """The launcher subprocess and its JSON-lines control channel."""

    def __init__(self, workload: str, trace: bool, spans_path: str, cpu):
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)
        self.proc = subprocess.Popen(
            [
                sys.executable,
                os.path.join(HERE, "server.py"),
                "--workload", workload,
                "--trace", str(int(trace)),
                "--spans", spans_path,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=env,
            preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
        )
        self.pid = self.proc.pid
        self._events: "queue.Queue" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            try:
                self._events.put(json.loads(line))
            except ValueError:
                sys.stderr.write(f"server: {line}")
        self._events.put(None)

    def expect(self, event: str, timeout: float) -> Dict:
        try:
            message = self._events.get(timeout=timeout)
        except queue.Empty:
            raise BenchError(f"server sent no {event!r} within {timeout}s") from None
        if message is None or message.get("event") != event:
            raise BenchError(f"server stopped before {event!r}: {message}")
        return message

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def stats(self) -> Dict:
        self.send("stats")
        return self.expect("stats", 30.0)

    def setup(self, inputs: Dict) -> Dict:
        """Tear the stack down (if up) and set it up once more."""
        self.send("setup " + json.dumps(inputs))
        return self.expect("setup", STARTUP_TIMEOUT_S)

    def quit(self) -> None:
        self.send("quit")
        self.expect("bye", 60.0)
        self.proc.stdin.close()
        self.proc.wait(timeout=30.0)
        self._reader.join(timeout=10.0)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30.0)
        self._reader.join(timeout=10.0)


# -- load loops --------------------------------------------------------------


class Record:
    """One logical call as the generator saw it."""

    __slots__ = ("payload", "call", "lag")

    def __init__(self, payload, call, lag):
        self.payload = payload
        self.call = call
        #: Gap between the previous answer on this connection and this
        #: send: the generator's own time per call.
        self.lag = lag

    @property
    def latency_s(self) -> float:
        """The call's round trip; a failed call counts at the timeout."""
        return self.call.rtt_s if self.call.ok else CALL_TIMEOUT_S


def traced_call(tracer, connection, path, body):
    with tracer.span("client.http", path=path) as span:
        call = connection.call("POST", path, body)
        span.set("status", call.status)
    return call


def closed_loop(port, tracer, payloads, path, seconds, connections, full_pass):
    """``connections`` threads, each posting its next payload as soon as
    the previous answer arrived, for ``seconds``.  With ``full_pass``
    the loop also runs on until every payload was posted once.  Returns
    the calls and the elapsed wall time."""
    bodies = [json.dumps(p).encode() for p in payloads]
    counter = itertools.count()
    records: List[Record] = []
    started = time.perf_counter()
    deadline = started + seconds
    hard_stop = deadline + 90.0

    def worker():
        connection = Connection(port)
        previous_end = None
        try:
            while True:
                index = next(counter)
                now = time.perf_counter()
                if now >= hard_stop:
                    break
                if now >= deadline and not (full_pass and index < len(bodies)):
                    break
                slot = index % len(bodies)
                call = traced_call(tracer, connection, path, bodies[slot])
                lag = 0.0 if previous_end is None else call.sent - previous_end
                previous_end = call.received
                records.append(Record(payloads[slot], call, lag))
        finally:
            connection.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - started


def swap_calls(port, tracer, count: int) -> List:
    """``count`` sequential ``/admin/swap`` calls."""
    connection = Connection(port, timeout=SWAP_TIMEOUT_S)
    try:
        return [
            traced_call(tracer, connection, "/admin/swap", b'{"jobs": 1}')
            for _ in range(count)
        ]
    finally:
        connection.close()


# -- the run -----------------------------------------------------------------


def source_digest() -> str:
    """The git commit when there is one, else a digest of ``src/``."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer(trace, "client")
        tag = f"{workload}-seed{seed}-trace{int(trace)}"
        self.out_dir = os.path.join(HERE, ".out")
        self.spans_path = os.path.join(self.out_dir, f"spans-{tag}")
        self.result_path = os.path.join(self.out_dir, f"result-{tag}.json")
        self.work_dir = os.path.join(HERE, ".work", str(os.getpid()))

    # -- preparation (untimed) -----------------------------------------------

    def prepare(self) -> Dict:
        """Snapshot, oracle and request stream; for ``bulk`` also the
        artifact the server cold-starts from."""
        from repro.core import AuricConfig, AuricEngine

        self.dataset = workloads.load_snapshot()
        self.parameters = workloads.served_parameters(self.dataset.store.catalog)
        inputs: Dict = {}
        if self.workload == "bulk":
            from repro.serve.artifacts import save_engine

            engine = AuricEngine(
                self.dataset.network, self.dataset.store, AuricConfig(store="mmap")
            ).fit(self.parameters)
            os.makedirs(self.work_dir, exist_ok=True)
            inputs["artifact"] = os.path.join(self.work_dir, "engine.json")
            save_engine(engine, inputs["artifact"])
            templates = workloads.bulk_templates(self.dataset)
            shards = [
                workloads.shard_of(payload, self.parameters)
                for payload, _ in templates
            ]
            self.payloads = [
                {"requests": [templates[i][0] for i in batch]}
                for batch in workloads.bulk_batches(512, self.seed, shards)
            ]
            self.template_of = {
                workloads.Oracle.key(payload): carrier for payload, carrier in templates
            }
        else:
            engine = AuricEngine(self.dataset.network, self.dataset.store).fit(
                self.parameters
            )
            self.payloads = workloads.loo_payloads(self.dataset, self.seed)
        self.oracle = workloads.Oracle(self.dataset, engine, self.parameters)
        return inputs

    # -- measurement ---------------------------------------------------------

    def scrape(self, server: ServerProcess, port: int) -> Dict:
        return {
            "samples": promtext.parse(get_text(port, "/metrics")),
            "stats": server.stats(),
            "cpu_s": proc_cpu_seconds(server.pid),
            "host": host_cpu_ticks(),
            "t": time.perf_counter(),
        }

    def drive(self, port: int):
        if self.workload == "wave":
            return closed_loop(
                port, self.tracer, self.payloads, "/recommend", self.seconds, 2, True
            )
        return closed_loop(
            port, self.tracer, self.payloads, "/batch", self.seconds, 1, False
        )

    def run(self) -> Dict:
        started = time.perf_counter()
        self.cpus = cpu_split()
        server = ServerProcess(
            self.workload, self.trace, self.spans_path + "-server.jsonl", self.cpus[0]
        )
        if self.cpus[1] is not None:
            os.sched_setaffinity(0, {self.cpus[1]})
        try:
            inputs = self.prepare()
            snapshot = server.expect("snapshot", STARTUP_TIMEOUT_S)
            setups = [server.setup(inputs) for _ in range(SETUPS_BEFORE)]
            port = setups[-1]["port"]
            if json.loads(get_text(port, "/healthz")).get("status") != "ok":
                raise BenchError("server is not healthy after set-up")
            before = self.scrape(server, port)
            # The generator holds the oracle's engine: a full collection
            # of that heap inside the window would stall both connections.
            gc.collect()
            gc.freeze()
            gc.disable()
            try:
                records, elapsed = self.drive(port)
            finally:
                gc.enable()
            after = self.scrape(server, port)
            peak_rss = proc_peak_rss_mb(server.pid)
            swaps, swapped = [], None
            if self.trace:
                swaps = swap_calls(port, self.tracer, IDLE_SWAPS)
                swapped = promtext.parse(get_text(port, "/metrics"))
            setups += [server.setup(inputs) for _ in range(SETUPS_AFTER)]
            server.quit()
        finally:
            server.kill()
            shutil.rmtree(self.work_dir, ignore_errors=True)
        phases = [s["phases"] for s in setups]
        result = self.evaluate(phases, records, elapsed, peak_rss)
        if self.trace:
            result["per_layer"], result["closures"] = self.layers(
                records, swaps, phases, before, after, swapped
            )
            result["correct"] = result["correct"] and all(
                c["ok"] for c in result["closures"]
            )
            result["attempted"] += len(swaps)
            result["failed"] += sum(not c.ok for c in swaps)
        result["meta"] = self.meta(
            snapshot, setups[0]["parameters"], time.perf_counter() - started
        )
        steal, total = (a - b for a, b in zip(after["host"], before["host"]))
        result["meta"]["host_steal_pct"] = 100.0 * steal / total if total else 0.0
        return result

    # -- evaluation ----------------------------------------------------------

    def answers(self, record: Record):
        """``(payload, values)`` pairs one call answered."""
        body = record.call.body
        if self.workload == "bulk":
            requests, results = record.payload["requests"], body["results"]
            if len(results) != len(requests):
                return []
            return [
                (request, result["values"])
                for request, result in zip(requests, results)
            ]
        return [(record.payload, body["values"])]

    def audit(self, records: List[Record]) -> Dict:
        answered = [r for r in records if r.call.ok]
        self.oracle.expect(
            [payload for r in answered for payload, _ in self.answers_or_empty(r)]
        )
        mismatched_calls = 0
        matched_by_target: Dict = {}
        for record in answered:
            pairs = self.answers_or_empty(record)
            if not pairs or not all(self.oracle.audit(p, v) for p, v in pairs):
                mismatched_calls += 1
                continue
            for payload, values in pairs:
                target = self.target(payload)
                matched_by_target.setdefault(target, values)
        matched, compared = workloads.match_counts(
            self.oracle, list(matched_by_target.items())
        )
        return {
            "mismatched_calls": mismatched_calls,
            "loo_matched": matched,
            "loo_compared": compared,
            "targets": len(matched_by_target),
        }

    def answers_or_empty(self, record: Record):
        try:
            return self.answers(record)
        except (KeyError, TypeError):
            return []

    def target(self, payload):
        if self.workload == "bulk":
            return self.template_of[self.oracle.key(payload)]
        from repro.dataio.keys import carrier_key_from_str

        return carrier_key_from_str(payload["carrier"])

    def evaluate(self, setups, records, elapsed, peak_rss) -> Dict:
        audit = self.audit(records)
        attempted = len(records)
        failed_calls = [r for r in records if not r.call.ok]
        failed = len(failed_calls) + audit["mismatched_calls"]
        per_call = workloads.BULK_BATCH if self.workload == "bulk" else 1
        answered = sum(per_call for r in records if r.call.ok)
        latencies_ms = [r.latency_s * 1000.0 for r in records]
        metrics = {
            "setup_s": (stats.median([s["setup_s"] for s in setups]), "s", len(setups)),
            "rps": (answered / elapsed, "1/s", answered),
            "latency_p50_ms": (stats.median(latencies_ms), "ms", len(latencies_ms)),
            "ok_pct": (100.0 * (attempted - failed) / attempted, "%", attempted),
            "loo_match_pct": (
                100.0 * audit["loo_matched"] / max(audit["loo_compared"], 1),
                "%",
                audit["loo_compared"],
            ),
            "peak_rss_mb": (peak_rss, "MiB", 1),
        }
        return {
            "correct": audit["mismatched_calls"] == 0,
            "attempted": attempted,
            "failed": failed,
            "audit": audit,
            "setups": setups,
            "e2e": metrics,
            "per_layer": {},
            "closures": [],
            "errors": sorted({r.call.error for r in failed_calls if r.call.error})[:5],
        }

    def layers(self, records, swaps, setups, before, after, swapped):
        if not all(c.ok for c in swaps):
            raise BenchError("an idle hot swap failed")
        s0, s1 = before["samples"], after["samples"]
        rows, rtts = [], []
        for record in records:
            call = record.call
            if call.ok and "timings" in call.body:
                rtt = call.rtt_s * 1000.0
                rows.append(stats.split_request_layers(rtt, call.body["timings"]))
                rtts.append(rtt)
        # The budget of a median request: layer means over the requests
        # whose round trip is near the median.  Under contention each
        # layer is skewed on its own, so layer medians over all requests
        # do not add up to the median round trip.
        band = stats.median_band(rows, rtts)
        budget = stats.layer_means(band)
        out = {
            LAYER_NAMES[key]: (budget.get(key, 0.0), "ms", len(band))
            for key in REQUEST_LAYERS
        }
        out["client.rtt_ms"] = (stats.median(rtts), "ms", len(rtts))
        # The tail of every call, a failed one at the timeout.  It has no
        # bound: it follows the hypervisor's steal of this host's CPUs.
        latencies_ms = [r.latency_s * 1000.0 for r in records]
        try:
            tail = stats.p99(latencies_ms)
        except ValueError as exc:
            raise BenchError(f"{exc} (1,000 calls needed)") from None
        out["client.rtt_p99_ms"] = (tail, "ms", len(latencies_ms))
        lags = [r.lag * 1000.0 for r in records]
        out["client.gen_lag_ms"] = (stats.median(lags), "ms", len(lags))

        def ratio(numerator, denominator):
            return 100.0 * numerator / denominator if denominator else 0.0

        def delta(name):
            return promtext.delta(s0, s1, name)

        batches = delta("repro_front_batch_size_count")
        out["front.batch_size"] = (
            delta("repro_front_batch_size_sum") / batches if batches else 0.0,
            "count",
            int(batches),
        )
        out["front.shed_total"] = (delta("repro_front_shed_total"), "count", 1)
        st0, st1 = before["stats"], after["stats"]
        hits = st1["cache_hits"] - st0["cache_hits"]
        lookups = hits + st1["cache_misses"] - st0["cache_misses"]
        out["serve.cache_hit_pct"] = (ratio(hits, lookups), "%", lookups)
        votes = delta("repro_batch_parameter_votes_total")
        out["serve.dedup_saved_pct"] = (
            ratio(delta("repro_batch_dedup_savings_total"), votes), "%", int(votes)
        )
        distinct = delta("repro_batch_distinct_votes_total")
        out["serve.vectorized_vote_pct"] = (
            ratio(delta("repro_batch_vectorized_votes_total"), distinct),
            "%",
            int(distinct),
        )
        out["server.cpu_util"] = (
            (after["cpu_s"] - before["cpu_s"]) / (after["t"] - before["t"]), "cores", 1
        )

        # Set-up layers come from the set-up of median duration, so its
        # parts stay together.
        setup = stats.median_item(setups, "setup_s")

        def setup_part(key):
            return (setup.get(key, 0.0), "s", len(setups) if key in setup else 0)

        refits = [c.body["refit_s"] for c in swaps]
        if self.workload == "bulk":
            # Set-up loads an artifact; the fit runs inside each swap.
            out["core.fit_s"] = (stats.median(refits), "s", len(refits))
            for name, seconds in promtext.fit_phases(s1, swapped).items():
                out[f"core.fit.{name}_s"] = (seconds / len(swaps), "s", len(swaps))
        else:
            for key in ("core.fit_s",) + FIT_PHASES:
                out[key] = setup_part(key)
        # What repro_fit_phase_seconds leaves out of the fit.
        out["core.fit.unattributed_s"] = (
            out["core.fit_s"][0] - sum(out[key][0] for key in FIT_PHASES),
            "s",
            out["core.fit_s"][2],
        )
        for key in LOAD_PARTS + ("core.warm_s", "front.bind_s"):
            out[key] = setup_part(key)
        drains = [c.body["swap_s"] for c in swaps]
        out["front.swap.refit_s"] = (stats.median(refits), "s", len(refits))
        out["front.swap.drain_s"] = (stats.median(drains), "s", len(drains))

        # Each fit budget closes measured parts against a total timed on
        # another clock; the unattributed remainder is never a part.
        if self.workload == "bulk":
            # The load layers cut one window into back-to-back spans, so
            # they close by construction; the fit is checked on the swaps.
            fit_budget = stats.check_closure(
                "idle swaps: fit phases vs the server's refit_s",
                {p: out[p][0] for p in FIT_PHASES},
                out["front.swap.refit_s"][0],
                FIT_CLOSURE_TOLERANCE,
            )
        else:
            fit_budget = stats.check_closure(
                "set-up: fit phases + warm + bind vs setup_s",
                {p: out[p][0] for p in FIT_PHASES + ("core.warm_s", "front.bind_s")},
                setup["setup_s"],
                FIT_CLOSURE_TOLERANCE,
            )
        closures = [
            stats.check_closure(
                "request path: median-band layer budget vs median client round trip",
                {LAYER_NAMES[k]: budget[k] for k in REQUEST_LAYERS},
                out["client.rtt_ms"][0],
                CLOSURE_TOLERANCE,
            ),
            fit_budget,
        ]
        return out, closures

    def meta(self, snapshot, parameters, wall_s) -> Dict:
        import numpy

        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "nproc": os.cpu_count(),
            "cpu_server": self.cpus[0],
            "cpu_generator": self.cpus[1],
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "source": source_digest(),
            "scale": workloads.SCALE,
            "carriers": snapshot["carriers"],
            "parameters": parameters,
            "engine_source": "artifact" if self.workload == "bulk" else "fit",
            "setups": SETUPS_BEFORE + SETUPS_AFTER,
            "wall_s": wall_s,
        }


# -- reporting ---------------------------------------------------------------


def declared_metrics() -> Dict[str, List[Dict]]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    declared = {"e2e": spec["end_to_end"], "per_layer": spec["per_layer"]}
    bad = [m["name"] for ms in declared.values() for m in ms if not stats.valid_name(m["name"])]
    if bad:
        raise BenchError(f"BENCHMARK.json has invalid metric names: {bad}")
    return declared


def report(bench: Bench, result: Dict) -> Dict:
    declared = declared_metrics()
    kind = "per_layer" if bench.trace else "e2e"
    measured = result[kind]
    names = [m["name"] for m in declared[kind]]
    if sorted(names) != sorted(measured):
        raise BenchError(
            f"measured {sorted(measured)} but BENCHMARK.json declares {sorted(names)}"
        )
    print(f"# {json.dumps(result['meta'], sort_keys=True)}")
    for name in names:
        value, unit, count = measured[name]
        print(f"{name} = {value:.6g} {unit} (n={count})")
    for closure in result["closures"]:
        verdict = "ok" if closure["ok"] else "FAILED"
        negative = closure["negative"]
        print(
            f"closure {verdict}: {closure['name']}: sum {closure['sum']:.6g} "
            f"vs total {closure['total']:.6g} (error {closure['error']:.2%}, "
            f"tolerance {closure['tolerance']:.0%})"
            + (f", negative parts {negative}" if negative else "")
        )
    audit = result["audit"]
    print(
        f"audit: {audit['mismatched_calls']} mismatched calls, "
        f"{audit['targets']} distinct targets, attempted {result['attempted']}, "
        f"failed {result['failed']}"
    )
    for error in result["errors"]:
        print(f"error: {error}")
    os.makedirs(bench.out_dir, exist_ok=True)
    with open(bench.result_path, "w") as handle:
        json.dump(result, handle, indent=2, default=str)
    if bench.trace:
        bench.tracer.write(bench.spans_path + "-client.jsonl")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": measured[name][0], "unit": measured[name][1]}
            for name in names
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = bench.run()
        line = report(bench, result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
