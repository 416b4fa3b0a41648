"""Server launcher: boots the real serving stack in its own process.

Started by ``perfbench/run.py``; not meant to be run by hand.  It
builds the snapshot, then sets the stack up with public calls only each
time it reads ``setup <json>`` on stdin, tearing down the previous one;
the last one set up is the one serving:

* ``wave``: ``AuricEngine.fit`` → ``warm_votes`` →
  ``ShardSet`` + ``serve_in_thread`` → first healthy ``/healthz``;
* ``bulk``: artifact JSON parse → ``engine_from_dict`` (opens the
  mmap store) → ``warm_votes`` → ``ShardSet`` + ``serve_in_thread`` →
  first healthy ``/healthz``.

Each set-up is timed from its first call to the healthy answer; with
``--trace 1`` every call is also a span.  The launcher speaks JSON
lines on stdout (``snapshot``, ``setup``, ``stats``, ``bye``) and reads
plain commands on stdin (``setup <json>``, ``stats``, ``quit``).
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import promtext  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def emit(event: str, **fields) -> None:
    fields["event"] = event
    sys.stdout.write(json.dumps(fields) + "\n")
    sys.stdout.flush()


def healthy(port: int) -> bool:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        body = json.loads(response.read())
        return response.status == 200 and body.get("status") == "ok"
    finally:
        connection.close()


class Launcher:
    def __init__(self, workload: str, tracer: Tracer):
        from repro.obs import metrics as obs_metrics

        obs_metrics.enable()
        self.workload = workload
        self.tracer = tracer
        self.dataset = workloads.load_snapshot()
        catalog = self.dataset.store.catalog
        self.parameters = workloads.served_parameters(catalog)
        self.shard_set = None
        self.handle = None

    # -- one set-up ----------------------------------------------------------

    def _fit(self, root, phases):
        from repro.core import AuricEngine

        with self.tracer.span("core.fit", root) as span:
            engine = AuricEngine(self.dataset.network, self.dataset.store).fit(
                self.parameters
            )
        phases["core.fit_s"] = span.duration
        return engine

    def _load(self, root, phases, artifact: str):
        from repro.serve.artifacts import engine_from_dict

        with self.tracer.span("serve.artifact.parse", root) as span:
            with open(artifact) as handle:
                payload = json.load(handle)
        phases["serve.artifact.parse_s"] = span.duration
        with self.tracer.span("serve.artifact.engine_from_dict", root) as span:
            engine = engine_from_dict(
                payload,
                self.dataset.network,
                self.dataset.store,
                base_dir=os.path.dirname(os.path.abspath(artifact)),
            )
        phases["serve.artifact.engine_from_dict_s"] = span.duration
        return engine

    def setup(self, artifact) -> dict:
        from repro.config.rulebook import RuleBook
        from repro.serve.front import FrontConfig, ShardSet, serve_in_thread

        phases = {}
        # The registry is read outside the timed window: its text
        # exposition is not free.
        before = promtext.registry_samples() if self.tracer.enabled else None
        started = time.perf_counter()
        with self.tracer.span("setup", workload=self.workload) as root:
            if artifact is None:
                engine = self._fit(root, phases)
            else:
                engine = self._load(root, phases, artifact)
            with self.tracer.span("core.warm", root) as span:
                engine.warm_votes()
            phases["core.warm_s"] = span.duration
            with self.tracer.span("front.bind", root) as span:
                self.shard_set = ShardSet(
                    engine,
                    RuleBook(self.dataset.store.catalog),
                    shards=workloads.SHARDS,
                    warm=False,
                )
                self.handle = serve_in_thread(
                    self.shard_set,
                    FrontConfig(shards=workloads.SHARDS, parameters=self.parameters),
                )
                if not healthy(self.handle.port):
                    raise RuntimeError("server answered /healthz unhealthy")
            phases["front.bind_s"] = span.duration
        phases["setup_s"] = time.perf_counter() - started
        if not self.tracer.enabled:
            return {"setup_s": phases["setup_s"]}
        after = promtext.registry_samples()
        if artifact is None:
            for name, seconds in promtext.fit_phases(before, after).items():
                phases[f"core.fit.{name}_s"] = seconds
        else:
            # engine_from_dict opens the mmap store; split that out.
            opened = promtext.delta(
                before, after, "repro_store_open_seconds_total"
            )
            phases["store.open_s"] = opened
            phases["serve.artifact.rebuild_s"] = (
                phases.pop("serve.artifact.engine_from_dict_s") - opened
            )
        return phases

    def teardown(self) -> None:
        if self.handle is not None:
            self.handle.stop()
            self.handle = None
        if self.shard_set is not None:
            self.shard_set.stop()
            self.shard_set = None

    # -- control channel -----------------------------------------------------

    def stats(self) -> dict:
        services = self.shard_set.services
        return {
            "cache_hits": sum(s.metrics.cache_hits for s in services),
            "cache_misses": sum(s.metrics.cache_misses for s in services),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    tracer = Tracer(bool(args.trace), "server")
    launcher = Launcher(args.workload, tracer)
    emit("snapshot", carriers=len(list(launcher.dataset.store.carriers())))
    try:
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "setup":
                launcher.teardown()
                phases = launcher.setup(json.loads(argument).get("artifact"))
                emit(
                    "setup",
                    port=launcher.handle.port,
                    parameters=len(launcher.parameters),
                    phases=phases,
                )
            elif command == "stats":
                emit("stats", **launcher.stats())
            elif command == "quit":
                break
    finally:
        launcher.teardown()
        if args.trace and args.spans:
            tracer.write(args.spans)
    emit("bye")
    return 0


if __name__ == "__main__":
    sys.exit(main())
