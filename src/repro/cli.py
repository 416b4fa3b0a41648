"""Command-line interface.

Usage::

    python -m repro list
    python -m repro generate --workload four-markets --scale 0.02 --seed 7
    python -m repro experiment fig4 --jobs 4
    python -m repro experiment table4 -o table4.txt --format json
    python -m repro serve-batch snapshot.json requests.json \
        --parameters pMax,qHyst --save-artifact engine.json -j 2

``experiment`` accepts every id in :data:`repro.experiments.EXPERIMENTS`;
results render in the paper's table/series layout.  ``serve-batch``
loads a snapshot (``repro.dataio`` format), fits or loads a persistent
engine artifact, and answers a batch of new-carrier requests through
:class:`repro.serve.RecommendationService`, printing each
recommendation and the service metrics.

The work-producing subcommands share one option vocabulary:

* ``--jobs/-j N`` fans engine fitting and LOO evaluation across N
  worker processes (:mod:`repro.parallel`; ``0`` = all cores).  Results
  are identical to ``-j 1`` by construction.  ``generate`` accepts the
  flag for interface consistency, but generation itself is
  single-process.
* ``--seed`` propagates into workload construction (``generate``,
  ``experiment``) and engine fitting (``serve-batch``) so runs are
  reproducible end-to-end from the command line.
* ``--format table`` (default) renders the human tables; ``--format
  json`` emits one machine-readable JSON document instead.
* ``-o/--output`` additionally writes whatever was printed to a file.
* ``--trace PATH`` exports every tracing span the run produced (master
  process *and* pool workers, re-parented into one trace) as JSON
  lines; ``--log-level``/``-v`` turn on key=value structured logging.

``serve`` boots the sharded asyncio HTTP front end
(:mod:`repro.serve.front`) over a workload or snapshot — consistent-hash
routing, micro-batch coalescing, admission control, zero-downtime
``/admin/swap`` — and either serves until interrupted or, with
``--storm N``, fires an audited self-test storm (optionally hot-swapping
mid-run via ``--swap-at``) and exits 0 only when every answer was
correct.  With ``--tracing`` the server answers W3C ``traceparent``,
keeps a span ring behind ``/debug/trace/<id>``, and the storm self-test
additionally audits one request's span tree end to end; the black-box
flight recorder (``/debug/flight``, dump on SLO breach / shed burst /
exit) is on unless ``--no-flight``.  ``trace <trace_id>`` renders a
trace's span tree from a ``--trace`` JSONL export (``--input``) or a
running front end (``--url``).

``explain`` answers one leave-one-out recommendation with full
provenance — the chi-square-selected attributes (with achieved
p-values), the vote distribution and the serving disposition behind
every value.  ``metrics`` runs a small serving exercise against the
unified metrics registry and prints the registry in Prometheus text
(or JSON) exposition.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import List, Optional

from repro.datagen import four_markets_workload, full_network_workload, tiny_workload
from repro.experiments import EXPERIMENTS, run_experiment
from repro.rng import DEFAULT_SEED

_WORKLOADS = {
    "tiny": lambda scale, seed: tiny_workload(seed=seed),
    "four-markets": lambda scale, seed: four_markets_workload(scale=scale, seed=seed),
    "full-network": lambda scale, seed: full_network_workload(scale=scale, seed=seed),
}


def _build_workload(name: str, scale: Optional[float], seed: Optional[int]):
    return _WORKLOADS[name](scale, seed if seed is not None else DEFAULT_SEED)


def _common_options() -> argparse.ArgumentParser:
    """The option vocabulary every work-producing subcommand shares."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes for fitting/evaluation (0 = all cores, "
        "default 1; results are identical at any value)",
    )
    common.add_argument(
        "--seed", type=int, default=None,
        help="random seed (default: the library seed)",
    )
    common.add_argument(
        "--store", choices=("memory", "mmap"), default=None,
        help="where saved artifacts keep the encoded snapshot (default "
        "memory: nowhere, a load encodes the live one; mmap: a store file "
        "next to the artifact, opened zero-copy at load — see "
        "docs/performance.md)",
    )
    common.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default: table)",
    )
    common.add_argument(
        "-o", "--output", default=None,
        help="also write the printed output to this file",
    )
    common.add_argument(
        "--trace", default=None, metavar="PATH",
        help="export tracing spans (master + pool workers) to this "
        "JSONL file",
    )
    common.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append engine-lifecycle journal records (fit, refresh, "
        "hot swap, rollback, ...) to this JSONL file; read it back "
        "with `repro timeline`",
    )
    common.add_argument(
        "--log-level", default=None,
        choices=("debug", "info", "warning", "error", "critical"),
        help="enable key=value structured logging at this level",
    )
    common.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="shortcut for --log-level info (-vv: debug)",
    )
    return common


def _workload_options() -> argparse.ArgumentParser:
    workload = argparse.ArgumentParser(add_help=False)
    workload.add_argument("--scale", type=float, default=None)
    return workload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Auric (SIGCOMM 2021) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_options()
    workload = _workload_options()

    sub.add_parser("list", help="list available experiments")

    generate = sub.add_parser(
        "generate",
        parents=[common, workload],
        help="generate a synthetic workload",
    )
    generate.add_argument(
        "--workload",
        choices=sorted(_WORKLOADS),
        default="four-markets",
    )

    experiment = sub.add_parser(
        "experiment",
        parents=[common, workload],
        help="run one paper experiment",
    )
    experiment.add_argument("id", choices=sorted(EXPERIMENTS))
    experiment.add_argument(
        "--workload",
        choices=sorted(_WORKLOADS),
        default=None,
        help="override the experiment's default workload",
    )

    serve = sub.add_parser(
        "serve-batch",
        parents=[common],
        help="serve a batch of new-carrier requests from a snapshot",
    )
    serve.add_argument("snapshot", help="snapshot JSON (repro.dataio format)")
    serve.add_argument("requests", help="requests JSON (list or {'requests': [...]})")
    serve.add_argument(
        "--parameters", default=None,
        help="comma-separated parameters to serve "
        "(default: every singular range parameter)",
    )
    serve.add_argument(
        "--artifact", default=None,
        help="load this fitted engine artifact instead of fitting",
    )
    serve.add_argument(
        "--save-artifact", default=None,
        help="persist the fitted engine artifact here",
    )
    serve.add_argument(
        "--no-verify-artifact", action="store_true",
        help="serve an artifact even if it was fitted on another snapshot "
        "(its models are rebuilt over this snapshot, or its mmap store)",
    )
    serve.add_argument("--cache-size", type=int, default=None)

    front = sub.add_parser(
        "serve",
        parents=[common, workload],
        help="run the sharded HTTP serving front end (optionally fire a "
        "self-test storm and exit)",
    )
    front.add_argument(
        "--workload",
        choices=sorted(_WORKLOADS),
        default="tiny",
        help="workload to fit and serve (default: tiny)",
    )
    front.add_argument(
        "--snapshot", default=None,
        help="snapshot JSON (repro.dataio format) to serve instead of a "
        "generated workload",
    )
    front.add_argument(
        "--parameters", default="pMax,inactivityTimer",
        help="comma-separated singular parameters to serve",
    )
    front.add_argument("--host", default="127.0.0.1")
    front.add_argument(
        "--port", type=int, default=0,
        help="listen port (default 0 = ephemeral; the bound port is printed)",
    )
    front.add_argument(
        "--shards", type=int, default=2,
        help="engine shards behind the consistent-hash ring (default 2)",
    )
    front.add_argument(
        "--max-inflight", type=int, default=512,
        help="global admission ceiling before 503 shedding (default 512)",
    )
    front.add_argument(
        "--max-batch", type=int, default=32,
        help="cap on the requests coalesced into one shard batch while "
        "the shard's previous batch is served (default 32)",
    )
    front.add_argument(
        "--max-queue", type=int, default=256,
        help="per-shard batch queue bound (default 256)",
    )
    front.add_argument("--cache-size", type=int, default=None)
    front.add_argument(
        "--storm", type=int, default=None, metavar="N",
        help="self-test mode: fire N audited requests at the booted "
        "server, print the report and exit (0 iff error rate is 0)",
    )
    front.add_argument(
        "--connections", type=int, default=8,
        help="concurrent storm connections (default 8)",
    )
    front.add_argument(
        "--swap-at", type=float, default=None, metavar="FRACTION",
        help="fire one hot swap after this fraction of the storm "
        "(e.g. 0.5; storm mode only)",
    )
    front.add_argument(
        "--tracing", action="store_true",
        help="enable in-process tracing (the span ring behind "
        "/debug/trace/<id>); storm mode additionally verifies one "
        "request's span tree end to end",
    )
    front.add_argument(
        "--flight-dir", default=None, metavar="DIR",
        help="flight-recorder dump directory (default: flight-dumps)",
    )
    front.add_argument(
        "--no-flight", action="store_true",
        help="disable the black-box flight recorder",
    )

    trace = sub.add_parser(
        "trace",
        parents=[common],
        help="render one trace's span tree from a span JSONL file or a "
        "running front end",
    )
    trace.add_argument("trace_id", help="trace id (16 or 32 hex chars)")
    trace.add_argument(
        "--input", default=None, metavar="PATH",
        help="span JSONL file (a --trace export or a flight dump)",
    )
    trace.add_argument(
        "--url", default=None, metavar="URL",
        help="base URL of a running front end "
        "(e.g. http://127.0.0.1:8080); queries /debug/trace/<id>",
    )

    timeline = sub.add_parser(
        "timeline",
        parents=[common],
        help="reconstruct the generation lineage (fits, refreshes, hot "
        "swaps, rollbacks) from an engine-lifecycle journal",
    )
    timeline.add_argument(
        "--check", action="store_true",
        help="exit 1 if any transition references a generation the "
        "journal never recorded (missing parent links)",
    )

    explain = sub.add_parser(
        "explain",
        parents=[common, workload],
        help="explain one leave-one-out recommendation (provenance)",
    )
    explain.add_argument(
        "--workload",
        choices=sorted(_WORKLOADS),
        default="tiny",
        help="workload to fit and explain against (default: tiny)",
    )
    explain.add_argument(
        "--parameters", default="pMax,inactivityTimer",
        help="comma-separated parameters to explain "
        "(default: pMax,inactivityTimer)",
    )
    explain.add_argument(
        "--carrier", default=None,
        help="existing carrier to explain (default: the first carrier "
        "in the snapshot); leave-one-out excludes its own values",
    )

    metrics = sub.add_parser(
        "metrics",
        parents=[common, workload],
        help="exercise the serving path and dump the metrics registry",
    )
    metrics.add_argument(
        "--workload",
        choices=sorted(_WORKLOADS),
        default="tiny",
        help="workload for the serving exercise (default: tiny)",
    )
    metrics.add_argument(
        "--parameters", default="pMax,inactivityTimer",
        help="comma-separated parameters to serve",
    )
    metrics.add_argument(
        "--requests", type=int, default=20,
        help="leave-one-out requests to serve (default: 20)",
    )

    health = sub.add_parser(
        "health",
        parents=[common, workload],
        help="serve an exercise stream and report drift / SLO / profile "
        "health (exit 0 healthy, 1 degraded, 2 failing)",
    )
    _health_options(health)

    dashboard = sub.add_parser(
        "dashboard",
        parents=[common, workload],
        help="write a static-HTML health snapshot (metrics, drift, "
        "SLOs, top profile frames)",
    )
    _health_options(dashboard)
    return parser


def _health_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by ``health`` and ``dashboard``."""
    parser.add_argument(
        "--workload",
        choices=sorted(_WORKLOADS),
        default="tiny",
        help="workload to fit and exercise (default: tiny)",
    )
    parser.add_argument(
        "--snapshot", default=None,
        help="snapshot JSON (repro.dataio format) to fit/serve instead "
        "of a generated workload",
    )
    parser.add_argument(
        "--parameters", default="pMax,inactivityTimer",
        help="comma-separated parameters to serve",
    )
    parser.add_argument(
        "--artifact", default=None,
        help="load this fitted engine artifact instead of fitting",
    )
    parser.add_argument(
        "--save-artifact", default=None,
        help="persist the fitted engine artifact here",
    )
    parser.add_argument(
        "--no-verify-artifact", action="store_true",
        help="serve an artifact even if it was fitted on another snapshot "
        "(its models are rebuilt over this snapshot, or its mmap store)",
    )
    parser.add_argument(
        "--live", default=None, metavar="PATH",
        help="live snapshot JSON to score drift against (default: the "
        "served request stream itself)",
    )
    parser.add_argument(
        "--requests", type=int, default=None,
        help="leave-one-out requests to serve (default: two passes over "
        "the carrier population — stationary by construction; "
        "leave-one-out votes bypass the vote cache)",
    )
    parser.add_argument(
        "--shadow-targets", type=int, default=25,
        help="LOO targets per parameter for the shadow accuracy audit "
        "(0 disables; default: 25)",
    )
    parser.add_argument(
        "--no-profile", action="store_true",
        help="skip the sampling wall-clock profiler",
    )
    parser.add_argument(
        "--profile-output", default=None, metavar="PATH",
        help="write flamegraph-collapsed profiler stacks here",
    )
    parser.add_argument(
        "--slo-latency-p99", type=float, default=0.1,
        help="latency SLO: p99 served-request seconds (default: 0.1)",
    )


def _engine_config(args):
    """An :class:`AuricConfig` reflecting --seed / --store, or
    ``None`` when every engine option is at its default."""
    from repro.core.auric import AuricConfig

    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if getattr(args, "store", None) is not None:
        kwargs["store"] = args.store
    return AuricConfig(**kwargs) if kwargs else None


def _emit(text: str, args) -> None:
    print(text)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")


def _run_generate(args) -> int:
    dataset = _build_workload(args.workload, args.scale, args.seed)
    snapshot_path = None
    if args.output and args.format == "table":
        # Historical behaviour: -o on the table rendering exports the
        # snapshot itself (the JSON document goes to -o under --format
        # json instead).
        snapshot_path = args.output
    if snapshot_path:
        from repro.dataio import export_dataset_json

        export_dataset_json(dataset, snapshot_path)
    if args.format == "json":
        singular, pairwise = dataset.store.value_counts()
        document = {
            "command": "generate",
            "workload": args.workload,
            "scale": args.scale,
            "seed": args.seed if args.seed is not None else DEFAULT_SEED,
            "summary": dataset.summary(),
            "markets": len(dataset.network.markets),
            "singular_values": singular,
            "pairwise_values": pairwise,
        }
        _emit(json.dumps(document, indent=2), args)
        return 0
    print(dataset.summary())
    if snapshot_path:
        print(f"snapshot written to {snapshot_path}")
    return 0


def _run_experiment(args) -> int:
    kwargs = {}
    run = EXPERIMENTS[args.id]
    if args.workload is not None:
        kwargs["dataset"] = _build_workload(args.workload, args.scale, args.seed)
    if args.jobs != 1 and "jobs" in inspect.signature(run).parameters:
        kwargs["jobs"] = args.jobs
    result = run_experiment(args.id, **kwargs)
    text = result.render()
    if args.format == "json":
        document = {
            "command": "experiment",
            "experiment": args.id,
            "workload": args.workload,
            "jobs": args.jobs,
            "render": text,
        }
        _emit(json.dumps(document, indent=2), args)
        return 0
    _emit(text, args)
    return 0


_NO_VERIFY_HINT = (
    "hint: --no-verify-artifact rebuilds an artifact fitted on another "
    "snapshot over this one (over its mmap store when it has one)"
)


def _refuse(error: object, hint: Optional[str] = None) -> int:
    """Print an ``error:`` line (and a hint) for a refused input; the
    exit code is 2."""
    print(f"error: {error}", file=sys.stderr)
    if hint is not None:
        print(hint, file=sys.stderr)
    return 2


def _refuse_parameters(catalog, parameters: List[str], command: str):
    """Refuse, before any fit, a ``--parameters`` name that is unknown
    or pair-wise (every request loop answers singular parameters only);
    None when each name is a singular parameter."""
    for name in parameters:
        if name not in catalog:
            return _refuse(f"unknown parameter {name!r}")
        if catalog.spec(name).is_pairwise:
            return _refuse(
                f"{name} is pair-wise and needs a neighbor carrier; "
                f"{command} answers singular parameters only"
            )
    return None


def _run_serve_batch(args) -> int:
    # Imported lazily so `repro list` stays fast.
    from repro.config.rulebook import RuleBook
    from repro.core.auric import AuricEngine
    from repro.core.recommendation import RecommendRequest
    from repro.dataio import load_dataset_json
    from repro.serve import RecommendationService, load_engine, save_engine
    from repro.serve.service import DEFAULT_CACHE_SIZE
    from repro.serve.validation import new_carrier_requests_from_json

    from repro.exceptions import ReproError

    snapshot = load_dataset_json(args.snapshot)
    parameters = (
        [p for p in args.parameters.split(",") if p]
        if args.parameters is not None
        else None
    )
    refused = _refuse_parameters(
        snapshot.store.catalog, parameters or [], args.command
    )
    if refused is not None:
        return refused

    if args.artifact is not None:
        try:
            engine = load_engine(
                args.artifact,
                snapshot.network,
                snapshot.store,
                verify_fingerprint=not args.no_verify_artifact,
            )
        except ReproError as exc:
            return _refuse(exc, _NO_VERIFY_HINT)
    else:
        engine = AuricEngine(
            snapshot.network, snapshot.store, _engine_config(args)
        ).fit(parameters, jobs=args.jobs)
    if args.save_artifact is not None:
        try:
            save_engine(engine, args.save_artifact)
        except ReproError as exc:
            return _refuse(exc)

    service = RecommendationService(
        engine,
        rulebook=RuleBook(snapshot.store.catalog),
        cache_size=args.cache_size or DEFAULT_CACHE_SIZE,
    )
    with open(args.requests) as handle:
        requests = new_carrier_requests_from_json(json.load(handle))
    unified = [
        RecommendRequest.from_new_carrier(
            request,
            parameters=tuple(parameters) if parameters is not None else None,
        )
        for request in requests
    ]
    results = service.handle_batch(unified)

    if args.format == "json":
        document = {
            "command": "serve-batch",
            "jobs": args.jobs,
            "results": [
                {
                    "target": result.recommendation.target,
                    "values": {
                        name: rec.value
                        for name, rec in sorted(
                            result.recommendation.recommendations.items()
                        )
                    },
                    "scopes": result.scope_counts(),
                    "duration_s": result.duration_s,
                }
                for result in results
            ],
            "metrics": service.metrics.as_dict(),
        }
        _emit(json.dumps(document, indent=2), args)
        return 0

    lines: List[str] = []
    for result in results:
        lines.append(str(result.recommendation))
    lines.append(f"service metrics: {service.metrics.summary()}")
    _emit("\n".join(lines), args)
    return 0


def _run_serve(args) -> int:
    """Boot the sharded HTTP front end; optionally storm-test it."""
    import time

    from repro.config.rulebook import RuleBook
    from repro.core.auric import AuricEngine
    from repro.core.recommendation import RecommendRequest
    from repro.dataio import load_dataset_json
    from repro.dataio.keys import carrier_key_to_str
    from repro.obs import flight, tracing
    from repro.obs import metrics as obs_metrics
    from repro.serve import RecommendationService
    from repro.serve.front import (
        FrontConfig,
        ShardSet,
        StormProfile,
        run_storm,
        serve_in_thread,
    )
    from repro.serve.service import DEFAULT_CACHE_SIZE

    if args.snapshot is not None:
        dataset = load_dataset_json(args.snapshot)
    else:
        dataset = _build_workload(args.workload, args.scale, args.seed)
    parameters = [p for p in args.parameters.split(",") if p]
    refused = _refuse_parameters(dataset.store.catalog, parameters, args.command)
    if refused is not None:
        return refused

    obs_metrics.enable()
    if args.tracing and not tracing.active():
        # No exporters here: the front end attaches its span ring (the
        # /debug/trace store) at start; --trace adds a JSONL file.
        tracing.configure([])
    recorder = None
    if not args.no_flight:
        recorder = flight.configure(
            dump_dir=args.flight_dir or "flight-dumps"
        )
        recorder.arm_exit_dump()
    engine = AuricEngine(
        dataset.network, dataset.store, _engine_config(args)
    ).fit(parameters, jobs=args.jobs)
    shard_set = ShardSet(
        engine,
        RuleBook(dataset.store.catalog),
        shards=args.shards,
        cache_size=args.cache_size or DEFAULT_CACHE_SIZE,
        max_queue=args.max_queue,
    )
    config = FrontConfig(
        host=args.host,
        port=args.port,
        shards=args.shards,
        max_inflight=args.max_inflight,
        max_batch=args.max_batch,
        parameters=tuple(parameters),
    )
    handle = serve_in_thread(shard_set, config)
    try:
        print(
            f"serving on {args.host}:{handle.port} "
            f"({args.shards} shards, {len(parameters)} parameters)",
            flush=True,
        )
        if args.storm is None:
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                return 0

        # Storm self-test: audit every answer against the same engine
        # served directly, so a mid-storm hot swap that surfaced a wrong
        # or partial value would fail the run.
        carriers = sorted(dataset.store.carriers())[: max(args.connections * 4, 16)]
        payloads = [{"carrier": carrier_key_to_str(c)} for c in carriers]
        oracle = RecommendationService(engine, RuleBook(dataset.store.catalog))
        expected = []
        for carrier_id in carriers:
            result = oracle.handle(
                RecommendRequest(
                    carrier_id=carrier_id, parameters=tuple(parameters)
                )
            )
            expected.append(
                {
                    name: rec.value
                    for name, rec in result.recommendation.recommendations.items()
                }
            )
        profile = StormProfile(
            requests=args.storm,
            connections=args.connections,
            swap_at=args.swap_at,
            swap_jobs=args.jobs,
        )
        report = run_storm(
            args.host, handle.port, payloads, profile, expected
        )
        document = {"command": "serve", "storm": report.to_dict()}
        trace_ok = True
        if tracing.active() and recorder is not None:
            # End-to-end trace audit: pull one served request's trace id
            # from the flight ring and assert its span tree is complete.
            summary = _verify_storm_trace(args.host, handle.port)
            document["trace"] = summary
            trace_ok = bool(summary.get("complete"))
        _emit(json.dumps(document, indent=2), args)
        ok = report.error_rate == 0.0 and report.ok == report.sent
        return 0 if ok and trace_ok else 1
    finally:
        handle.stop()
        shard_set.stop()
        if recorder is not None:
            recorder.disarm_exit_dump()
            flight.disable()


#: The span levels one served request must traverse, front door to
#: engine; ``service.handle`` is the engine-side span.
_TRACE_LEVELS = (
    "front.request",
    "front.admission",
    "front.coalesce",
    "shard.handle",
    "service.handle",
)


def _verify_storm_trace(host: str, port: int) -> dict:
    """Reconstruct one storm request's trace via the debug endpoints.

    Returns a summary dict: the trace id, span/orphan counts, which
    :data:`_TRACE_LEVELS` showed up, and ``complete`` — true iff every
    level is present and no span is orphaned.
    """
    import http.client

    if host in ("0.0.0.0", "::"):
        host = "127.0.0.1"
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", "/debug/flight")
        response = conn.getresponse()
        body = json.loads(response.read())
        if response.status != 200:
            return {"error": "flight_unavailable", "complete": False}
        traced = [
            digest for digest in body.get("digests", [])
            if digest.get("status") == 200 and digest.get("trace_id")
        ]
        if not traced:
            return {"error": "no_traced_requests", "complete": False}
        trace_id = traced[-1]["trace_id"]
        conn.request("GET", f"/debug/trace/{trace_id}")
        response = conn.getresponse()
        tree = json.loads(response.read())
        if response.status != 200:
            return {
                "error": "trace_not_found",
                "trace_id": trace_id,
                "complete": False,
            }
        names = set()

        def walk(nodes):
            for node in nodes:
                names.add(node["name"])
                walk(node["children"])

        walk(tree["roots"])
        walk(tree["orphans"])
        levels = {name: name in names for name in _TRACE_LEVELS}
        return {
            "trace_id": trace_id,
            "span_count": tree["span_count"],
            "orphan_count": tree["orphan_count"],
            "levels": levels,
            "complete": tree["orphan_count"] == 0 and all(levels.values()),
        }
    finally:
        conn.close()


def _run_trace(args) -> int:
    """Render one trace's span tree (the ``repro trace <id>`` command)."""
    from repro.obs import tracing
    from repro.obs.records import read_records

    trace_id = args.trace_id.strip().lower()
    if args.input is None and args.url is None:
        print("error: provide --input PATH or --url URL", file=sys.stderr)
        return 2

    spans: List[dict] = []
    skipped = 0
    if args.input is not None:
        try:
            scan = read_records(args.input)
        except OSError as exc:
            return _refuse(f"cannot read spans: {exc}")
        for record in scan.records:
            if "span_id" in record and "name" in record:
                spans.append(record)
            # A flight dump's meta record nests the spans in flight at
            # dump time; its digest records hold none.
            spans.extend(record.get("active_spans", ()))
        skipped = scan.skipped
    else:
        import http.client
        from urllib.parse import urlsplit

        parts = urlsplit(
            args.url if "//" in args.url else f"http://{args.url}"
        )
        conn = http.client.HTTPConnection(
            parts.hostname, parts.port or 80, timeout=30
        )
        try:
            conn.request("GET", f"/debug/trace/{trace_id}")
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        if response.status != 200:
            print(
                f"error: {body.get('error', 'trace_not_found')} "
                f"(trace {trace_id})",
                file=sys.stderr,
            )
            return 1

        def flatten(nodes):
            for node in nodes:
                children = node.pop("children", [])
                spans.append(node)
                flatten(children)

        flatten(body.get("roots", []))
        flatten(body.get("orphans", []))

    tree = tracing.assemble_trace(spans, trace_id)
    if not tree.spans:
        print(f"error: no spans for trace {trace_id}", file=sys.stderr)
        return 1
    if args.format == "json":
        payload = tree.to_dict()
        payload["skipped_lines"] = skipped
        _emit(json.dumps(payload, indent=2), args)
    else:
        text = tree.render()
        if skipped:
            text += f"\n({skipped} corrupt line(s) skipped)"
        _emit(text, args)
    return 0


def _run_timeline(args) -> int:
    """Render the generation DAG from a lifecycle journal
    (the ``repro timeline`` command)."""
    from repro.obs import journal as obs_journal

    if args.journal is None:
        print("error: provide --journal PATH", file=sys.stderr)
        return 2
    try:
        scan = obs_journal.read_journal(args.journal)
    except OSError as exc:
        print(f"error: cannot read journal: {exc}", file=sys.stderr)
        return 2
    if not scan.records:
        print(f"error: no journal records in {args.journal}", file=sys.stderr)
        return 1
    timeline = obs_journal.assemble_timeline(scan.records)
    if args.format == "json":
        payload = timeline.to_dict()
        payload["skipped_lines"] = scan.skipped
        _emit(json.dumps(payload, indent=2), args)
    else:
        text = timeline.render()
        if scan.skipped:
            text += f"\n({scan.skipped} corrupt line(s) skipped)"
        _emit(text, args)
    if args.check and not timeline.complete:
        print(
            f"error: {len(timeline.missing_parents)} transition(s) "
            "reference generations the journal never recorded",
            file=sys.stderr,
        )
        return 1
    return 0


def _build_service(args, parameters: List[str], carrier_id=None):
    """Fit a service over the chosen workload (explain / metrics).

    Returns ``(dataset, service)``, or the exit code 2 after an
    ``error:`` line, before the fit, for an unknown or pair-wise
    parameter or an unknown ``carrier_id``.
    """
    from repro.config.rulebook import RuleBook
    from repro.core.auric import AuricEngine
    from repro.serve import RecommendationService

    dataset = _build_workload(args.workload, args.scale, args.seed)
    refused = _refuse_parameters(dataset.store.catalog, parameters, args.command)
    if refused is not None:
        return refused
    if carrier_id is not None and not dataset.network.has_carrier(carrier_id):
        return _refuse(f"unknown carrier {args.carrier!r}")
    engine = AuricEngine(dataset.network, dataset.store, _engine_config(args)).fit(
        parameters, jobs=args.jobs
    )
    service = RecommendationService(
        engine, rulebook=RuleBook(dataset.store.catalog)
    )
    return dataset, service


def _run_explain(args) -> int:
    from repro.core.recommendation import RecommendRequest
    from repro.dataio.keys import carrier_key_from_str

    parameters = [p for p in args.parameters.split(",") if p]
    carrier_id = None
    if args.carrier is not None:
        try:
            carrier_id = carrier_key_from_str(args.carrier)
        except ValueError as exc:
            return _refuse(exc)
    built = _build_service(args, parameters, carrier_id)
    if isinstance(built, int):
        return built
    dataset, service = built
    if carrier_id is None:
        carrier_id = sorted(dataset.store.carriers())[0]
    request = RecommendRequest(
        carrier_id=carrier_id,
        parameters=tuple(parameters),
        leave_one_out=True,
        explain=True,
    )
    result = service.handle(request)
    explanation = result.explain

    if args.format == "json":
        document = {
            "command": "explain",
            "workload": args.workload,
            "carrier": str(carrier_id),
            "explanation": explanation.to_dict() if explanation else None,
        }
        _emit(json.dumps(document, indent=2), args)
        return 0
    _emit(str(explanation), args)
    return 0


def _run_metrics(args) -> int:
    from repro.core.recommendation import RecommendRequest
    from repro.obs import metrics as obs_metrics
    from repro.obs.metrics import ServiceMetrics

    # A fresh registry per run: the exposition covers exactly this
    # exercise, even when main() is driven repeatedly in-process.
    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.get_registry()
    obs_metrics.set_registry(registry)
    try:
        parameters = [p for p in args.parameters.split(",") if p]
        built = _build_service(args, parameters)
        if isinstance(built, int):
            return built
        dataset, service = built
        # Route the service's own instruments into the same registry so
        # one exposition covers the whole run.
        service.metrics = ServiceMetrics(registry=registry)
        carriers = sorted(dataset.store.carriers())
        for index in range(max(args.requests, 0)):
            carrier_id = carriers[index % len(carriers)]
            service.handle(
                RecommendRequest(
                    carrier_id=carrier_id,
                    parameters=tuple(parameters),
                    leave_one_out=True,
                )
            )
    finally:
        obs_metrics.set_registry(previous)

    if args.format == "json":
        document = {"command": "metrics", "registry": registry.to_dict()}
        _emit(json.dumps(document, indent=2), args)
        return 0
    _emit(registry.to_prometheus_text().rstrip("\n"), args)
    return 0


def _collect_health(args):
    """The shared engine behind ``health`` and ``dashboard``.

    Fits (or loads) an engine, serves a leave-one-out exercise stream
    through a drift-tracking service under the sampling profiler, runs
    the shadow accuracy audit, scores drift (against ``--live`` or the
    served stream) and evaluates the stock SLOs.  Returns
    ``(HealthReport, MetricsRegistry)``, or the exit code 2 after an
    ``error:`` line when an input is refused: an unknown or pair-wise
    parameter, an artifact that does not load, or an engine that does
    not save.
    """
    from repro.config.rulebook import RuleBook
    from repro.core.auric import AuricEngine
    from repro.core.recommendation import RecommendRequest
    from repro.dataio import load_dataset_json
    from repro.eval.runner import EvaluationRunner
    from repro.obs import metrics as obs_metrics
    from repro.obs.health import HealthReport, attribute_distributions
    from repro.obs.profiler import SamplingProfiler
    from repro.obs.slo import SLOEngine, default_service_slos
    from repro.serve import RecommendationService, load_engine, save_engine
    from repro.obs.metrics import ServiceMetrics
    from repro.exceptions import ReproError

    if args.snapshot is not None:
        dataset = load_dataset_json(args.snapshot)
    else:
        dataset = _build_workload(args.workload, args.scale, args.seed)
    parameters = [p for p in args.parameters.split(",") if p]
    refused = _refuse_parameters(dataset.store.catalog, parameters, args.command)
    if refused is not None:
        return refused

    # A fresh registry, installed globally for the duration so the
    # drift/shadow-audit gauges and the service instruments land in one
    # exposition the SLO rules can read.
    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.get_registry()
    obs_metrics.set_registry(registry)
    try:
        if args.artifact is not None:
            try:
                engine = load_engine(
                    args.artifact,
                    dataset.network,
                    dataset.store,
                    verify_fingerprint=not args.no_verify_artifact,
                )
            except ReproError as exc:
                return _refuse(exc, _NO_VERIFY_HINT)
        else:
            engine = AuricEngine(
                dataset.network, dataset.store, _engine_config(args)
            ).fit(parameters, jobs=args.jobs)
        if args.save_artifact is not None:
            try:
                save_engine(engine, args.save_artifact)
            except ReproError as exc:
                return _refuse(exc)

        service = RecommendationService(
            engine, rulebook=RuleBook(dataset.store.catalog)
        )
        service.metrics = ServiceMetrics(registry=registry)
        service.enable_drift_tracking(sample_every=1)

        notes: List[str] = []
        profiler = None
        if not args.no_profile:
            profiler = SamplingProfiler(interval=0.002).start()
        try:
            carriers = sorted(dataset.store.carriers())
            # Default: two passes over the population — the stream then
            # matches the fitted distributions exactly (stationary by
            # construction).  Leave-one-out votes bypass the vote cache,
            # so the cache-hit-ratio rule reads no_data here.
            requests = (
                args.requests
                if args.requests is not None
                else 2 * len(carriers)
            )
            for index in range(max(requests, 0)):
                service.handle(
                    RecommendRequest(
                        carrier_id=carriers[index % len(carriers)],
                        parameters=tuple(parameters),
                        leave_one_out=True,
                    )
                )
            if args.shadow_targets > 0:
                runner = EvaluationRunner(
                    dataset,
                    seed=args.seed if args.seed is not None else DEFAULT_SEED,
                )
                runner.shadow_audit(
                    engine,
                    parameters,
                    max_targets_per_parameter=args.shadow_targets,
                )
        finally:
            if profiler is not None:
                profiler.stop()

        if args.live is not None:
            live = load_dataset_json(args.live)
            drift = service.drift_report(
                attribute_distributions(live.network)
            )
            notes.append(f"drift scored against live snapshot {args.live}")
        else:
            drift = service.drift_report()
            notes.append(
                f"drift scored over the served stream "
                f"({service.drift_window.sampled} sampled requests)"
            )

        slo = SLOEngine(
            default_service_slos(latency_p99=args.slo_latency_p99)
        ).evaluate(registry)

        profile = ()
        if profiler is not None:
            profile = profiler.top(10)
            if args.profile_output is not None:
                stacks = profiler.write_collapsed(args.profile_output)
                notes.append(
                    f"{stacks} collapsed stacks written to "
                    f"{args.profile_output}"
                )
        report = HealthReport(
            drift=drift, slo=slo, profile=profile, notes=notes
        )
        return report, registry
    finally:
        obs_metrics.set_registry(previous)


def _run_health(args) -> int:
    collected = _collect_health(args)
    if isinstance(collected, int):
        return collected
    report, registry = collected
    if args.format == "json":
        document = {
            "command": "health",
            "report": report.to_dict(),
            "registry": registry.to_dict(),
        }
        _emit(json.dumps(document, indent=2), args)
    else:
        _emit(report.to_text(), args)
    return report.exit_code


def _run_dashboard(args) -> int:
    from repro.obs.dashboard import render_dashboard

    from repro.obs import journal as obs_journal

    collected = _collect_health(args)
    if isinstance(collected, int):
        return collected
    report, registry = collected
    active_journal = obs_journal.get_journal()
    journal_records = (
        active_journal.tail() if active_journal is not None else None
    )
    html = render_dashboard(
        report, registry=registry, journal_records=journal_records
    )
    path = args.output or "dashboard.html"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(html)
    print(f"dashboard written to {path} (status: {report.status})")
    return 0


def _configure_observability(args):
    """Wire --trace / --log-level / -v; returns a cleanup callable."""
    from repro.obs import logs, tracing
    from repro.obs.records import RecordSink

    level = getattr(args, "log_level", None)
    verbose = getattr(args, "verbose", 0)
    if level is None and verbose:
        level = "debug" if verbose > 1 else "info"
    if level is not None:
        logs.configure_logging(level)

    journal_path = getattr(args, "journal", None)
    journal_handle = None
    if journal_path is not None and args.command != "timeline":
        # `timeline` *reads* the journal; don't open it for append (the
        # torn-tail recovery would truncate a file we only inspect).
        from repro.obs import journal as obs_journal

        journal_handle = obs_journal.configure(journal_path)

    trace_path = getattr(args, "trace", None)
    sink = None
    if trace_path is not None:
        # Each span is one unbuffered write, so a killed run keeps every
        # span it finished with no exit hook.
        sink = RecordSink(path=trace_path)
        tracing.configure([sink])

    def cleanup() -> None:
        if sink is not None:
            tracing.disable()
            sink.close()
        if journal_handle is not None:
            from repro.obs import journal as obs_journal

            obs_journal.disable()

    return cleanup


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for experiment_id in sorted(EXPERIMENTS):
            print(experiment_id)
        return 0

    cleanup = _configure_observability(args)
    try:
        if args.command == "generate":
            return _run_generate(args)

        if args.command == "experiment":
            return _run_experiment(args)

        if args.command == "serve-batch":
            return _run_serve_batch(args)

        if args.command == "serve":
            return _run_serve(args)

        if args.command == "trace":
            return _run_trace(args)

        if args.command == "timeline":
            return _run_timeline(args)

        if args.command == "explain":
            return _run_explain(args)

        if args.command == "metrics":
            return _run_metrics(args)

        if args.command == "health":
            return _run_health(args)

        if args.command == "dashboard":
            return _run_dashboard(args)
    finally:
        cleanup()

    return 2  # unreachable with required=True


if __name__ == "__main__":
    sys.exit(main())
