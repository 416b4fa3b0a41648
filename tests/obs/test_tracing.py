"""Tests for tracing spans, record-sink exporters and cross-process
propagation."""

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.obs import tracing
from repro.obs.records import RecordSink
from repro.obs.tracing import Span
from repro.parallel.pool import run_tasks


@pytest.fixture()
def ring():
    sink = RecordSink(capacity=2048)
    tracing.configure([sink])
    yield sink
    tracing.disable()


def _traced_double(task):
    """Pool task: does one unit of traced work (module-level: picklable)."""
    with tracing.span("work.unit", task=task):
        return task * 2


class TestSpans:
    def test_disabled_spans_are_free(self):
        tracing.disable()
        assert not tracing.active()
        with tracing.span("anything") as sp:
            sp.set("ignored", 1)  # the null handle absorbs everything
        assert tracing.current_context() is None

    def test_nesting_and_parentage(self, ring):
        with tracing.span("outer") as outer:
            with tracing.span("inner", detail="x"):
                pass
        spans = {span.name: span for span in ring.records()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].trace_id == spans["outer"].trace_id
        assert spans["outer"].parent_id is None
        assert spans["inner"].attributes["detail"] == "x"
        assert spans["inner"].duration_s >= 0.0
        del outer

    def test_sibling_roots_get_distinct_traces(self, ring):
        with tracing.span("first"):
            pass
        with tracing.span("second"):
            pass
        first, second = ring.records()
        assert first.trace_id != second.trace_id

    def test_error_status_recorded(self, ring):
        with pytest.raises(ValueError):
            with tracing.span("doomed"):
                raise ValueError("boom")
        (span,) = ring.records()
        assert span.status == "error:ValueError"

    def test_span_round_trips_through_dict(self, ring):
        with tracing.span("outer", answer=42):
            pass
        (span,) = ring.records()
        rebuilt = Span.from_dict(json.loads(json.dumps(span.to_dict())))
        assert rebuilt.to_dict() == span.to_dict()


class TestJsonlExporter:
    def test_writes_one_json_object_per_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = RecordSink(path=str(path))
        tracing.configure([sink])
        try:
            with tracing.span("outer"):
                with tracing.span("inner"):
                    pass
        finally:
            tracing.disable()
            sink.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert {entry["name"] for entry in lines} == {"outer", "inner"}
        by_id = {entry["span_id"]: entry for entry in lines}
        inner = next(e for e in lines if e["name"] == "inner")
        assert by_id[inner["parent_id"]]["name"] == "outer"


class TestPoolPropagation:
    @pytest.fixture(autouse=True)
    def _force_pool(self, monkeypatch):
        # Cross-process propagation needs real workers: disable the
        # adaptive serial cutover so jobs=2 forks even on one core.
        monkeypatch.setenv("REPRO_POOL_ADAPTIVE", "0")

    def test_worker_spans_reparent_into_master_trace(self, ring):
        with tracing.span("root"):
            results = run_tasks(None, _traced_double, [1, 2, 3], jobs=2)
        assert results == [2, 4, 6]

        spans = ring.records()
        by_id = {span.span_id: span for span in spans}
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)

        root = by_name["root"][0]
        pool_run = by_name["pool.run"][0]
        assert pool_run.parent_id == root.span_id

        # Every span — master's and the workers' — lands in one trace.
        assert {span.trace_id for span in spans} == {root.trace_id}

        tasks = by_name["pool.task:_traced_double"]
        assert len(tasks) == 3
        for task_span in tasks:
            assert task_span.parent_id == pool_run.span_id

        units = by_name["work.unit"]
        assert len(units) == 3
        for unit in units:
            assert by_id[unit.parent_id].name == "pool.task:_traced_double"

        # The pool actually fanned out: some spans came from other pids.
        worker_pids = {span.pid for span in units}
        assert worker_pids, "worker spans missing"
        if pool_run.attributes.get("mode") == "pool":
            assert any(pid != os.getpid() for pid in worker_pids)

    def test_serial_path_nests_without_propagation(self, ring):
        with tracing.span("root"):
            results = run_tasks(None, _traced_double, [5], jobs=1)
        assert results == [10]
        spans = {span.name: span for span in ring.records()}
        assert spans["pool.run"].attributes["mode"] == "serial"
        assert spans["work.unit"].parent_id == spans["pool.run"].span_id
        assert spans["work.unit"].pid == os.getpid()


class TestIngest:
    def test_collect_and_ingest_rebuild_parentage(self, ring):
        with tracing.span("master") as master:
            context = tracing.current_context()
            del master
        # Simulate the worker side: collect spans under a shipped context.
        with tracing.collect() as collected:
            with tracing.span_from_context(context, "remote.unit"):
                pass
        assert len(collected) == 1
        assert not ring.records() or all(
            span.name != "remote.unit" for span in ring.records()
        ), "collected spans must not leak to the configured exporters"
        tracing.ingest([span.to_dict() for span in collected])
        remote = next(
            span for span in ring.records() if span.name == "remote.unit"
        )
        assert remote.trace_id == context[0]
        assert remote.parent_id == context[1]


class TestExitFlush:
    """--trace files survive abnormal exits with no exit hook."""

    def test_spans_survive_sigterm_without_a_hook(self, tmp_path):
        path = tmp_path / "killed.jsonl"
        script = textwrap.dedent(
            f"""
            import os, signal
            from repro.obs import tracing
            from repro.obs.records import RecordSink

            tracing.configure([RecordSink(path={str(path)!r})])
            for index in range(5):
                with tracing.span("finished", index=index):
                    pass
            with tracing.span("killed.mid.run"):
                os.kill(os.getpid(), signal.SIGTERM)
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=60
        )
        assert result.returncode == -signal.SIGTERM
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["attributes"]["index"] for line in lines] == list(range(5))


class TestThreadSpanTracking:
    """Cross-thread span stacks for the sampling profiler."""

    def test_disabled_by_default(self, ring):
        import threading

        with tracing.span("untracked"):
            assert tracing.thread_span_stack(threading.get_ident()) == ()

    def test_tracked_stack_follows_nesting(self, ring):
        import threading

        ident = threading.get_ident()
        tracing.track_thread_spans(True)
        try:
            with tracing.span("outer"):
                assert tracing.thread_span_stack(ident) == ("outer",)
                with tracing.span("inner"):
                    assert tracing.thread_span_stack(ident) == (
                        "outer", "inner",
                    )
                assert tracing.thread_span_stack(ident) == ("outer",)
            assert tracing.thread_span_stack(ident) == ()
        finally:
            tracing.track_thread_spans(False)

    def test_other_threads_are_visible(self, ring):
        import threading

        started = threading.Event()
        release = threading.Event()
        idents = []

        def worker():
            with tracing.span("worker.op"):
                idents.append(threading.get_ident())
                started.set()
                release.wait(timeout=5)

        tracing.track_thread_spans(True)
        try:
            thread = threading.Thread(target=worker)
            thread.start()
            assert started.wait(timeout=5)
            assert tracing.thread_span_stack(idents[0]) == ("worker.op",)
            release.set()
            thread.join(timeout=5)
            assert tracing.thread_span_stack(idents[0]) == ()
        finally:
            tracing.track_thread_spans(False)


class TestTraceparent:
    """W3C traceparent parsing/formatting round-trips."""

    def test_valid_header_parses(self):
        header = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
        assert tracing.parse_traceparent(header) == ("ab" * 16, "cd" * 8)

    def test_case_and_whitespace_normalized(self):
        header = "  00-" + "AB" * 16 + "-" + "CD" * 8 + "-01  "
        assert tracing.parse_traceparent(header) == ("ab" * 16, "cd" * 8)

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "nonsense",
            "00-short-cdcdcdcdcdcdcdcd-01",            # trace id too short
            "00-" + "ab" * 16 + "-" + "cd" * 8,        # missing flags
            "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01-extra",  # v00 + extra
            "00-" + "zz" * 16 + "-" + "cd" * 8 + "-01",  # non-hex trace
            "00-" + "00" * 16 + "-" + "cd" * 8 + "-01",  # all-zero trace
            "00-" + "ab" * 16 + "-" + "00" * 8 + "-01",  # all-zero parent
            "ff-" + "ab" * 16 + "-" + "cd" * 8 + "-01",  # forbidden version
            "0-" + "ab" * 16 + "-" + "cd" * 8 + "-01",   # 1-char version
        ],
    )
    def test_malformed_headers_are_absent_not_errors(self, header):
        assert tracing.parse_traceparent(header) is None

    def test_future_version_with_suffix_fields_accepted(self):
        header = "42-" + "ab" * 16 + "-" + "cd" * 8 + "-01-future-stuff"
        assert tracing.parse_traceparent(header) == ("ab" * 16, "cd" * 8)

    def test_format_round_trips(self):
        context = ("ab" * 16, "cd" * 8)
        assert tracing.parse_traceparent(
            tracing.format_traceparent(context)
        ) == context

    def test_format_pads_legacy_short_ids(self):
        header = tracing.format_traceparent(("deadbeef" * 2, "feed" * 4))
        parsed = tracing.parse_traceparent(header)
        assert parsed is not None
        assert parsed[0].endswith("deadbeef" * 2)
        assert len(parsed[0]) == 32

    def test_format_none_is_none(self):
        assert tracing.format_traceparent(None) is None

    def test_root_spans_mint_w3c_width_trace_ids(self, ring):
        with tracing.span("root"):
            pass
        (span,) = ring.records()
        assert len(span.trace_id) == 32
        assert int(span.trace_id, 16) != 0


class TestAssembleTrace:
    def test_tree_structure_and_orphans(self, ring):
        with tracing.span("root"):
            with tracing.span("child"):
                pass
        # A span claiming a parent that never arrived is an orphan...
        tracing.record_span("lost", ("x" * 32, "f" * 16), 0.0, 0.1)
        # ...unless the parent is explicitly remote.
        tracing.record_span(
            "remote-rooted", ("x" * 32, "e" * 16), 0.0, 0.1,
            remote_parent=True,
        )
        spans = ring.records()
        root_trace = spans[0].trace_id
        tree = tracing.assemble_trace(spans, root_trace)
        assert [s.name for s in tree.roots] == ["root"]
        assert [s.name for s in tree.children[tree.roots[0].span_id]] == [
            "child"
        ]
        assert tree.orphans == []

        lost_tree = tracing.assemble_trace(spans, "x" * 32)
        assert {s.name for s in lost_tree.orphans} == {"lost"}
        assert {s.name for s in lost_tree.roots} == {"remote-rooted"}

    def test_accepts_dicts_and_normalizes_short_ids(self, ring):
        with tracing.span("root"):
            pass
        dicts = [span.to_dict() for span in ring.records()]
        trace_id = dicts[0]["trace_id"]
        # Query by the zero-stripped and the padded form alike.
        for key in (trace_id, trace_id.lstrip("0"), trace_id.rjust(32, "0")):
            tree = tracing.assemble_trace(dicts, key)
            assert len(tree.spans) == 1

    def test_render_marks_orphans(self):
        spans = [
            {
                "name": "dangling", "trace_id": "t" * 32,
                "span_id": "a" * 16, "parent_id": "b" * 16,
                "start_time": 0.0, "duration_s": 0.001,
                "attributes": {}, "pid": 1, "status": "ok",
            }
        ]
        rendered = tracing.assemble_trace(spans, "t" * 32).render()
        assert "!!" in rendered and "dangling" in rendered

    def test_to_dict_counts(self, ring):
        with tracing.span("root"):
            with tracing.span("child"):
                pass
        tree = tracing.assemble_trace(ring.records(), ring.records()[0].trace_id)
        doc = tree.to_dict()
        assert doc["span_count"] == 2
        assert doc["orphan_count"] == 0
        assert doc["roots"][0]["children"][0]["name"] == "child"


class TestJsonlExporterThreadSafety:
    def test_concurrent_export_and_close(self, tmp_path):
        """Writers racing a close never raise; the file stays valid JSONL."""
        import threading

        path = str(tmp_path / "spans.jsonl")
        sink = RecordSink(path=path)
        errors = []

        def write_many():
            try:
                for i in range(200):
                    sink.append(Span(f"s{i}", "t" * 32, f"{i:016d}", None))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=write_many) for _ in range(4)]
        for t in threads:
            t.start()
        sink.close()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        sink.close()  # idempotent
        assert not errors
        with open(path) as handle:
            for line in handle:
                json.loads(line)

    def test_double_flush_via_exit_path(self, tmp_path):
        """A span appended before a double close is on disk, once."""
        path = str(tmp_path / "spans.jsonl")
        sink = RecordSink(path=path)
        sink.append(Span("one", "t" * 32, "a" * 16, None))
        sink.close()
        sink.close()
        sink.append(Span("late", "t" * 32, "b" * 16, None))
        with open(path) as handle:
            assert [json.loads(line)["name"] for line in handle] == ["one"]


class TestSpawnPoolPropagation:
    def test_spawn_workers_join_master_trace(self, ring, monkeypatch):
        """Context propagation survives a spawn-start pool — workers
        share nothing with the master but the shipped context tuple."""
        import multiprocessing

        from repro.parallel.pool import START_METHOD_ENV

        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        monkeypatch.setenv("REPRO_POOL_ADAPTIVE", "0")
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        with tracing.span("root"):
            results = run_tasks(None, _traced_double, [7, 8], jobs=2)
        assert results == [14, 16]
        spans = ring.records()
        root = next(s for s in spans if s.name == "root")
        assert {s.trace_id for s in spans} == {root.trace_id}
        tasks = [s for s in spans if s.name == "pool.task:_traced_double"]
        assert len(tasks) == 2
        # The worker-side boundary spans carry the remote-parent mark,
        # so a worker-only span set assembles without false orphans.
        assert all(s.attributes.get("remote_parent") for s in tasks)
        tree = tracing.assemble_trace(tasks, root.trace_id)
        assert tree.orphans == []
