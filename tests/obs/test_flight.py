"""Tests for the black-box flight recorder (:mod:`repro.obs.flight`)."""

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.obs import flight, slo, tracing
from repro.obs.flight import FlightRecorder, RequestDigest


def digest(trace_id="t1", status=200, **kwargs):
    defaults = dict(
        market="market:0", shard=0, generation=1, latency_ms=1.5
    )
    defaults.update(kwargs)
    return RequestDigest(trace_id=trace_id, status=status, **defaults)


@pytest.fixture()
def recorder(tmp_path):
    rec = flight.configure(capacity=8, dump_dir=str(tmp_path / "dumps"))
    yield rec
    flight.disable()


class TestRing:
    def test_record_is_bounded_by_capacity(self, recorder):
        for i in range(20):
            flight.record(digest(trace_id=f"t{i}"))
        assert len(recorder) == 8
        ids = [d.trace_id for d in recorder.digests()]
        assert ids == [f"t{i}" for i in range(12, 20)]

    def test_digests_limit_returns_newest(self, recorder):
        for i in range(5):
            recorder.record(digest(trace_id=f"t{i}"))
        assert [d.trace_id for d in recorder.digests(limit=2)] == ["t3", "t4"]

    def test_record_noop_while_disabled(self):
        flight.disable()
        flight.record(digest())  # must not raise
        assert flight.get_recorder() is None

    def test_digest_round_trips_to_dict(self):
        d = digest(status=503, shed_reason="max_inflight")
        doc = d.to_dict()
        assert doc["status"] == 503
        assert doc["shed_reason"] == "max_inflight"
        assert doc["ts"] > 0


class TestDumps:
    def test_dump_writes_meta_then_digests(self, recorder):
        recorder.record(digest(trace_id="a"))
        recorder.record(digest(trace_id="b"))
        path = recorder.dump("test")
        assert path is not None
        lines = [json.loads(line) for line in open(path)]
        assert lines[0]["record"] == "meta"
        assert lines[0]["reason"] == "test"
        assert lines[0]["digest_count"] == 2
        assert [line["trace_id"] for line in lines[1:]] == ["a", "b"]

    def test_dump_captures_active_spans(self, recorder):
        tracing.configure([])
        try:
            recorder.record(digest())
            with tracing.span("inflight.work"):
                path = recorder.dump("spans")
            meta = json.loads(open(path).readline())
            assert "inflight.work" in [
                s["name"] for s in meta["active_spans"]
            ]
        finally:
            tracing.disable()

    def test_empty_ring_does_not_dump(self, recorder):
        assert recorder.dump("test") is None

    def test_per_reason_cooldown(self, tmp_path):
        rec = FlightRecorder(
            capacity=4, dump_dir=str(tmp_path), cooldown_s=3600.0
        )
        rec.record(digest())
        assert rec.dump("same") is not None
        assert rec.dump("same") is None          # suppressed
        assert rec.dump("other") is not None     # different reason
        assert rec.dump("same", force=True) is not None

    def test_stats_tracks_dumps(self, recorder):
        recorder.record(digest())
        path = recorder.dump("test")
        stats = recorder.stats()
        assert stats["in_ring"] == 1
        assert stats["dumps_written"] == 1
        assert stats["dump_files"] == [path]


class TestExitDump:
    def test_flush_dumps_once(self, recorder):
        recorder.record(digest())
        recorder.arm_exit_dump()
        try:
            recorder.flush()
            recorder.flush()  # idempotent
        finally:
            recorder.disarm_exit_dump()
        assert recorder.stats()["dumps_written"] == 1

    def test_flush_is_noop_unless_armed(self, recorder):
        recorder.record(digest())
        recorder.flush()
        assert recorder.stats()["dumps_written"] == 0

    def test_exit_flush_chain_triggers_dump(self, tmp_path):
        """An armed recorder dumps at interpreter exit, on its own hook."""
        script = textwrap.dedent(
            f"""
            from repro.obs import flight

            recorder = flight.configure(dump_dir={str(tmp_path)!r})
            recorder.record(flight.RequestDigest("t1", None, 0, 1, 200, 1.5))
            recorder.arm_exit_dump()
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=60, check=True
        )
        (path,) = tmp_path.glob("flight-*-exit.jsonl")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["reason"] == "exit"
        assert [line["trace_id"] for line in lines[1:]] == ["t1"]

    def test_signal_flushes_then_chains_to_previous_handler(self, recorder):
        seen = []
        previous = signal.signal(
            signal.SIGTERM, lambda signum, frame: seen.append(signum)
        )
        try:
            recorder.record(digest())
            recorder.arm_exit_dump()
            signal.raise_signal(signal.SIGTERM)
            # The recorder dumped, then chained to the recording handler
            # installed above (the process stays alive).
            assert seen == [signal.SIGTERM]
            assert recorder.stats()["dumps_written"] == 1
        finally:
            recorder.disarm_exit_dump()
            signal.signal(signal.SIGTERM, previous)

    def test_disarm_restores_previous_signal_handler(self, recorder):
        marker = lambda signum, frame: None  # noqa: E731
        previous = signal.signal(signal.SIGTERM, marker)
        try:
            recorder.arm_exit_dump()
            assert signal.getsignal(signal.SIGTERM) is not marker
            recorder.disarm_exit_dump()
            assert signal.getsignal(signal.SIGTERM) is marker
        finally:
            signal.signal(signal.SIGTERM, previous)


class TestSloTrigger:
    def test_breach_dumps_flight_recorder(self, recorder):
        from repro.obs.metrics import MetricsRegistry

        recorder.record(digest())
        registry = MetricsRegistry()
        registry.gauge("repro_test_value").set(2.0)
        engine = slo.SLOEngine(
            [
                slo.SLORule(
                    name="always-breached",
                    metric="repro_test_value",
                    objective=0.5,
                )
            ]
        )
        report = engine.evaluate(registry)
        assert report.status in ("degraded", "failing")
        stats = recorder.stats()
        assert stats["dumps_written"] == 1
        assert "slo-always-breached" in stats["dump_files"][0]
