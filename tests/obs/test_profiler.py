"""Tests for the sampling wall-clock profiler."""

import threading
import time

import pytest

from repro.obs import metrics as obs_metrics, tracing
from repro.obs.profiler import SamplingProfiler
from repro.obs.records import RecordSink


@pytest.fixture()
def tracer():
    """Span frames need an active tracer — null spans never register."""
    tracing.configure([RecordSink(capacity=2048)])
    yield
    tracing.disable()


def busy_wait(profiler, minimum=3, deadline=2.0):
    """Spin until the profiler has captured ``minimum`` samples."""
    start = time.monotonic()
    while profiler.samples < minimum:
        if time.monotonic() - start > deadline:
            pytest.fail(
                f"profiler captured {profiler.samples} samples "
                f"in {deadline}s"
            )
        sum(i * i for i in range(500))


class TestLifecycle:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError, match="interval"):
            SamplingProfiler(interval=0)

    def test_start_stop_and_samples(self):
        profiler = SamplingProfiler(interval=0.001, with_spans=False)
        assert not profiler.running
        profiler.start()
        assert profiler.running
        busy_wait(profiler)
        profiler.stop()
        assert not profiler.running
        assert profiler.samples >= 3
        assert profiler.collapsed()

    def test_stop_is_idempotent(self):
        profiler = SamplingProfiler(interval=0.001, with_spans=False)
        profiler.stop()
        profiler.start()
        profiler.stop()
        profiler.stop()
        assert not profiler.running

    def test_restart_accumulates_until_clear(self):
        profiler = SamplingProfiler(interval=0.001, with_spans=False)
        with profiler:
            busy_wait(profiler, minimum=2)
        first = profiler.samples
        with profiler:
            busy_wait(profiler, minimum=first + 2)
        assert profiler.samples > first
        profiler.clear()
        assert profiler.samples == 0
        assert profiler.collapsed() == {}

    def test_span_tracking_toggles_with_profiler(self, tracer):
        profiler = SamplingProfiler(interval=0.001, with_spans=True)
        profiler.start()
        try:
            assert tracing.thread_span_stack(threading.get_ident()) == ()
            with tracing.span("probe"):
                stack = tracing.thread_span_stack(threading.get_ident())
            assert stack == ("probe",)
        finally:
            profiler.stop()
        with tracing.span("probe"):
            assert tracing.thread_span_stack(
                threading.get_ident()
            ) == ()

    def test_stop_publishes_sample_counter(self):
        registry = obs_metrics.enable()
        try:
            profiler = SamplingProfiler(interval=0.001, with_spans=False)
            profiler.start()
            busy_wait(profiler)
            profiler.stop()
            family = registry.get("repro_profiler_samples_total")
            assert family is not None
            total = sum(child.value for child in family.children())
            assert total >= 3
        finally:
            obs_metrics.disable()


class TestAttribution:
    def test_stacks_are_root_first_module_colon_func(self):
        profiler = SamplingProfiler(interval=0.001, with_spans=False)
        with profiler:
            busy_wait(profiler)
        stacks = profiler.collapsed()
        assert stacks
        for stack in stacks:
            for frame in stack.split(";"):
                assert ":" in frame
        # This test function's own spinning shows up somewhere.
        assert any("test_profiler:" in s for s in stacks)

    def test_span_frames_prefix_sampled_stacks(self, tracer):
        profiler = SamplingProfiler(interval=0.001, with_spans=True)
        with profiler:
            with tracing.span("hot.loop"):
                busy_wait(profiler, minimum=5)
        totals = profiler.span_totals()
        assert totals.get("hot.loop", 0) >= 1
        assert any(
            s.startswith("span:hot.loop;") for s in profiler.collapsed()
        )

    def test_max_depth_bounds_stacks(self):
        profiler = SamplingProfiler(
            interval=0.001, with_spans=False, max_depth=2
        )
        with profiler:
            busy_wait(profiler)
        for stack in profiler.collapsed():
            assert len(stack.split(";")) <= 2

    def test_top_ranks_by_samples(self):
        profiler = SamplingProfiler(interval=0.001, with_spans=False)
        with profiler:
            busy_wait(profiler, minimum=5)
        ranked = profiler.top(3)
        assert len(ranked) <= 3
        counts = [count for _, count in ranked]
        assert counts == sorted(counts, reverse=True)


class TestCollapsedOutput:
    def test_write_collapsed_format(self, tmp_path):
        profiler = SamplingProfiler(interval=0.001, with_spans=False)
        with profiler:
            busy_wait(profiler)
        path = tmp_path / "profile.txt"
        written = profiler.write_collapsed(path)
        lines = path.read_text().splitlines()
        assert written == len(lines) > 0
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert stack

    def test_write_empty_profile(self, tmp_path):
        profiler = SamplingProfiler(interval=0.001)
        path = tmp_path / "empty.txt"
        assert profiler.write_collapsed(path) == 0
        assert path.read_text() == ""
