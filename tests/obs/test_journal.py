"""Tests for the engine-lifecycle journal: durability, recovery,
timeline assembly, and the process-global plumbing."""

import json
import os
import threading

import pytest

from repro.obs import journal as obs_journal
from repro.obs.journal import (
    EngineJournal,
    assemble_timeline,
    mint_stream,
    read_journal,
)


@pytest.fixture()
def journal_path(tmp_path):
    return str(tmp_path / "journal.jsonl")


@pytest.fixture(autouse=True)
def _no_global_journal():
    yield
    obs_journal.disable()


class TestRecording:
    def test_records_are_one_json_line_each(self, journal_path):
        with EngineJournal(journal_path, fsync=False) as journal:
            journal.record("fit", generation=0, stream="engine-t1")
            journal.record(
                "refresh",
                scope="service",
                stream="svc-t1",
                generation=1,
                parent_generation=0,
            )
        with open(journal_path) as handle:
            lines = handle.readlines()
        assert len(lines) == 2
        assert all(line.endswith("\n") for line in lines)
        first, second = (json.loads(line) for line in lines)
        assert first["event"] == "fit"
        assert first["seq"] == 1
        assert second["seq"] == 2
        assert second["parent_generation"] == 0

    def test_optional_fields_omitted_not_null(self, journal_path):
        with EngineJournal(journal_path, fsync=False) as journal:
            entry = journal.record("fit")
        assert "generation" not in entry
        assert "trigger" not in entry
        assert "drift" not in entry

    def test_extra_kwargs_land_in_attrs(self, journal_path):
        with EngineJournal(journal_path, fsync=False) as journal:
            entry = journal.record("push", carrier="M1-E2-C3", outcome="pushed")
        assert entry["attrs"] == {"carrier": "M1-E2-C3", "outcome": "pushed"}

    def test_tail_is_bounded_and_ordered(self, journal_path):
        with EngineJournal(journal_path, fsync=False, tail=3) as journal:
            for index in range(6):
                journal.record("fit", index=index)
            tail = journal.tail()
            assert [e["attrs"]["index"] for e in tail] == [3, 4, 5]
            assert [e["attrs"]["index"] for e in journal.tail(limit=2)] == [4, 5]

    def test_digest_names_the_head(self, journal_path):
        with EngineJournal(journal_path, fsync=False) as journal:
            assert journal.digest()["last_seq"] == 0
            journal.record("refresh", scope="service", stream="s", generation=4)
            digest = journal.digest()
        assert digest["last_seq"] == 1
        assert digest["last_event"] == "refresh"
        assert digest["generation"] == 4
        assert digest["stream"] == "s"
        assert len(digest["head"]) == 16

    def test_record_after_close_is_refused(self, journal_path):
        journal = EngineJournal(journal_path, fsync=False)
        journal.close()
        assert journal.record("fit") is None

    def test_trace_id_defaults_from_tracing_context(self, journal_path):
        from repro.obs import tracing

        tracing.configure([])
        try:
            with EngineJournal(journal_path, fsync=False) as journal:
                with tracing.span("test.cause"):
                    context = tracing.current_context()
                    entry = journal.record("fit")
            assert entry["trace_id"] == context[0]
        finally:
            tracing.disable()


class TestRecovery:
    def _write_records(self, path, count):
        with EngineJournal(path, fsync=False) as journal:
            for index in range(count):
                journal.record("fit", index=index)

    def test_torn_tail_truncated_and_seq_resumes(self, journal_path):
        self._write_records(journal_path, 3)
        with open(journal_path, "ab") as handle:
            handle.write(b'{"seq": 4, "event": "refre')  # crash mid-write
        with EngineJournal(journal_path, fsync=False) as journal:
            entry = journal.record("refresh")
        assert entry["seq"] == 4
        scan = read_journal(journal_path)
        assert scan.skipped == 0  # recovery removed the torn line
        assert [r["seq"] for r in scan.records] == [1, 2, 3, 4]

    def test_torn_complete_garbage_line_is_preserved_interior(
        self, journal_path
    ):
        self._write_records(journal_path, 2)
        with open(journal_path, "ab") as handle:
            handle.write(b"not json at all\n")  # complete line, bad JSON
        with EngineJournal(journal_path, fsync=False) as journal:
            journal.record("refresh")
        scan = read_journal(journal_path)
        assert scan.skipped == 1
        assert [r["event"] for r in scan.records] == ["fit", "fit", "refresh"]

    def test_empty_and_missing_files_open_clean(self, journal_path):
        with EngineJournal(journal_path, fsync=False) as journal:
            assert journal.record("fit")["seq"] == 1
        open(journal_path, "w").close()  # empty the file
        with EngineJournal(journal_path, fsync=False) as journal:
            assert journal.record("fit")["seq"] == 1

    def test_reader_tolerates_torn_tail_without_writer(self, journal_path):
        self._write_records(journal_path, 2)
        with open(journal_path, "ab") as handle:
            handle.write(b'{"torn": ')
        scan = read_journal(journal_path)
        assert len(scan.records) == 2
        assert scan.skipped == 1


class TestConcurrency:
    def test_concurrent_writers_interleave_whole_records(self, journal_path):
        journal = EngineJournal(journal_path, fsync=False)
        errors = []

        def hammer(worker):
            try:
                for index in range(50):
                    journal.record("fit", worker=worker, index=index)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        journal.close()
        assert not errors
        scan = read_journal(journal_path)
        assert scan.skipped == 0
        assert len(scan.records) == 200
        # seq is a total order with no duplicates or holes
        assert sorted(r["seq"] for r in scan.records) == list(range(1, 201))
        # every worker's own writes appear in submission order
        for worker in range(4):
            indices = [
                r["attrs"]["index"]
                for r in scan.records
                if r["attrs"]["worker"] == worker
            ]
            assert indices == sorted(indices)

    def test_two_journals_one_path_append_atomically(self, journal_path):
        # O_APPEND semantics: separate descriptors never overwrite each
        # other even without shared locks.
        first = EngineJournal(journal_path, fsync=False)
        second = EngineJournal(journal_path, fsync=False)
        for index in range(25):
            first.record("fit", src="a", index=index)
            second.record("fit", src="b", index=index)
        first.close()
        second.close()
        scan = read_journal(journal_path)
        assert scan.skipped == 0
        assert len(scan.records) == 50


class TestTimeline:
    def test_linear_chain_and_annotations(self):
        records = [
            {"event": "fit", "scope": "engine", "stream": "engine-1",
             "generation": 0},
            {"event": "refresh", "scope": "service", "stream": "svc-1",
             "generation": 1, "parent_generation": 0},
            {"event": "incremental-refit", "scope": "service",
             "stream": "svc-1", "generation": 1, "parent_generation": 1},
            {"event": "refresh", "scope": "service", "stream": "svc-1",
             "generation": 2, "parent_generation": 1},
        ]
        timeline = assemble_timeline(records)
        assert timeline.complete
        assert timeline.total_records == 4
        svc1 = timeline.node("service", "svc-1", 1)
        assert svc1.parent_generation == 0
        assert len(svc1.events) == 2  # refresh + in-place refit
        assert timeline.node("service", "svc-1", 0).implicit
        assert timeline.node("service", "svc-1", 2).parent_generation == 1

    def test_changelog_refit_adds_an_edge_only_when_it_swaps(self):
        swapped = assemble_timeline([
            {"event": "incremental-refit", "scope": "service",
             "stream": "svc-1", "generation": 1, "parent_generation": 0},
        ])
        assert swapped.node("service", "svc-1", 1).parent_generation == 0
        assert swapped.node("service", "svc-1", 0).implicit
        kept = assemble_timeline([
            {"event": "incremental-refit", "scope": "service",
             "stream": "svc-1", "generation": 0, "parent_generation": 0},
        ])
        assert sorted(kept.streams[("service", "svc-1")]) == [0]
        assert kept.node("service", "svc-1", 0).parent_generation is None
        assert kept.complete

    def test_render_counts_refitted_not_full(self):
        """``refitted`` also counts parameters whose selection was
        reused, so the label must not call them full refits."""
        text = assemble_timeline([
            {"event": "incremental-refit", "scope": "service",
             "stream": "svc-1", "generation": 1, "parent_generation": 0,
             "refit": {"kind": "incremental", "refitted": {"pMax": 3},
                       "reused_selection": ["pMax"], "skipped": []}},
        ]).render()
        assert "refit=incremental  refitted=1  reused=1" in text
        assert "full=" not in text

    def test_missing_parent_is_a_gap(self):
        records = [
            {"event": "hot-swap", "scope": "front", "stream": "front-1",
             "generation": 5, "parent_generation": 4},
        ]
        timeline = assemble_timeline(records)
        assert not timeline.complete
        assert timeline.missing_parents == [("front", "front-1", 4)]

    def test_parallel_streams_stay_separate(self):
        records = [
            {"event": "refresh", "scope": "service", "stream": "svc-1",
             "generation": 1, "parent_generation": 0},
            {"event": "refresh", "scope": "service", "stream": "svc-2",
             "generation": 1, "parent_generation": 0},
        ]
        timeline = assemble_timeline(records)
        assert len(timeline.streams) == 2
        assert timeline.complete

    def test_generationless_records_are_loose(self):
        records = [
            {"event": "launch", "scope": "ops"},
            {"event": "rollback", "scope": "ops"},
        ]
        timeline = assemble_timeline(records)
        assert not timeline.streams
        assert [r["event"] for r in timeline.loose] == ["launch", "rollback"]

    def test_render_and_to_dict(self):
        records = [
            {"event": "refresh", "scope": "service", "stream": "svc-1",
             "generation": 1, "parent_generation": 0, "trigger": "drift",
             "drift": {"verdict": "stale", "psi_max": 0.31},
             "duration_s": 1.25},
        ]
        timeline = assemble_timeline(records)
        text = timeline.render()
        assert "service [svc-1]" in text
        assert "gen 1 ◀─ gen 0" in text
        assert "trigger=drift" in text
        assert "drift=stale" in text
        payload = timeline.to_dict()
        assert payload["complete"] is True
        assert payload["streams"][0]["generations"][0]["generation"] == 0
        json.dumps(payload)  # JSON-serializable as-is


class TestGlobalPlumbing:
    def test_disabled_record_is_noop(self):
        assert obs_journal.record("fit") is None
        assert not obs_journal.active()

    def test_configure_record_disable(self, journal_path):
        obs_journal.configure(journal_path, fsync=False)
        assert obs_journal.active()
        obs_journal.record("fit", generation=0)
        obs_journal.disable()
        assert obs_journal.get_journal() is None
        scan = read_journal(journal_path)
        assert [r["event"] for r in scan.records] == ["fit"]

    def test_mint_stream_is_unique_and_cheap(self):
        names = {mint_stream("t") for _ in range(100)}
        assert len(names) == 100
        assert all(name.startswith("t-") for name in names)

    def test_fsync_writes_survive_reopen(self, journal_path):
        journal = obs_journal.configure(journal_path, fsync=True)
        journal.record("fit", generation=0)
        obs_journal.disable()
        assert os.path.getsize(journal_path) > 0
