"""Tests for the one record sink and its tolerant reader."""

import sys
import threading

import pytest

from repro.obs.records import RecordSink, read_records


class TestRing:
    def test_ring_keeps_the_newest_records(self):
        sink = RecordSink(capacity=3)
        for index in range(5):
            sink.append({"index": index})
        assert [r["index"] for r in sink.records()] == [2, 3, 4]
        assert [r["index"] for r in sink.records(limit=2)] == [3, 4]

    def test_file_only_sink_keeps_no_ring(self, tmp_path):
        sink = RecordSink(path=str(tmp_path / "r.jsonl"))
        sink.append({"index": 0})
        sink.close()
        assert sink.records() == []

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            RecordSink(capacity=-1)


class TestFile:
    def test_one_line_per_record(self, tmp_path):
        class Shaped:
            def to_dict(self):
                return {"shaped": True}

        path = tmp_path / "r.jsonl"
        sink = RecordSink(path=str(path))
        sink.append({"a": 1})
        sink.append(Shaped())
        sink.close()
        assert path.read_bytes() == b'{"a": 1}\n{"shaped": true}\n'

    def test_reopen_cuts_a_torn_tail(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"n": 1}\n{"name": "engine.fit", "trace_id": "ab')
        sink = RecordSink(path=str(path))
        sink.append({"n": 2})
        sink.close()
        scan = read_records(str(path))
        assert scan.skipped == 0
        assert scan.records == [{"n": 1}, {"n": 2}]

    def test_reopen_cuts_a_torn_tail_longer_than_a_read_step(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"n": 1}\n' + b"x" * 10000)
        RecordSink(path=str(path)).close()
        assert path.read_bytes() == b'{"n": 1}\n'

    def test_reopen_keeps_a_complete_corrupt_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b"not json\n")
        sink = RecordSink(path=str(path))
        sink.append({"n": 1})
        sink.close()
        assert path.read_bytes() == b'not json\n{"n": 1}\n'

    def test_concurrent_appends_keep_whole_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        sink = RecordSink(capacity=64, path=str(path))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda w=w: [
                        sink.append({"worker": w, "index": i, "pad": "x" * 300})
                        for i in range(300)
                    ]
                )
                for w in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        sink.close()
        scan = read_records(str(path))
        assert scan.skipped == 0
        assert len(scan.records) == 6 * 300
        assert len(sink.records()) == 64
        for worker in range(6):
            indices = [r["index"] for r in scan.records if r["worker"] == worker]
            assert indices == list(range(300))


class TestReader:
    def test_counts_a_torn_and_a_corrupt_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(
            b'{"n": 1}\n'
            b"not json\n"
            b"\n"
            b"[1, 2]\n"
            b'{"n": 2}\n'
            b'{"n": 3, "torn'
        )
        scan = read_records(str(path))
        assert scan.records == [{"n": 1}, {"n": 2}]
        assert scan.skipped == 3

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            read_records(str(tmp_path / "missing.jsonl"))

    def test_reads_what_the_sink_wrote(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        sink = RecordSink(path=path, fsync=True)
        records = [{"seq": i, "nested": {"k": [i]}} for i in range(3)]
        for record in records:
            sink.append(record)
        sink.close()
        assert read_records(path).records == records
