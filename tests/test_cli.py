"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.datagen import tiny_workload
from repro.experiments import EXPERIMENTS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_requires_valid_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "bogus"])

    def test_all_experiments_accepted(self):
        parser = build_parser()
        for experiment_id in EXPERIMENTS:
            args = parser.parse_args(["experiment", experiment_id])
            assert args.id == experiment_id


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPERIMENTS:
            assert experiment_id in out

    def test_generate_tiny(self, capsys):
        assert main(["generate", "--workload", "tiny"]) == 0
        assert "Network(" in capsys.readouterr().out

    def test_experiment_with_workload_override(self, capsys, tmp_path):
        output = tmp_path / "fig4.txt"
        code = main(
            [
                "experiment",
                "fig4",
                "--workload",
                "tiny",
                "-o",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig 4" in out
        assert "Fig 4" in output.read_text()

    def test_experiment_table3_on_tiny(self, capsys):
        assert main(["experiment", "table3", "--workload", "tiny"]) == 0
        assert "Table 3" in capsys.readouterr().out


class TestScaleOverride:
    def test_generate_with_scale(self, capsys):
        assert main(["generate", "--workload", "four-markets", "--scale", "0.003"]) == 0
        out = capsys.readouterr().out
        assert "4 markets" in out


class TestSeedAndExport:
    def test_generate_export_is_seed_reproducible(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        other = tmp_path / "c.json"
        assert main(["generate", "--workload", "tiny", "--seed", "5",
                     "-o", str(first)]) == 0
        assert main(["generate", "--workload", "tiny", "--seed", "5",
                     "-o", str(second)]) == 0
        assert main(["generate", "--workload", "tiny", "--seed", "6",
                     "-o", str(other)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes() != other.read_bytes()


class TestServeBatch:
    @pytest.fixture()
    def snapshot(self, tmp_path, capsys):
        path = tmp_path / "snapshot.json"
        assert main(["generate", "--workload", "tiny", "-o", str(path)]) == 0
        capsys.readouterr()
        return path

    @pytest.fixture()
    def requests_file(self, tmp_path):
        dataset = tiny_workload()  # the same dataset `generate` exported
        payload = []
        for carrier in list(dataset.network.carriers())[:4]:
            enodeb = carrier.carrier_id.enodeb
            payload.append(
                {
                    "attributes": dict(carrier.attributes.values),
                    "enodeb": f"{enodeb.market.index}.{enodeb.index}",
                }
            )
        path = tmp_path / "requests.json"
        path.write_text(json.dumps({"requests": payload}))
        return path

    def test_serve_batch_end_to_end(self, snapshot, requests_file, capsys):
        code = main(
            [
                "serve-batch",
                str(snapshot),
                str(requests_file),
                "--parameters",
                "pMax,inactivityTimer",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pMax" in out
        assert "inactivityTimer" in out
        assert "service metrics:" in out
        assert "requests=4" in out

    def test_artifact_round_trip_matches_fit(
        self, snapshot, requests_file, tmp_path, capsys
    ):
        """Fitting+saving, then serving from the loaded artifact, must
        print identical recommendations."""
        artifact = tmp_path / "engine.json"
        fit_out = tmp_path / "fit.txt"
        load_out = tmp_path / "load.txt"
        base = [str(snapshot), str(requests_file), "--parameters", "pMax"]
        assert main(["serve-batch", *base, "--save-artifact", str(artifact),
                     "-o", str(fit_out)]) == 0
        assert artifact.exists()
        assert main(["serve-batch", *base, "--artifact", str(artifact),
                     "-o", str(load_out)]) == 0
        capsys.readouterr()

        def recommendations(path):
            return [
                line for line in path.read_text().splitlines()
                if not line.startswith("service metrics:")
            ]

        assert recommendations(fit_out) == recommendations(load_out)

    def test_unknown_parameter_is_a_clean_error(
        self, snapshot, requests_file, capsys
    ):
        code = main(
            ["serve-batch", str(snapshot), str(requests_file),
             "--parameters", "pMaxx"]
        )
        assert code == 2
        assert "unknown parameter 'pMaxx'" in capsys.readouterr().err

    def test_pairwise_parameter_is_a_clean_error(
        self, snapshot, requests_file, capsys
    ):
        code = main(
            ["serve-batch", str(snapshot), str(requests_file),
             "--parameters", "hysA3Offset"]
        )
        assert code == 2
        assert "pair-wise" in capsys.readouterr().err

    def test_artifact_snapshot_mismatch_is_a_clean_error(
        self, snapshot, requests_file, tmp_path, capsys
    ):
        artifact = tmp_path / "engine.json"
        assert main(["serve-batch", str(snapshot), str(requests_file),
                     "--parameters", "pMax",
                     "--save-artifact", str(artifact)]) == 0
        other = tmp_path / "other.json"
        assert main(["generate", "--workload", "tiny", "--seed", "6",
                     "-o", str(other)]) == 0
        capsys.readouterr()
        code = main(["serve-batch", str(other), str(requests_file),
                     "--artifact", str(artifact)])
        err = capsys.readouterr().err
        assert code == 2
        assert "different snapshot" in err
        assert "--no-verify-artifact" in err

    def test_resaving_over_a_moved_store_is_a_clean_error(
        self, snapshot, requests_file, tmp_path, capsys
    ):
        """An mmap artifact loaded unverified against moved values
        votes from its store, so saving it again over the moved snapshot
        is refused."""
        artifact = tmp_path / "engine.json"
        assert main(["serve-batch", str(snapshot), str(requests_file),
                     "--parameters", "pMax", "--store", "mmap",
                     "--save-artifact", str(artifact)]) == 0
        document = json.loads(snapshot.read_text())
        values = document["config"]["singular"]["pMax"]
        vocab = sorted(set(values.values()))
        for key in sorted(values)[:40]:
            values[key] = next(v for v in vocab if v != values[key])
        moved = tmp_path / "moved.json"
        moved.write_text(json.dumps(document))
        capsys.readouterr()
        code = main(["serve-batch", str(moved), str(requests_file),
                     "--artifact", str(artifact), "--no-verify-artifact",
                     "--save-artifact", str(tmp_path / "again.json")])
        assert code == 2
        assert "error: the store moved after the fit of pMax" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "again.json").exists()

    def test_malformed_artifact_is_a_clean_error(
        self, snapshot, requests_file, tmp_path, capsys
    ):
        artifact = tmp_path / "engine.json"
        base = [str(snapshot), str(requests_file), "--parameters", "pMax"]
        assert main(["serve-batch", *base, "--save-artifact", str(artifact)]) == 0
        payload = json.loads(artifact.read_text())
        payload["models"][0]["weights"] = {"not-a-key": 2.0}
        artifact.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["serve-batch", *base, "--artifact", str(artifact)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: model pMax: malformed weights" in err

    @pytest.mark.parametrize(
        "ref, expected",
        [
            ("engine.json.columnar", "not an object"),
            ({"kind": "carrier-pigeon", "path": "x"}, "unknown store kind"),
            ({"kind": "mmap"}, "has no path"),
        ],
        ids=["string", "unknown-kind", "no-path"],
    )
    def test_malformed_store_reference_is_a_clean_error(
        self, snapshot, requests_file, tmp_path, capsys, ref, expected
    ):
        artifact = tmp_path / "engine.json"
        base = [str(snapshot), str(requests_file), "--parameters", "pMax"]
        assert main(["serve-batch", *base, "--save-artifact", str(artifact)]) == 0
        payload = json.loads(artifact.read_text())
        payload["columnar_store"] = ref
        artifact.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["serve-batch", *base, "--artifact", str(artifact)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert expected in err

    @pytest.mark.parametrize("cut", ["prefix", "blob"])
    def test_truncated_store_is_a_clean_error(
        self, snapshot, requests_file, tmp_path, capsys, cut
    ):
        artifact = tmp_path / "engine.json"
        base = [str(snapshot), str(requests_file), "--parameters", "pMax"]
        assert main(["serve-batch", *base, "--store", "mmap",
                     "--save-artifact", str(artifact)]) == 0
        store = tmp_path / "engine.json.columnar"
        size = 12 if cut == "prefix" else store.stat().st_size - 1
        os.truncate(store, size)
        capsys.readouterr()
        code = main(["serve-batch", *base, "--artifact", str(artifact)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot open the artifact's columnar store")
        assert "is truncated" in err


class TestObservabilityCommands:
    def test_explain_prints_provenance(self, capsys):
        assert main(["explain"]) == 0
        out = capsys.readouterr().out
        assert "explanation for" in out
        assert "depends on (chi-square)" in out
        assert "support" in out
        assert "pMax" in out and "inactivityTimer" in out

    def test_explain_json(self, capsys):
        assert main(["explain", "--format", "json",
                     "--parameters", "pMax"]) == 0
        document = json.loads(capsys.readouterr().out)
        explanation = document["explanation"]
        parameters = explanation["parameters"]
        assert set(parameters) == {"pMax"}
        entry = parameters["pMax"]
        assert 0.0 <= entry["support"] <= 1.0
        assert entry["votes"], "explain must capture the vote distribution"
        for dependence in entry["dependencies"]:
            assert 0.0 <= dependence["p_value"] <= 1.0

    def test_metrics_prometheus_text(self, capsys):
        assert main(["metrics", "--requests", "4",
                     "--parameters", "pMax"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_service_requests_total counter" in out
        assert "repro_service_requests_total 4" in out
        assert "repro_service_request_latency_seconds_bucket" in out
        assert 'le="+Inf"' in out

    def test_metrics_json(self, capsys):
        assert main(["metrics", "--format", "json", "--requests", "2",
                     "--parameters", "pMax"]) == 0
        document = json.loads(capsys.readouterr().out)
        registry = document["registry"]
        requests = registry["repro_service_requests_total"]
        assert requests["series"][0]["value"] == 2.0

    def test_trace_flag_writes_nested_spans(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["explain", "--parameters", "pMax",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        spans = [json.loads(line)
                 for line in trace.read_text().splitlines()]
        names = {span["name"] for span in spans}
        assert "service.handle" in names
        assert "engine.fit" in names
        by_id = {span["span_id"]: span for span in spans}
        fit_children = [span for span in spans
                        if span["name"] == "engine.fit_parameter"]
        assert fit_children
        for child in fit_children:
            assert by_id[child["parent_id"]]["name"] in (
                "engine.fit", "pool.task:_fit_task"
            )


class TestInputErrors:
    """explain and metrics refuse bad input with an error line, exit 2."""

    @pytest.mark.parametrize("command", ["explain", "metrics"])
    def test_unknown_parameter_is_a_clean_error(self, command, capsys):
        assert main([command, "--parameters", "bogusKnob"]) == 2
        assert "error: unknown parameter 'bogusKnob'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["explain", "metrics"])
    def test_pairwise_parameter_is_refused_before_the_fit(
        self, command, capsys
    ):
        assert main([command, "--parameters", "pMax,hysA3Offset"]) == 2
        assert capsys.readouterr().err == (
            "error: hysA3Offset is pair-wise and needs a neighbor carrier; "
            f"{command} answers singular parameters only\n"
        )

    @pytest.mark.parametrize(
        "carrier, reason",
        [
            ("nope", "malformed carrier key 'nope'"),
            ("99.99.0.0", "unknown carrier '99.99.0.0'"),
        ],
    )
    def test_bad_carrier_is_a_clean_error(self, carrier, reason, capsys):
        code = main(["explain", "--parameters", "pMax", "--carrier", carrier])
        assert code == 2
        assert f"error: {reason}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def explain_trace(tmp_path_factory):
    """An explain run's --trace file and the trace id of its fit."""
    path = tmp_path_factory.mktemp("trace") / "explain.jsonl"
    assert main(["explain", "--parameters", "pMax",
                 "--trace", str(path)]) == 0
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    fit = next(span for span in spans if span["name"] == "engine.fit")
    return path, fit["trace_id"]


class TestTraceCommand:
    def test_trace_file_reopened_after_a_torn_tail(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b'{"name": "engine.fit", "trace_id": "ab')
        assert main(["explain", "--parameters", "pMax",
                     "--trace", str(path)]) == 0
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans[0]["name"] == "columnar.encode"

    def test_renders_an_explain_trace(self, explain_trace, capsys):
        path, trace_id = explain_trace
        assert main(["trace", trace_id, "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"trace {trace_id}")
        assert "engine.fit" in out and "engine.fit_parameter" in out
        assert "skipped" not in out

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_torn_and_corrupt_lines_are_skipped_and_counted(
        self, explain_trace, tmp_path, capsys, fmt
    ):
        path, trace_id = explain_trace
        damaged = tmp_path / "damaged.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        damaged.write_text(
            lines[0] + "not json\n" + "".join(lines[1:]) + '{"name": "to'
        )
        code = main(["trace", trace_id, "--input", str(damaged),
                     "--format", fmt])
        assert code == 0
        out = capsys.readouterr().out
        if fmt == "json":
            document = json.loads(out)
            assert document["skipped_lines"] == 2
            assert document["span_count"] > 0
        else:
            assert out.rstrip().endswith("(2 corrupt line(s) skipped)")

    def test_renders_a_flight_dumps_in_flight_spans(self, tmp_path, capsys):
        """A flight dump nests the spans in flight at dump time under its
        meta record; ``trace --input`` renders them."""
        from repro.obs import flight, tracing

        recorder = flight.configure(dump_dir=str(tmp_path))
        tracing.configure([])
        try:
            with tracing.span("front.request") as root:
                trace_id = root.span.trace_id
                recorder.record(
                    flight.RequestDigest(trace_id, "market:0", 0, 0, 200, 1.5)
                )
                with tracing.span("shard.handle", shard=0):
                    path = recorder.dump("test")
        finally:
            tracing.disable()
            flight.disable()
        assert main(["trace", trace_id, "--input", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"trace {trace_id} (2 spans)")
        assert "front.request" in out and "shard.handle" in out
        assert "orphan" not in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["trace", "ab" * 16, "--input",
                     str(tmp_path / "missing.jsonl")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot read spans")

    def test_unknown_trace_id_exits_1(self, explain_trace, capsys):
        path, _ = explain_trace
        assert main(["trace", "cd" * 16, "--input", str(path)]) == 1
        assert "error: no spans for trace" in capsys.readouterr().err


def _journal_lines(*records):
    return "".join(json.dumps(record) + "\n" for record in records)


class TestTimelineCommand:
    CHAIN = (
        {"seq": 1, "event": "fit", "scope": "engine"},
        {"seq": 2, "event": "refresh", "scope": "service",
         "stream": "svc-1", "generation": 1, "parent_generation": 0},
    )

    def test_torn_journal_reports_skipped_lines(self, tmp_path, capsys):
        path = tmp_path / "journal.jsonl"
        path.write_text(_journal_lines(*self.CHAIN) + '{"seq": 3, "ev')
        code = main(["timeline", "--journal", str(path), "--check",
                     "--format", "json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["skipped_lines"] == 1
        assert document["total_records"] == 2

    def test_check_fails_on_a_gap(self, tmp_path, capsys):
        path = tmp_path / "journal.jsonl"
        path.write_text(_journal_lines(
            {"seq": 1, "event": "hot-swap", "scope": "front",
             "stream": "front-1", "generation": 5, "parent_generation": 4},
        ))
        assert main(["timeline", "--journal", str(path), "--check"]) == 1
        captured = capsys.readouterr()
        assert "MISSING PARENTS" in captured.out
        assert "error: 1 transition(s)" in captured.err

    def test_missing_journal_exits_2(self, tmp_path, capsys):
        code = main(["timeline", "--journal", str(tmp_path / "missing.jsonl")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot read journal")
