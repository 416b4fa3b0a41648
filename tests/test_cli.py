"""Tests for the command-line interface."""

import json

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
