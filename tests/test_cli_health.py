"""End-to-end tests for ``repro health`` / ``repro dashboard``.

Exit-code semantics are the contract: 0 healthy, 1 degraded (drift),
2 failing (a user-facing SLO breached beyond tolerance) or a refused
input (an ``error:`` line on stderr).
"""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """A fitted-snapshot universe shared by every test in the module:
    the tiny snapshot, a four-markets snapshot (a genuinely different
    population — drifted relative to tiny) and an engine artifact."""
    root = tmp_path_factory.mktemp("cli-health")
    tiny = root / "tiny.json"
    four = root / "four.json"
    artifact = root / "engine.json"
    assert main(["generate", "--workload", "tiny", "-o", str(tiny)]) == 0
    assert (
        main(["generate", "--workload", "four-markets", "--scale", "0.004",
              "-o", str(four)])
        == 0
    )
    code = main([
        "health", "--snapshot", str(tiny),
        "--save-artifact", str(artifact),
        "--no-profile", "--shadow-targets", "5",
    ])
    assert code == 0
    return {"tiny": tiny, "four": four, "artifact": artifact}


def health(paths, *extra):
    """Run ``repro health`` against the prebuilt artifact."""
    return main([
        "health", "--snapshot", str(paths["tiny"]),
        "--artifact", str(paths["artifact"]),
        "--no-profile", "--shadow-targets", "0", *extra,
    ])


class TestExitCodes:
    def test_stationary_stream_is_healthy(self, paths, capsys):
        assert health(paths) == 0
        out = capsys.readouterr().out
        assert "health: healthy" in out

    def test_drifted_live_snapshot_degrades(self, paths, capsys):
        code = health(paths, "--live", str(paths["four"]))
        assert code == 1
        out = capsys.readouterr().out
        assert "health: degraded" in out
        assert "stale" in out

    def test_breached_slo_fails(self, paths, capsys):
        # An impossible latency objective forces the p99 rule to
        # failing — the exit code reserved for user-facing breaches.
        code = health(paths, "--slo-latency-p99", "1e-9")
        assert code == 2
        out = capsys.readouterr().out
        assert "health: failing" in out
        assert "latency-p99" in out

    def test_unknown_parameter_rejected(self, paths, capsys):
        assert health(paths, "--parameters", "bogusKnob") == 2
        assert "error: unknown parameter 'bogusKnob'" in capsys.readouterr().err


class TestRefusedInputs:
    """An input the command refuses exits 2 with an ``error:`` line, as
    ``serve-batch`` does, never 1 (degraded) with a traceback."""

    def test_refused_load(self, paths, capsys):
        code = main([
            "health", "--snapshot", str(paths["four"]),
            "--artifact", str(paths["artifact"]), "--no-profile",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: artifact was fitted on a different")
        assert "hint: --no-verify-artifact" in err

    def test_refused_save(self, paths, capsys, tmp_path):
        """An mmap artifact loaded unverified over moved values votes
        from its store, so saving it over the moved snapshot is
        refused."""
        artifact = tmp_path / "engine.json"
        base = ["health", "--no-profile", "--shadow-targets", "0",
                "--requests", "0"]
        assert main([*base, "--snapshot", str(paths["tiny"]),
                     "--store", "mmap", "--save-artifact", str(artifact)]) == 0
        document = json.loads(paths["tiny"].read_text())
        values = document["config"]["singular"]["pMax"]
        vocab = sorted(set(values.values()))
        for key in sorted(values)[:40]:
            values[key] = next(v for v in vocab if v != values[key])
        moved = tmp_path / "moved.json"
        moved.write_text(json.dumps(document))
        capsys.readouterr()
        code = main([*base, "--snapshot", str(moved),
                     "--artifact", str(artifact), "--no-verify-artifact",
                     "--save-artifact", str(tmp_path / "again.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: the store moved after the fit of pMax"
        )
        assert not (tmp_path / "again.json").exists()

    @pytest.mark.parametrize("command", ["health", "dashboard"])
    def test_pairwise_parameter_refused(self, paths, capsys, tmp_path, command):
        page = tmp_path / "dash.html"
        code = main([
            command, "--snapshot", str(paths["tiny"]), "--no-profile",
            "--parameters", "hysA3Offset", "-o", str(page),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: hysA3Offset is pair-wise and needs a neighbor carrier"
        )
        assert not page.exists()

    def test_dashboard_refused_load(self, paths, capsys, tmp_path):
        page = tmp_path / "dash.html"
        code = main([
            "dashboard", "--snapshot", str(paths["four"]),
            "--artifact", str(paths["artifact"]), "--no-profile",
            "-o", str(page),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: artifact was fitted")
        assert not page.exists()


class TestDocuments:
    def test_json_document_shape(self, paths, capsys):
        code = health(paths, "--format", "json")
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "health"
        report = document["report"]
        assert report["status"] == "healthy"
        assert report["drift"]["verdict"] == "healthy"
        drifted = {a["attribute"] for a in report["drift"]["attributes"]}
        assert "carrier_frequency" in drifted
        slo_names = {r["name"] for r in report["slo"]["results"]}
        assert {"latency-p99", "cache-hit-ratio", "drift-psi"} <= slo_names
        # The registry exposition rides along for offline scraping.
        assert "repro_service_requests_total" in document["registry"]

    def test_profiler_writes_collapsed_stacks(self, paths, capsys, tmp_path):
        stacks = tmp_path / "profile.txt"
        code = main([
            "health", "--snapshot", str(paths["tiny"]),
            "--artifact", str(paths["artifact"]),
            "--shadow-targets", "0",
            "--profile-output", str(stacks),
        ])
        assert code == 0
        capsys.readouterr()
        for line in stacks.read_text().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert stack and int(count) >= 1

    def test_dashboard_writes_html(self, paths, capsys, tmp_path):
        page = tmp_path / "dash.html"
        code = main([
            "dashboard", "--snapshot", str(paths["tiny"]),
            "--artifact", str(paths["artifact"]),
            "--no-profile", "--shadow-targets", "0",
            "-o", str(page),
        ])
        assert code == 0
        assert "dashboard written" in capsys.readouterr().out
        html = page.read_text()
        assert html.lower().startswith("<!doctype html>")
        assert "repro health" in html
        assert "repro_service_requests_total" in html
