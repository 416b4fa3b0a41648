"""Tests for drift statistics, baselines, detectors and health reports."""

import pytest

from repro.core.columnar import ColumnarSnapshot
from repro.datagen import tiny_workload
from repro.obs import metrics as obs_metrics
from repro.obs.health import (
    AttributeDrift,
    DriftDetector,
    DriftReport,
    DriftThresholds,
    DriftWindow,
    HealthReport,
    attribute_distributions,
    baseline_distributions,
    chi_square_drift,
    parameter_distribution,
    population_stability_index,
)


@pytest.fixture(scope="module")
def dataset():
    return tiny_workload(seed=31)


class TestStatistics:
    def test_psi_zero_on_identical_distributions(self):
        dist = {"a": 40, "b": 60}
        assert population_stability_index(dist, dist) == 0.0
        # Proportions match counts scaled by any factor.
        assert population_stability_index(
            dist, {"a": 4, "b": 6}
        ) == pytest.approx(0.0)

    def test_psi_grows_with_shift(self):
        base = {"a": 50, "b": 50}
        mild = population_stability_index(base, {"a": 60, "b": 40})
        severe = population_stability_index(base, {"a": 95, "b": 5})
        assert 0 < mild < severe
        assert severe > 0.25

    def test_psi_handles_one_sided_categories(self):
        # A category present on one side only must not blow up.
        psi = population_stability_index({"a": 100}, {"b": 100})
        assert psi > 1.0
        assert psi != float("inf")

    def test_psi_empty_inputs_are_neutral(self):
        assert population_stability_index({}, {"a": 1}) == 0.0
        assert population_stability_index({"a": 1}, {}) == 0.0

    def test_chi_square_null_on_identical(self):
        stat, dof, p = chi_square_drift({"a": 50, "b": 50}, {"a": 50, "b": 50})
        assert stat == 0.0
        assert dof == 1
        assert p == 1.0

    def test_chi_square_detects_shift(self):
        stat, dof, p = chi_square_drift({"a": 50, "b": 50}, {"a": 95, "b": 5})
        assert stat > 10
        assert p < 0.001

    def test_chi_square_degenerate_tables(self):
        assert chi_square_drift({"a": 10}, {"a": 12}) == (0.0, 0, 1.0)
        assert chi_square_drift({}, {"a": 5}) == (0.0, 0, 1.0)


def _snapshot_baseline(dataset, parameters=()):
    specs = [dataset.store.catalog.spec(name) for name in parameters]
    snapshot = ColumnarSnapshot.encode(dataset.network, dataset.store, specs)
    return baseline_distributions(snapshot, parameters)


class TestBaseline:
    def test_capture_covers_schema_and_parameters(self, dataset):
        baseline = _snapshot_baseline(dataset, ["pMax", "hysA3Offset"])
        carriers = sum(1 for _ in dataset.network.carriers())
        assert sum(baseline["carrier_frequency"].values()) == carriers
        # Both singular and pair-wise parameter values are counted, as
        # the live side counts them.
        assert baseline == {
            **attribute_distributions(dataset.network),
            "parameter:pMax": parameter_distribution(dataset.store, "pMax"),
            "parameter:hysA3Offset": parameter_distribution(
                dataset.store, "hysA3Offset"
            ),
        }

    def test_distributions_prefix_parameters(self, dataset):
        merged = _snapshot_baseline(dataset, ["pMax"])
        assert "parameter:pMax" in merged
        assert "carrier_frequency" in merged
        assert "pMax" not in merged

    def test_engine_fit_captures_baseline(self, dataset):
        """An engine's baseline is counted off the snapshot it votes
        from, over exactly its fitted parameters."""
        from repro.core.auric import AuricEngine

        engine = AuricEngine(dataset.network, dataset.store).fit(["pMax"])
        baseline = baseline_distributions(
            engine.columnar_snapshot(), engine.fitted_parameters()
        )
        assert {n for n in baseline if n.startswith("parameter:")} == {
            "parameter:pMax"
        }
        assert baseline == _snapshot_baseline(dataset, ["pMax"])


class TestDetector:
    def _baseline(self, dataset):
        return _snapshot_baseline(dataset)

    def test_stationary_population_is_healthy(self, dataset):
        baseline = self._baseline(dataset)
        report = DriftDetector(baseline).score(
            attribute_distributions(dataset.network)
        )
        assert report.verdict == "healthy"
        assert not report.stale
        assert report.psi_max == pytest.approx(0.0)
        assert all(d.verdict == "stationary" for d in report.attributes)

    def test_injected_shift_is_flagged(self, dataset):
        baseline = self._baseline(dataset)
        live = attribute_distributions(dataset.network)
        # Collapse one attribute's distribution onto a single value.
        total = sum(live["hardware"].values())
        live["hardware"] = {"vendor-x": total}
        report = DriftDetector(baseline).score(live)
        assert report.verdict == "stale"
        worst = report.attributes[0]
        assert worst.attribute == "hardware"
        assert worst.verdict == "major"
        assert worst.psi >= 0.25
        assert worst.p_value < 0.01

    def test_small_windows_never_alert(self, dataset):
        baseline = self._baseline(dataset)
        # 5 samples of a wildly different value: insufficient, not major.
        report = DriftDetector(baseline).score(
            {"hardware": {"vendor-x": 5}}
        )
        assert report.verdict == "healthy"
        assert report.attributes[0].verdict == "insufficient"

    def test_novel_live_attributes_are_ignored(self, dataset):
        baseline = self._baseline(dataset)
        report = DriftDetector(baseline).score(
            {"not_in_schema": {"a": 100}}
        )
        assert report.attributes == []
        assert report.verdict == "healthy"

    def test_thresholds_tunable(self, dataset):
        baseline = self._baseline(dataset)
        live = attribute_distributions(dataset.network)
        # Nudge one category: mild under defaults, major when the
        # thresholds are dialed down to zero.
        shifted = dict(live["hardware"])
        top = max(shifted, key=shifted.get)
        shifted[top] = shifted[top] * 1.5 + 10
        live["hardware"] = shifted
        default = DriftDetector(baseline).score(live)
        assert default.verdict == "healthy"
        strict = DriftThresholds(psi_moderate=0.0, psi_major=0.0, alpha=0.5)
        report = DriftDetector(baseline, strict).score(live)
        assert report.verdict == "stale"

    def test_report_records_gauges_on_enabled_registry(self, dataset):
        baseline = self._baseline(dataset)
        live = attribute_distributions(dataset.network)
        total = sum(live["hardware"].values())
        live["hardware"] = {"vendor-x": total}
        registry = obs_metrics.enable()
        try:
            report = DriftDetector(baseline).score(live)
            report.record()
            text = registry.to_prometheus_text()
            assert 'repro_drift_score{attribute="hardware"}' in text
            assert "repro_drift_psi_max" in text
            assert "repro_drift_stale 1" in text
        finally:
            obs_metrics.disable()

    def test_record_is_free_while_disabled(self, dataset):
        obs_metrics.disable()
        baseline = self._baseline(dataset)
        report = DriftDetector(baseline).score(
            attribute_distributions(dataset.network)
        )
        report.record()  # no registry: shared null instruments absorb it
        assert not obs_metrics.enabled()

    def test_report_round_trips_to_dict(self, dataset):
        baseline = self._baseline(dataset)
        report = DriftDetector(baseline).score(
            attribute_distributions(dataset.network)
        )
        payload = report.to_dict()
        assert payload["verdict"] == "healthy"
        assert payload["thresholds"]["psi_major"] == 0.25
        assert len(payload["attributes"]) == len(report.attributes)


class TestDriftWindow:
    def test_sampling_stride(self):
        window = DriftWindow(sample_every=4)
        for i in range(16):
            window.observe({"x": i % 2})
        assert window.seen == 16
        assert window.sampled == 4

    def test_counts_accumulate_string_keyed(self):
        window = DriftWindow(sample_every=1)
        window.observe({"x": 1, "y": "a"})
        window.observe({"x": 1, "y": "b"})
        assert window.counts() == {
            "x": {"1": 2.0},
            "y": {"a": 1.0, "b": 1.0},
        }

    def test_max_samples_caps_growth(self):
        window = DriftWindow(sample_every=1, max_samples=3)
        for i in range(10):
            window.observe({"x": i})
        assert window.sampled == 3

    def test_clear_resets(self):
        window = DriftWindow(sample_every=1)
        window.observe({"x": 1})
        window.clear()
        assert window.seen == 0
        assert window.counts() == {}


class TestHealthReport:
    def _drift(self, verdict):
        attr = AttributeDrift(
            attribute="hardware", psi=0.5, statistic=10.0, dof=1,
            p_value=0.001, n_expected=100, n_actual=100, verdict=verdict,
        )
        return DriftReport(attributes=[attr])

    class _FakeSLO:
        def __init__(self, status):
            self.status = status
            self.results = []

        def to_dict(self):
            return {"status": self.status, "results": []}

        def lines(self):
            return []

    def test_exit_codes(self):
        assert HealthReport().exit_code == 0
        assert HealthReport(drift=self._drift("major")).exit_code == 1
        assert HealthReport(slo=self._FakeSLO("degraded")).exit_code == 1
        assert HealthReport(slo=self._FakeSLO("failing")).exit_code == 2
        # SLO failing dominates drift staleness.
        report = HealthReport(
            drift=self._drift("major"), slo=self._FakeSLO("failing")
        )
        assert report.status == "failing"
        assert report.exit_code == 2

    def test_text_and_dict_render(self):
        report = HealthReport(
            drift=self._drift("stationary"),
            slo=self._FakeSLO("ok"),
            profile=[("span:service.handle;auric:recommend_local", 12)],
            notes=["exercise note"],
        )
        text = report.to_text()
        assert "health: healthy" in text
        assert "hardware" in text
        assert "exercise note" in text
        payload = report.to_dict()
        assert payload["status"] == "healthy"
        assert payload["profile"][0]["samples"] == 12
