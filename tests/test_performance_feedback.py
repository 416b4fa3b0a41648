"""Tests for the performance-feedback weighting extension."""

import pytest

from repro.core import AuricEngine
from repro.datagen.provenance import Provenance
from repro.experiments import performance_feedback


class TestSimulatedWeights:
    def test_weights_target_trial_leftovers(self, dataset):
        weights = performance_feedback.simulate_kpi_weights(
            dataset, ["pMax"], detection_rate=1.0, false_alarm_rate=0.0
        )
        values = dataset.store.singular_values("pMax")
        leftovers = {
            key
            for key in values
            if dataset.provenance.get("pMax", key).provenance
            is Provenance.TRIAL_LEFTOVER
        }
        assert set(weights) == leftovers
        assert all(w == 0.25 for w in weights.values())

    def test_false_alarms_touch_healthy_carriers(self, dataset):
        weights = performance_feedback.simulate_kpi_weights(
            dataset, ["pMax"], detection_rate=0.0, false_alarm_rate=1.0
        )
        values = dataset.store.singular_values("pMax")
        leftovers = {
            key
            for key in values
            if dataset.provenance.get("pMax", key).provenance
            is Provenance.TRIAL_LEFTOVER
        }
        assert set(weights) == set(values) - leftovers

    def test_deterministic(self, dataset):
        a = performance_feedback.simulate_kpi_weights(dataset, ["pMax"])
        b = performance_feedback.simulate_kpi_weights(dataset, ["pMax"])
        assert a == b


class TestWeightedEngine:
    def test_negative_weight_rejected(self, dataset):
        values = dataset.store.singular_values("pMax")
        key = sorted(values)[0]
        with pytest.raises(ValueError):
            AuricEngine(dataset.network, dataset.store).fit(
                ["pMax"], vote_weights={key: -1.0}
            )

    def test_zero_weight_silences_a_vote(self, dataset):
        values = dataset.store.singular_values("pMax")
        key = sorted(values)[0]
        engine = AuricEngine(dataset.network, dataset.store).fit(
            ["pMax"], vote_weights={key: 0.0}
        )
        model = engine._model("pMax")
        cell, label = model.encoded.targets()[key]
        # The silenced carrier contributes nothing to its cell.
        plain = AuricEngine(dataset.network, dataset.store).fit(["pMax"])
        plain_votes = dict(
            plain._cell_vote_table(plain._model("pMax")).distribution(cell)
        )
        votes = dict(engine._cell_vote_table(model).distribution(cell))
        assert votes[label] == plain_votes[label] - 1

    def test_experiment_runs_and_does_not_hurt(self, dataset):
        result = performance_feedback.run(
            dataset,
            parameters=("pMax", "qHyst"),
            max_targets_per_parameter=250,
        )
        assert set(result.unweighted) == {"pMax", "qHyst"}
        # Down-weighting detected-bad carriers must not reduce accuracy.
        assert result.improvement >= -0.01
        assert "weighting improvement" in result.render()
