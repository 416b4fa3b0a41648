"""Parallel fit and LOO evaluation must be byte-identical to serial."""

import pytest

from repro.core import AuricEngine
from repro.eval.runner import EvaluationRunner
from repro.parallel.evaluate import split_evenly

from tests.conftest import model_state

PARAMETERS = ("pMax", "inactivityTimer", "hysA3Offset")


class TestSplitEvenly:
    def test_preserves_order_and_content(self):
        items = list(range(11))
        chunks = split_evenly(items, 3)
        assert [x for chunk in chunks for x in chunk] == items

    def test_sizes_differ_by_at_most_one(self):
        sizes = [len(c) for c in split_evenly(list(range(10)), 4)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_items(self):
        assert split_evenly([1, 2], 5) == [[1], [2]]

    def test_at_least_one_chunk(self):
        assert split_evenly([1, 2, 3], 0) == [[1, 2, 3]]


def _assert_models_equal(a, b):
    assert set(a) == set(b)
    for name in a:
        assert model_state(a[name]) == model_state(b[name]), name


class TestParallelFit:
    def test_matches_serial(self, dataset):
        serial = AuricEngine(dataset.network, dataset.store).fit(
            PARAMETERS, jobs=1
        )
        parallel = AuricEngine(dataset.network, dataset.store).fit(
            PARAMETERS, jobs=2
        )
        _assert_models_equal(serial.fitted_models(), parallel.fitted_models())

    def test_vote_weights_travel_to_workers(self, dataset):
        some_key = sorted(dataset.store.singular_values("pMax"))[0]
        weights = {some_key: 3.0}
        serial = AuricEngine(dataset.network, dataset.store).fit(
            PARAMETERS, vote_weights=weights, jobs=1
        )
        parallel = AuricEngine(dataset.network, dataset.store).fit(
            PARAMETERS, vote_weights=weights, jobs=2
        )
        # The workers only select: the master builds every model with
        # the weights.
        _assert_models_equal(serial.fitted_models(), parallel.fitted_models())
        assert parallel.fitted_models()["pMax"].weights == {some_key: 3.0}


class TestParallelLoo:
    @pytest.fixture()
    def runner(self, dataset):
        return EvaluationRunner(dataset)

    def test_matches_serial_exactly(self, runner, engine):
        serial = runner.loo_accuracy(engine, PARAMETERS, jobs=1)
        parallel = runner.loo_accuracy(engine, PARAMETERS, jobs=2)
        assert serial.parameter_accuracy_local == parallel.parameter_accuracy_local
        assert (
            serial.parameter_accuracy_global == parallel.parameter_accuracy_global
        )
        assert serial.mismatches_local == parallel.mismatches_local
        assert serial.mismatches_global == parallel.mismatches_global
        assert serial.evaluated == parallel.evaluated

    def test_matches_serial_with_target_cap(self, runner, engine):
        serial = runner.loo_accuracy(
            engine, PARAMETERS, max_targets_per_parameter=50, jobs=1
        )
        parallel = runner.loo_accuracy(
            engine, PARAMETERS, max_targets_per_parameter=50, jobs=2
        )
        assert serial.parameter_accuracy_local == parallel.parameter_accuracy_local
        assert serial.mismatches_local == parallel.mismatches_local

    def test_jobs_zero_resolves_to_all_cores(self, runner, engine):
        serial = runner.loo_accuracy(engine, ["pMax"], jobs=1)
        auto = runner.loo_accuracy(engine, ["pMax"], jobs=0)
        assert serial.parameter_accuracy_local == auto.parameter_accuracy_local

    def test_plan_is_stable_across_calls(self, runner):
        first = runner.loo_plan(PARAMETERS, max_targets_per_parameter=40)
        second = runner.loo_plan(PARAMETERS, max_targets_per_parameter=40)
        assert first == second
