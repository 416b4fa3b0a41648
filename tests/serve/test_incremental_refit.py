"""Changelog refit: byte-identical to a full refit over the same
changelog, at a cost scoped to the touched (carrier, parameter) cells.

The hard contract: after ``EngineRefresher.refit(changes)`` every
fitted model of the serving engine must equal — its selection,
chi-square provenance, weights and vote arrays, order included — what a
from-scratch ``AuricEngine(...).fit(...)`` on the mutated store
produces, and the engine it replaced must be left exactly as it was.
Five paths are covered:

* changed labels, no fit-subsample cap → per-parameter selection re-runs;
* changed labels all *outside* the capped fit subsample → the previous
  selection is provably reusable and only votes rebuild;
* a rollback round-trip (change then revert) → re-encoded columns are
  value-identical and the model is kept untouched;
* a topology change (a new configured target: a launched carrier's
  value, or a new handover pair's) → full per-parameter refit, reported
  as ``refitted[name] == -1``;
* an engine fitted with vote weights → every refit, changelog or full,
  keeps them.
"""

import copy

import numpy as np
import pytest

from repro.config.store import PairKey
from repro.core import AuricEngine
from repro.core.auric import AuricConfig
from repro.obs import metrics as obs_metrics
from repro.ops.history import ChangeLog, ChangeSource
from repro.serve import RecommendationService, load_engine, save_engine
from repro.serve.refresh import EngineRefresher

from tests.conftest import model_state

PARAMETERS = ["pMax", "inactivityTimer", "hysA3Offset"]


def assert_engines_identical(incremental, full):
    a, b = incremental.fitted_models(), full.fitted_models()
    assert sorted(a) == sorted(b)
    for name in sorted(a):
        assert model_state(a[name]) == model_state(b[name]), name


def build(dataset, config, weights=None):
    """A service + refresher over a private copy of the config store
    (these tests mutate configured values)."""
    store = copy.deepcopy(dataset.store)
    engine = AuricEngine(dataset.network, store, config).fit(
        PARAMETERS, vote_weights=weights
    )
    service = RecommendationService(engine)
    return store, engine, service, EngineRefresher(service)


def flip_values(store, name, count, log, revert=False):
    """Change ``count`` carriers' values to another in-use value."""
    values = store.singular_values(name)
    keys = sorted(values)[:count]
    vocab = sorted({v for v in values.values()}, key=repr)
    for key in keys:
        old = values[key]
        new = next(v for v in vocab if v != old)
        store.set_singular(key, name, new)
        log.record(key, name, old, new, ChangeSource.MANUAL)
        if revert:
            store.set_singular(key, name, old)
            log.record(key, name, new, old, ChangeSource.ROLLBACK)
    return keys


def full_refit_reference(dataset, store, config, weights=None):
    return AuricEngine(dataset.network, store, config).fit(
        PARAMETERS, vote_weights=weights
    )


#: Vote weights assigned round-robin over the sorted targets, zero
#: included.
WEIGHT_CYCLE = (0.0, 0.1, 0.25, 1.7, 1.0)


def cycled_weights(store):
    weights = {}
    for values in (
        store.singular_values("pMax"),
        store.pairwise_values("hysA3Offset"),
    ):
        for i, key in enumerate(sorted(values)):
            weights[key] = WEIGHT_CYCLE[i % len(WEIGHT_CYCLE)]
    return weights


def new_target(dataset, store, name):
    """A target with no configured ``name`` value yet: a carrier for a
    singular parameter, an X2 neighbor pair for a pair-wise one."""
    carriers = sorted(c.carrier_id for c in dataset.network.carriers())
    if not store.catalog.spec(name).is_pairwise:
        configured = store.singular_values(name)
        return next((c for c in carriers if c not in configured), None)
    configured = store.pairwise_values(name)
    for carrier in carriers:
        for neighbor in sorted(dataset.network.x2.carrier_neighborhood(carrier)):
            pair = PairKey(carrier, neighbor)
            if pair not in configured:
                return pair
    return None


class TestEquivalence:
    def test_uncapped_refit_matches_full(self, dataset):
        config = AuricConfig(max_fit_samples=None)
        store, engine, service, refresher = build(dataset, config)
        log = ChangeLog()
        flip_values(store, "pMax", 5, log)
        result = refresher.refit(log)
        assert result.mode == "incremental-refit"
        assert result.refitted == {"pMax": 5}
        assert result.reused_selection == ()
        assert result.generation == service.generation == 1
        assert_engines_identical(
            service.engine, full_refit_reference(dataset, store, config)
        )

    def test_selection_reuse_matches_full(self, dataset):
        """A tiny fit-subsample cap makes changed positions land outside
        the deterministic subsample, so selection is reused — and must
        still equal a full refit bit for bit (including the chi-square
        provenance floats)."""
        config = AuricConfig(max_fit_samples=40)
        store, engine, service, refresher = build(dataset, config)
        log = ChangeLog()
        flip_values(store, "pMax", 3, log)
        result = refresher.refit(log)
        assert_engines_identical(
            service.engine, full_refit_reference(dataset, store, config)
        )
        if result.reused_selection:
            assert result.reused_selection == ("pMax",)

    def test_rollback_round_trip_keeps_models(self, dataset):
        config = AuricConfig()
        store, engine, service, refresher = build(dataset, config)
        before = {
            name: model_state(m)
            for name, m in engine.fitted_models().items()
        }
        log = ChangeLog()
        flip_values(store, "pMax", 4, log, revert=True)
        result = refresher.refit(log)
        assert result.skipped == ("pMax",)
        assert result.refitted == {}
        # Nothing changed: nothing is swapped in.
        assert service.engine is engine
        assert result.generation == service.generation == 0
        after = {
            name: model_state(m)
            for name, m in engine.fitted_models().items()
        }
        assert before == after

    @pytest.mark.parametrize("name", ["pMax", "hysA3Offset"])
    def test_topology_change_forces_full_parameter_refit(self, dataset, name):
        """Growth is a changelog refit: a launched carrier's value (or a
        new handover pair's) is written, recorded and refit, and joins
        the electorate exactly as a full fit would place it."""
        config = AuricConfig()
        store, engine, service, refresher = build(dataset, config)
        key = new_target(dataset, store, name)
        if key is None:
            pytest.skip(f"every target already configures {name}")
        log = ChangeLog()
        if isinstance(key, PairKey):
            value = sorted(set(store.pairwise_values(name).values()), key=repr)[0]
            store.set_pairwise(key, name, value)
            log.record(key.carrier, name, None, value, ChangeSource.MANUAL)
        else:
            value = sorted(set(store.singular_values(name).values()), key=repr)[0]
            store.set_singular(key, name, value)
            log.record(key, name, None, value, ChangeSource.MANUAL)
        result = refresher.refit(log)
        assert result.refitted == {name: -1}
        refit = service.engine.fitted_models()[name]
        assert refit.encoded.position(key) is not None
        assert engine.fitted_models()[name].encoded.position(key) is None
        # The new target answers leave-one-out like any fitted one.
        (answer,) = service.engine.recommend_for_targets(name, [key])
        assert answer.value is not None
        assert_engines_identical(
            service.engine, full_refit_reference(dataset, store, config)
        )

    @pytest.mark.parametrize("cap", [None, 40], ids=["uncapped", "capped"])
    def test_weighted_refits_keep_vote_weights(self, dataset, cap):
        """A changelog refit and then a full refit of a weighted engine
        both equal a fresh fit with the same vote weights.  The capped
        case takes the selection-reuse branch, the uncapped one
        reselects."""
        config = AuricConfig(max_fit_samples=cap)
        weights = cycled_weights(dataset.store)
        store, engine, service, refresher = build(dataset, config, weights)
        assert engine.fitted_models()["pMax"].weights
        log = ChangeLog()
        flip_values(store, "pMax", 5, log)
        result = refresher.refit(log)
        assert result.refitted == {"pMax": 5}
        assert result.reused_selection == (("pMax",) if cap else ())
        reference = full_refit_reference(dataset, store, config, weights)
        assert_engines_identical(service.engine, reference)
        result = refresher.refit()
        assert result.mode == "full"
        assert result.generation == service.generation == 2
        assert_engines_identical(service.engine, reference)

    def test_untouched_parameters_keep_their_models(self, dataset):
        config = AuricConfig()
        store, engine, service, refresher = build(dataset, config)
        untouched = {
            name: engine.fitted_models()[name]
            for name in ("inactivityTimer", "hysA3Offset")
        }
        log = ChangeLog()
        flip_values(store, "pMax", 2, log)
        refresher.refit(log)
        for name, model in untouched.items():
            assert service.engine.fitted_models()[name] is model


class TestFitPhaseMetrics:
    def test_changelog_refit_observes_fit_phases(self, dataset):
        """The encode / select / vote time a changelog refit spends on
        its fork reaches ``repro_fit_phase_seconds``, as a full fit's
        does."""
        previous = obs_metrics.get_registry()
        registry = obs_metrics.MetricsRegistry()
        obs_metrics.set_registry(registry)
        try:
            config = AuricConfig(max_fit_samples=None)
            store, _, _, refresher = build(dataset, config)
            histogram = registry.histogram(
                "repro_fit_phase_seconds", labelnames=("phase", "parameter")
            )
            phases = ("encode", "select", "vote")

            def counts():
                return {
                    phase: histogram.labels(phase=phase, parameter="pMax").count
                    for phase in phases
                }

            before = counts()
            log = ChangeLog()
            flip_values(store, "pMax", 5, log)
            assert refresher.refit(log).refitted == {"pMax": 5}
            after = counts()
        finally:
            obs_metrics.set_registry(previous)
        for phase in phases:
            assert after[phase] == before[phase] + 1, phase


class TestReplacedEngine:
    """A refit builds a new engine; the one it replaces — which readers
    that loaded it before the swap are still voting on — never moves."""

    @pytest.mark.parametrize("cap", [None, 40], ids=["uncapped", "capped"])
    def test_refit_never_mutates_the_engine_it_replaces(self, dataset, cap):
        store, old, service, refresher = build(
            dataset, AuricConfig(max_fit_samples=cap)
        )
        states = {
            name: model_state(m) for name, m in old.fitted_models().items()
        }
        models = old.fitted_models()
        columns = old.columnar_snapshot().parameters["pMax"]
        label_codes = columns.label_codes.copy()
        baseline = dict(old.drift_baseline.parameters["pMax"])
        log = ChangeLog()
        flip_values(store, "pMax", 5, log)
        result = refresher.refit(log)
        assert result.refitted["pMax"] == 5
        assert service.engine is not old
        assert service.generation == 1
        assert sorted(old.fitted_models()) == sorted(models)
        for name, model in old.fitted_models().items():
            assert model is models[name]
            assert model_state(model) == states[name], name
        assert old.columnar_snapshot().parameters["pMax"] is columns
        np.testing.assert_array_equal(columns.label_codes, label_codes)
        assert old.drift_baseline.parameters["pMax"] == baseline
        new_models = service.engine.fitted_models()
        assert new_models["pMax"] is not models["pMax"]
        for name in ("inactivityTimer", "hysA3Offset"):
            assert new_models[name] is models[name]

    def test_rollback_round_trip_swaps_nothing(self, dataset):
        store, old, service, refresher = build(dataset, AuricConfig())
        log = ChangeLog()
        flip_values(store, "pMax", 4, log, revert=True)
        refresher.refit(log)
        assert service.engine is old
        assert service.generation == 0


class TestLoadedEngine:
    """A memory artifact carries no snapshot: the engine loaded from it
    encodes the live one and rebuilds its models over it, and its first
    changelog refit must still match a full refit."""

    @pytest.mark.parametrize("cap", [None, 40], ids=["uncapped", "capped"])
    def test_refit_without_snapshot_matches_full(self, dataset, tmp_path, cap):
        config = AuricConfig(max_fit_samples=cap)
        store = copy.deepcopy(dataset.store)
        path = str(tmp_path / "engine.json")
        save_engine(
            AuricEngine(dataset.network, store, config).fit(PARAMETERS), path
        )
        engine = load_engine(path, dataset.network, store)
        loaded_snapshot = engine.columnar_snapshot()
        assert loaded_snapshot is not None
        service = RecommendationService(engine)
        refresher = EngineRefresher(service)
        log = ChangeLog()
        flip_values(store, "pMax", 5, log)
        result = refresher.refit(log)
        assert result.refitted == {"pMax": 5}
        assert service.engine.columnar_snapshot() is not loaded_snapshot
        assert engine.columnar_snapshot() is loaded_snapshot
        assert_engines_identical(
            service.engine, full_refit_reference(dataset, store, config)
        )


class TestServiceIntegration:
    def test_refit_invalidates_served_cache(self, dataset, rulebook):
        from repro.core.recommendation import RecommendRequest

        config = AuricConfig()
        store, engine, service, refresher = build(dataset, config)
        carrier = sorted(store.singular_values("pMax"))[0]
        service.handle(
            RecommendRequest(carrier_id=carrier, parameters=("pMax",))
        )
        assert service.cache_len() > 0
        log = ChangeLog()
        flip_values(store, "pMax", 1, log)
        refresher.refit(log)
        assert service.cache_len() == 0
        assert service.metrics.refreshes == 1
        assert service.metrics.refresh_duration.count == 1

    def test_drift_baseline_tracks_refit(self, dataset):
        """The fit-time baseline for the touched parameter must reflect
        the mutated store, exactly as a fresh capture would."""
        config = AuricConfig()
        store, engine, service, refresher = build(dataset, config)
        log = ChangeLog()
        flip_values(store, "pMax", 5, log)
        refresher.refit(log)
        fresh = full_refit_reference(dataset, store, config)
        assert (
            service.engine.drift_baseline.parameters["pMax"]
            == fresh.drift_baseline.parameters["pMax"]
        )

    def test_unfitted_touched_parameter_is_ignored(self, dataset):
        config = AuricConfig()
        store, engine, service, refresher = build(dataset, config)
        log = ChangeLog()
        flip_values(store, "qHyst", 2, log)  # never fitted
        result = refresher.refit(log)
        assert result.refitted == {}
        assert result.skipped == ()
        assert service.engine is engine
        assert service.generation == 0
