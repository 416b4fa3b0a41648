"""Encoded-vs-rebuilt equivalence: the byte-identity contract.

A fitted model builds its vote tables and local vote index from the
fit-time encoded columns; a model loaded from an artifact (or edited
sample by sample) builds them from its dict/Counter indexes instead.
These tests fit a vote-weighted engine over several generation seeds,
rebuild it through an artifact round trip, and assert the fitted state
and the LOO evaluation are *identical* — not approximately equal — down
to Counter insertion order, float vote sums and mismatch lists.
"""

import json

import pytest

from repro.core.auric import AuricEngine
from repro.datagen.generator import generate_dataset
from repro.datagen.profiles import GenerationProfile, four_market_profile
from repro.eval.runner import EvaluationRunner
from repro.serve.artifacts import engine_from_dict, engine_to_dict

SEEDS = (7, 11, 23)
PARAMETERS_PER_SEED = 4
MAX_TARGETS = 120


def _dataset(seed: int):
    base = four_market_profile()
    return generate_dataset(
        GenerationProfile(markets=base.markets[:1], seed=seed)
    )


def _fittable_parameters(dataset, count):
    names = []
    for name in sorted(dataset.store.catalog.names):
        spec = dataset.store.catalog.spec(name)
        values = (
            dataset.store.pairwise_values(name)
            if spec.is_pairwise
            else dataset.store.singular_values(name)
        )
        if values:
            names.append(name)
        if len(names) >= count:
            break
    return names


def _vote_weights(dataset, parameters):
    """Cycle weights (zero and fractional included) over every target."""
    cycle = (0.0, 0.1, 0.25, 1.7, 1.0)
    weights = {}
    for name in parameters:
        values = dataset.store.pairwise_values(name)
        for i, key in enumerate(sorted(values)):
            weights[key] = cycle[i % len(cycle)]
    return weights


@pytest.fixture(scope="module", params=SEEDS)
def engine_pair(request):
    dataset = _dataset(request.param)
    parameters = _fittable_parameters(dataset, PARAMETERS_PER_SEED)
    encoded = AuricEngine(dataset.network, dataset.store).fit(
        parameters, vote_weights=_vote_weights(dataset, parameters)
    )
    rebuilt = engine_from_dict(
        json.loads(json.dumps(engine_to_dict(encoded))),
        dataset.network,
        dataset.store,
    )
    assert all(m._encoded is None for m in rebuilt._models.values())
    return dataset, parameters, rebuilt, encoded


class TestFittedStateIdentical:
    def test_dependent_attributes(self, engine_pair):
        _, parameters, rebuilt, encoded = engine_pair
        for name in parameters:
            a, b = rebuilt._models[name], encoded._models[name]
            assert a.dependent_columns == b.dependent_columns
            assert a.dependent_names == b.dependent_names
            assert a.dependent_stats == b.dependent_stats

    def test_vote_indexes_including_insertion_order(self, engine_pair):
        _, parameters, rebuilt, encoded = engine_pair
        for name in parameters:
            a, b = rebuilt._models[name], encoded._models[name]
            assert a.cell_index == b.cell_index
            assert list(a.cell_index) == list(b.cell_index)
            for cell in a.cell_index:
                assert list(a.cell_index[cell].items()) == list(
                    b.cell_index[cell].items()
                )
            assert a.global_counts == b.global_counts
            assert list(a.global_counts.items()) == list(
                b.global_counts.items()
            )

    def test_samples_and_topology(self, engine_pair):
        _, parameters, rebuilt, encoded = engine_pair
        for name in parameters:
            a, b = rebuilt._models[name], encoded._models[name]
            assert a.samples == b.samples
            assert list(a.samples) == list(b.samples)
            assert a.by_carrier == b.by_carrier
            assert a.weights == b.weights


class TestEvaluationIdentical:
    def test_loo_accuracy_and_mismatches(self, engine_pair):
        dataset, parameters, rebuilt, encoded = engine_pair
        rebuilt_result = EvaluationRunner(dataset, seed=11).loo_accuracy(
            rebuilt, parameters, max_targets_per_parameter=MAX_TARGETS
        )
        encoded_result = EvaluationRunner(dataset, seed=11).loo_accuracy(
            encoded, parameters, max_targets_per_parameter=MAX_TARGETS
        )
        assert (
            rebuilt_result.parameter_accuracy_local
            == encoded_result.parameter_accuracy_local
        )
        assert (
            rebuilt_result.parameter_accuracy_global
            == encoded_result.parameter_accuracy_global
        )
        assert rebuilt_result.mismatches_local == encoded_result.mismatches_local
        assert (
            rebuilt_result.mismatches_global == encoded_result.mismatches_global
        )
        assert rebuilt_result.evaluated == encoded_result.evaluated

    def test_single_recommendations_identical(self, engine_pair):
        _, parameters, rebuilt, encoded = engine_pair
        for name in parameters:
            model = rebuilt._models[name]
            keys = list(model.samples)[:40]
            for local in (False, True):
                a = rebuilt.recommend_for_targets(
                    name, keys, local=local, leave_one_out=True
                )
                b = encoded.recommend_for_targets(
                    name, keys, local=local, leave_one_out=True
                )
                assert [
                    (r.value, r.support, r.matched, r.scope, r.confident)
                    for r in a
                ] == [
                    (r.value, r.support, r.matched, r.scope, r.confident)
                    for r in b
                ]


def _dict_walk(model, index, neighborhood, exclude):
    """The reference electorate: each neighborhood carrier looked up in
    the model's ``by_carrier`` dict, in neighborhood iteration x
    per-carrier insertion order, minus the excluded target."""
    positions = [
        index.key_pos[key]
        for carrier in neighborhood
        for key in model.by_carrier.get(carrier, ())
    ]
    excluded = index.key_pos.get(exclude) if exclude is not None else None
    return [p for p in positions if p != excluded]


@pytest.fixture(scope="module")
def fitted_and_loaded(engine, dataset):
    """The shared engine (singular and pair-wise models, fitted from
    encoded columns) and its artifact round trip (dict-built models)."""
    loaded = engine_from_dict(
        json.loads(json.dumps(engine_to_dict(engine))),
        dataset.network,
        dataset.store,
    )
    return engine, loaded


class TestSlotElectorate:
    def test_slot_gather_matches_the_dict_walk(self, fitted_and_loaded):
        kinds = set()
        for engine in fitted_and_loaded:
            for model in engine.fitted_models().values():
                index = engine._local_vote_index(model)
                pairwise = model.spec.is_pairwise
                kinds.add((model._encoded is None, pairwise))
                for key in list(model.samples)[:80]:
                    source = key.carrier if pairwise else key
                    neighborhood = engine.neighborhood_of(source)
                    # The target's own carrier votes too, so the
                    # exclusion has something to remove.
                    neighborhood.add(source)
                    slots = engine.voters(neighborhood).slots
                    for exclude in (None, key):
                        got = index.electorate(slots, exclude)
                        assert (
                            [] if got is None else got.tolist()
                        ) == _dict_walk(model, index, neighborhood, exclude)
        # Fitted and loaded engines, singular and pair-wise models.
        assert kinds == {
            (loaded, pairwise)
            for loaded in (False, True)
            for pairwise in (False, True)
        }

    def test_loaded_engine_numbers_carriers_like_the_snapshot(
        self, fitted_and_loaded
    ):
        fitted, loaded = fitted_and_loaded
        assert loaded.columnar_snapshot() is None
        assert loaded.carrier_slots() == fitted.carrier_slots()
