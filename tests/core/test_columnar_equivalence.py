"""Fitted-vs-loaded equivalence: the byte-identity contract.

Every model is built by one vote phase from a selection over an encoded
snapshot, whether a fit built it or an artifact load rebuilt it from
its selection and weights.  These tests fit a vote-weighted engine over
several generation seeds, load it back through a memory artifact (which
encodes the live snapshot) and through an mmap artifact (which opens
its store), and assert the vote arrays, vocabularies, vote tables,
local indexes and the LOO evaluation are *identical* — not
approximately equal — down to insertion order, float vote sums and
mismatch lists.
"""

import json

import pytest

from repro.core.auric import AuricEngine
from repro.datagen.generator import generate_dataset
from repro.datagen.profiles import GenerationProfile, four_market_profile
from repro.eval.runner import EvaluationRunner
from repro.serve.artifacts import (
    engine_from_dict,
    engine_to_dict,
    load_engine,
    save_engine,
)
from repro.store import MmapSnapshotStore

from tests.conftest import model_state

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


def _round_trips(engine, dataset, directory):
    """``engine`` loaded back from a memory and from an mmap artifact."""
    memory = engine_from_dict(
        json.loads(json.dumps(engine_to_dict(engine))),
        dataset.network,
        dataset.store,
    )
    path = str(directory / "engine.json")
    save_engine(
        engine, path, snapshot_store=MmapSnapshotStore(path + ".columnar")
    )
    mapped = load_engine(path, dataset.network, dataset.store)
    assert mapped.columnar_snapshot()._backing is not None
    return {"memory": memory, "mmap": mapped}


@pytest.fixture(scope="module", params=SEEDS)
def engine_pair(request, tmp_path_factory):
    dataset = _dataset(request.param)
    parameters = _fittable_parameters(dataset, PARAMETERS_PER_SEED)
    encoded = AuricEngine(dataset.network, dataset.store).fit(
        parameters, vote_weights=_vote_weights(dataset, parameters)
    )
    loaded = _round_trips(encoded, dataset, tmp_path_factory.mktemp("seed"))
    return dataset, parameters, loaded, encoded


def _table_state(table):
    return (
        list(table._slots),
        table._labels,
        table._counts.tolist(),
        table._totals.tolist(),
    )


def _index_state(index):
    return (
        index.cells,
        index.cell_codes.tolist(),
        index.labels,
        index.label_codes.tolist(),
        None if index.weights is None else index.weights.tolist(),
        index.order.tolist(),
        index.offsets.tolist(),
    )


class TestFittedStateIdentical:
    def test_dependent_attributes(self, engine_pair):
        _, parameters, loaded, encoded = engine_pair
        for rebuilt in loaded.values():
            for name in parameters:
                a, b = rebuilt._models[name], encoded._models[name]
                assert a.dependent_columns == b.dependent_columns
                assert a.dependent_names == b.dependent_names
                assert a.dependent_stats == b.dependent_stats

    def test_vote_indexes_including_insertion_order(self, engine_pair):
        """Every relaxation level's vote table and the local vote index
        hold the same cells, labels and float sums in the same order."""
        _, parameters, loaded, encoded = engine_pair
        for rebuilt in loaded.values():
            for name in parameters:
                a, b = rebuilt._models[name], encoded._models[name]
                for level in range(len(a.dependent_columns) + 1):
                    assert _table_state(rebuilt._table(a, level)) == (
                        _table_state(encoded._table(b, level))
                    ), (name, level)
                assert _index_state(rebuilt._local_vote_index(a)) == (
                    _index_state(encoded._local_vote_index(b))
                ), name

    def test_samples_and_topology(self, engine_pair):
        """The encoded vote arrays, their vocabularies and the weights —
        and so every key, cell and label derived from them."""
        _, parameters, loaded, encoded = engine_pair
        for rebuilt in loaded.values():
            for name in parameters:
                a, b = rebuilt._models[name], encoded._models[name]
                assert model_state(a) == model_state(b), name
                assert list(a.encoded.targets().items()) == list(
                    b.encoded.targets().items()
                ), name


class TestEvaluationIdentical:
    def test_loo_accuracy_and_mismatches(self, engine_pair):
        dataset, parameters, loaded, encoded = engine_pair
        encoded_result = EvaluationRunner(dataset, seed=11).loo_accuracy(
            encoded, parameters, max_targets_per_parameter=MAX_TARGETS
        )
        for rebuilt in loaded.values():
            rebuilt_result = EvaluationRunner(dataset, seed=11).loo_accuracy(
                rebuilt, parameters, max_targets_per_parameter=MAX_TARGETS
            )
            assert (
                rebuilt_result.parameter_accuracy_local
                == encoded_result.parameter_accuracy_local
            )
            assert (
                rebuilt_result.parameter_accuracy_global
                == encoded_result.parameter_accuracy_global
            )
            assert (
                rebuilt_result.mismatches_local == encoded_result.mismatches_local
            )
            assert (
                rebuilt_result.mismatches_global
                == encoded_result.mismatches_global
            )
            assert rebuilt_result.evaluated == encoded_result.evaluated

    def test_single_recommendations_identical(self, engine_pair):
        _, parameters, loaded, encoded = engine_pair
        for rebuilt in loaded.values():
            for name in parameters:
                keys = list(rebuilt._models[name].encoded.targets())[:40]
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


def _dict_walk(model, neighborhood, exclude):
    """The reference electorate: each neighborhood carrier's samples,
    looked up in a dict of the model's (derived) keys by source carrier,
    in neighborhood iteration x per-carrier sample order, minus the
    excluded target."""
    by_carrier = {}
    for pos, key in enumerate(model.encoded.targets()):
        source = key.carrier if model.spec.is_pairwise else key
        by_carrier.setdefault(source, []).append(pos)
    positions = [
        pos for carrier in neighborhood for pos in by_carrier.get(carrier, ())
    ]
    excluded = model.encoded.position(exclude) if exclude is not None else None
    return [p for p in positions if p != excluded]


@pytest.fixture(scope="module")
def fitted_and_loaded(engine, dataset, tmp_path_factory):
    """The shared engine (singular and pair-wise models) and its memory
    and mmap artifact round trips."""
    loaded = _round_trips(engine, dataset, tmp_path_factory.mktemp("shared"))
    return engine, loaded["memory"], loaded["mmap"]


class TestSlotElectorate:
    def test_slot_gather_matches_the_dict_walk(self, fitted_and_loaded):
        kinds = set()
        for origin, engine in zip(("fit", "memory", "mmap"), fitted_and_loaded):
            for model in engine.fitted_models().values():
                index = engine._local_vote_index(model)
                pairwise = model.spec.is_pairwise
                kinds.add((origin, pairwise))
                for key in list(model.encoded.targets())[:80]:
                    source = key.carrier if pairwise else key
                    neighborhood = engine.neighborhood_of(source)
                    # The target's own carrier votes too, so the
                    # exclusion has something to remove.
                    neighborhood.add(source)
                    slots = engine.voters(neighborhood).slots
                    for exclude in (None, key):
                        excluded = (
                            None if exclude is None
                            else model.encoded.position(exclude)
                        )
                        got = index.electorate(slots, excluded)
                        assert (
                            [] if got is None else got.tolist()
                        ) == _dict_walk(model, neighborhood, exclude)
        # Fitted and loaded engines, singular and pair-wise models.
        assert kinds == {
            (origin, pairwise)
            for origin in ("fit", "memory", "mmap")
            for pairwise in (False, True)
        }

    def test_loaded_engine_numbers_carriers_like_the_snapshot(
        self, fitted_and_loaded
    ):
        fitted, *loaded = fitted_and_loaded
        for engine in loaded:
            assert engine.columnar_snapshot() is not None
            assert engine.carrier_slots() == fitted.carrier_slots()
