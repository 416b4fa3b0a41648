"""Pickle transport of the columnar snapshot to pool workers.

A snapshot pickles its arrays inline, whether it was encoded in memory
or opened from the mmap store; a spawn-start pool unpickles that
payload once per worker (fork pools inherit it).  The pickle round trip
and the spawn-pool end-to-end identity — of the fit and of the
leave-one-out sweep, whose payload is a fitted engine — are covered
here.
"""

import os
import pickle

import numpy as np

from repro.core import AuricEngine, RecommendRequest
from repro.core.columnar import ColumnarSnapshot
from repro.eval.runner import EvaluationRunner
from repro.parallel.pool import START_METHOD_ENV
from repro.store import MmapSnapshotStore

from tests.conftest import model_state


def _snapshot(dataset, count=2):
    specs = []
    for name in sorted(dataset.store.catalog.names):
        spec = dataset.store.catalog.spec(name)
        values = (
            dataset.store.pairwise_values(name)
            if spec.is_pairwise
            else dataset.store.singular_values(name)
        )
        if values:
            specs.append(spec)
        if len(specs) >= count:
            break
    return ColumnarSnapshot.encode(dataset.network, dataset.store, specs)


def _assert_same_snapshot(a: ColumnarSnapshot, b: ColumnarSnapshot) -> None:
    assert b.carrier_ids == a.carrier_ids
    assert np.array_equal(b.codes, a.codes)
    assert b.vocabs == a.vocabs
    assert set(b.parameters) == set(a.parameters)
    for name, columns in a.parameters.items():
        other = b.parameters[name]
        assert np.array_equal(other.sources, columns.sources)
        assert np.array_equal(other.label_codes, columns.label_codes)
        assert other.label_vocab == columns.label_vocab


class TestPickleFallback:
    def test_plain_pickle_outside_export_session(self, dataset, tmp_path):
        snapshot = _snapshot(dataset)
        store = MmapSnapshotStore(str(tmp_path / "snap.columnar"))
        store.persist(snapshot)
        for sent in (snapshot, store.load()):
            _assert_same_snapshot(snapshot, pickle.loads(pickle.dumps(sent)))


class TestSpawnPoolIdentity:
    def test_spawn_fit_matches_serial(self, dataset):
        """A spawn-start pool fits byte-identical models to the serial
        path."""
        parameters = ["pMax", "inactivityTimer"]
        serial = AuricEngine(dataset.network, dataset.store).fit(parameters)
        previous = os.environ.get(START_METHOD_ENV)
        os.environ[START_METHOD_ENV] = "spawn"
        try:
            pooled = AuricEngine(dataset.network, dataset.store).fit(
                parameters, jobs=2
            )
        finally:
            if previous is None:
                del os.environ[START_METHOD_ENV]
            else:
                os.environ[START_METHOD_ENV] = previous
        for name in parameters:
            assert model_state(serial._models[name]) == model_state(
                pooled._models[name]
            ), name

    def test_spawn_loo_matches_serial(self, dataset, engine, monkeypatch):
        """A spawn-start pool pickles the fitted engine to its workers;
        the leave-one-out sweep they run equals the serial one."""
        runner = EvaluationRunner(dataset)
        parameters = ["pMax", "inactivityTimer", "hysA3Offset"]
        serial = runner.loo_accuracy(
            engine, parameters, max_targets_per_parameter=60, jobs=1
        )
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        spawned = runner.loo_accuracy(
            engine, parameters, max_targets_per_parameter=60, jobs=2
        )
        assert spawned.parameter_accuracy_local == serial.parameter_accuracy_local
        assert (
            spawned.parameter_accuracy_global == serial.parameter_accuracy_global
        )
        assert spawned.mismatches_local == serial.mismatches_local
        assert spawned.mismatches_global == serial.mismatches_global
        assert spawned.evaluated == serial.evaluated

    def test_pickled_engine_answers_like_the_engine(self, dataset, engine):
        clone = pickle.loads(pickle.dumps(engine))
        carriers = sorted(c.carrier_id for c in dataset.network.carriers())
        for carrier_id in carriers[::25]:
            for local in (True, False):
                request = RecommendRequest(
                    carrier_id=carrier_id, leave_one_out=True, local=local,
                    explain=True,
                )
                assert (
                    clone.handle(request).recommendation
                    == engine.handle(request).recommendation
                )
