"""The drift baseline is counted off the snapshot an engine votes from.

Every way an engine comes to be — a serial or pool fit, a changelog
refit, a verified memory or mmap artifact load — must give the value
counts a fresh scan of its network and store gives.
"""

import copy

import pytest

from repro.core import AuricEngine
from repro.core.auric import AuricConfig
from repro.obs.health import (
    attribute_distributions,
    baseline_distributions,
    parameter_distribution,
)
from repro.ops.history import ChangeLog, ChangeSource
from repro.parallel.pool import ADAPTIVE_ENV
from repro.serve import load_engine, save_engine
from repro.serve.refresh import refit_engine

from .conftest import SERVE_PARAMETERS


def scanned(network, store, parameters):
    """The baseline as a scan of the network and store counts it."""
    expected = attribute_distributions(network)
    for name in parameters:
        expected["parameter:" + name] = parameter_distribution(store, name)
    return expected


def change_values(store):
    """Move 7 ``pMax`` and 5 ``hysA3Offset`` values to another in-use
    value; returns the changelog."""
    log = ChangeLog()
    for name, count in (("pMax", 7), ("hysA3Offset", 5)):
        pairwise = store.catalog.spec(name).is_pairwise
        values = (
            store.pairwise_values(name)
            if pairwise
            else store.singular_values(name)
        )
        vocab = sorted(set(values.values()), key=repr)
        for key in sorted(values)[:count]:
            old = values[key]
            new = next(v for v in vocab if v != old)
            if pairwise:
                store.set_pairwise(key, name, new)
                log.record(key.carrier, name, old, new, ChangeSource.MANUAL)
            else:
                store.set_singular(key, name, new)
                log.record(key, name, old, new, ChangeSource.MANUAL)
    return log


@pytest.mark.parametrize(
    "path", ["fit", "fit-jobs-2", "changelog-refit", "memory-load", "mmap-load"]
)
def test_derived_baseline_equals_a_scan(dataset, tmp_path, monkeypatch, path):
    monkeypatch.setenv(ADAPTIVE_ENV, "0")  # jobs=2 forks a real pool
    store = copy.deepcopy(dataset.store)
    config = AuricConfig(store="mmap" if path == "mmap-load" else "memory")
    engine = AuricEngine(dataset.network, store, config).fit(
        list(SERVE_PARAMETERS), jobs=2 if path == "fit-jobs-2" else 1
    )
    if path == "changelog-refit":
        engine, result = refit_engine(engine, change_values(store))
        assert sorted(result.refitted) == ["hysA3Offset", "pMax"]
    if path.endswith("-load"):
        artifact = str(tmp_path / "engine.json")
        save_engine(engine, artifact)
        engine = load_engine(artifact, dataset.network, store)
    assert sorted(engine.fitted_parameters()) == sorted(SERVE_PARAMETERS)
    derived = baseline_distributions(
        engine.ensure_columnar(), engine.fitted_parameters()
    )
    assert derived == scanned(dataset.network, store, SERVE_PARAMETERS)
