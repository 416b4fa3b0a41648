"""Shared fixtures.

The tiny dataset (two markets, a couple hundred carriers) is generated
once per session; suites that need a fitted engine share one as well.
"""

from __future__ import annotations

import pytest

from repro.config.catalog import build_default_catalog
from repro.core import AuricEngine
from repro.datagen import tiny_workload

#: Parameters the shared engine is fitted on — one low-variability
#: singular, one high-variability singular, one pair-wise.
ENGINE_PARAMETERS = ("pMax", "inactivityTimer", "hysA3Offset")


def model_state(model):
    """Everything that decides a fitted model's votes, in comparable
    form, order included: its selection and stats, its sparse weights
    and its vote arrays (every key, cell and label derives from them)."""
    encoded = model.encoded
    columns = encoded.columns

    def listed(array):
        return None if array is None else array.tolist()

    return (
        model.spec.name,
        model.dependent_columns,
        model.dependent_names,
        model.dependent_stats,
        [(str(key), weight) for key, weight in model.weights.items()],
        [str(key) for key in columns.keys(encoded.carrier_ids)],
        listed(encoded.cell_codes),
        listed(columns.label_codes),
        list(columns.label_vocab),
        listed(encoded.weights),
        list(encoded.prefix_sizes),
        [list(vocab) for vocab in encoded.dep_vocabs],
    )


@pytest.fixture(scope="session")
def catalog():
    return build_default_catalog()


@pytest.fixture(scope="session")
def dataset():
    return tiny_workload()


@pytest.fixture(scope="session")
def network(dataset):
    return dataset.network


@pytest.fixture(scope="session")
def store(dataset):
    return dataset.store


@pytest.fixture(scope="session")
def engine(dataset):
    return AuricEngine(dataset.network, dataset.store).fit(list(ENGINE_PARAMETERS))


@pytest.fixture()
def some_carrier(network):
    return next(network.carriers())


@pytest.fixture()
def some_carrier_id(some_carrier):
    return some_carrier.carrier_id
