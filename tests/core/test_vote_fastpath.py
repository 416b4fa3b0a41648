"""Regression tests for the vote tables.

* The engine's vote table agrees with Counters over the model's
  samples and is built once for every model (weighted ones and vote
  capture included).
* :meth:`CollaborativeFilteringRecommender.vote` probes the same kind
  of table, one per relaxation prefix from the exact cell down: an
  exact match is no fallback, a relaxed one is, and the support is the
  answering table's top over its total.
"""

from collections import Counter

import pytest

from repro.core import AuricEngine
from repro.learners.collaborative_filtering import (
    CellVoteTable,
    CollaborativeFilteringRecommender,
)


class TestVoteTableConsistentWithCounters(object):
    def test_table_agrees_with_stored_counters(self, engine):
        """The exact-cell table answers every cell as a Counter over
        the model's (derived) samples would."""
        model = engine._model("pMax")
        table = engine._cell_vote_table(model)
        cell_index = {}
        for cell, label in model.encoded.targets().values():
            cell_index.setdefault(cell, Counter())[label] += 1.0
        assert len(table) == len(cell_index)
        for cell, counter in cell_index.items():
            value, top, total = table.vote(cell)
            assert (value, top) == counter.most_common(1)[0]
            assert total == sum(counter.values())


# Both columns are needed to predict the label, so the chi-square
# selection keeps both and the voter has a level to relax into.
ROWS = [
    ("urban", 10), ("urban", 20), ("rural", 10), ("rural", 20),
] * 8
LABELS = ["a", "b", "c", "d"] * 8


def _fitted_cf():
    return CollaborativeFilteringRecommender().fit(ROWS, LABELS)


class TestCollaborativeFilteringVote:
    def test_exact_match_vote(self):
        recommender = _fitted_cf()
        outcome = recommender.vote(("urban", 10))
        assert outcome.value == "a"
        assert not outcome.fallback_used

    def test_relaxed_vote_marks_fallback(self):
        recommender = _fitted_cf()
        if len(recommender.dependent_attributes) < 2:
            pytest.skip("needs >= 2 dependent attributes to relax")
        outcome = recommender.vote(("urban", 99))
        assert outcome.fallback_used

    def test_support_is_top_over_level_total(self):
        recommender = _fitted_cf()
        outcome = recommender.vote(("urban", 10))
        cell = tuple(
            ("urban", 10)[col] for col in recommender.dependent_attributes
        )
        value, top, total = recommender._tables[0].vote(cell)
        assert outcome.value == value
        assert outcome.matched_weight == total
        assert outcome.support == top / total


class TestFastPathGating:
    def test_weighted_and_capture_models_use_vote_table(self, dataset):
        weights = {cid: 0.5 for cid in dataset.store.singular_values("pMax")}
        engine = AuricEngine(dataset.network, dataset.store).fit(
            ["pMax"], vote_weights=weights
        )
        model = engine._model("pMax")
        assert model.encoded.weights is not None
        table = engine._cell_vote_table(model)
        assert isinstance(table, CellVoteTable)
        key = next(iter(model.encoded.targets()))
        captured = engine.recommend_global(
            "pMax", engine.carrier_row(key), capture=True
        )
        assert captured.votes
        assert engine._cell_vote_table(model) is table

    def test_columnar_true_builds_and_caches_vote_table(self, engine):
        model = engine._model("pMax")
        table = engine._cell_vote_table(model)
        assert table is not None
        assert engine._cell_vote_table(model) is table
