"""Regression tests for the voting fast paths.

* The engine's vote table agrees with the stored Counter indexes, is
  built for every model (weighted ones and vote capture included) and
  is invalidated when the electorate changes; batched votes match the
  scalar entry point.
* :meth:`CollaborativeFilteringRecommender.vote` computes each probed
  level's total once and derives ``exact_match_exists`` from the
  level-0 probe — same outcomes, one pass.
"""

import pytest

from repro.core import AuricEngine
from repro.core.columnar import CellVoteTable
from repro.exceptions import ColdStartError
from repro.learners.collaborative_filtering import (
    CollaborativeFilteringRecommender,
)


class TestVoteTableConsistentWithCounters(object):
    def test_table_agrees_with_stored_counters(self, engine):
        model = engine._model("pMax")
        table = CellVoteTable(model.cell_index)
        for cell, counter in model.cell_index.items():
            value, top, total = table.vote(cell)
            assert (value, top) == counter.most_common(1)[0]
            assert total == sum(counter.values())


# Both columns are needed to predict the label, so the chi-square
# selection keeps both and the voter has a level to relax into.
ROWS = [
    ("urban", 10), ("urban", 20), ("rural", 10), ("rural", 20),
] * 8
LABELS = ["a", "b", "c", "d"] * 8


def _fitted_cf(**kwargs):
    recommender = CollaborativeFilteringRecommender(
        min_matched=1, **kwargs
    )
    recommender.fit(ROWS, LABELS)
    return recommender


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

    def test_error_fallback_raises_cold_start_without_exact_match(self):
        recommender = _fitted_cf(fallback="error")
        if len(recommender.dependent_attributes) < 2:
            pytest.skip("needs >= 2 dependent attributes to relax")
        with pytest.raises(ColdStartError):
            recommender.vote(("urban", 99))

    def test_error_fallback_still_answers_exact_matches(self):
        recommender = _fitted_cf(fallback="error")
        assert recommender.vote(("rural", 10)).value == "c"

    def test_support_is_top_over_level_total(self):
        recommender = _fitted_cf()
        outcome = recommender.vote(("urban", 10))
        index = recommender._indexes[0]
        key = tuple(
            ("urban", 10)[col] for col in recommender._prefixes[0]
        )
        counter = index[key]
        assert outcome.matched_weight == sum(counter.values())
        assert outcome.support == (
            counter.most_common(1)[0][1] / sum(counter.values())
        )


class TestFastPathGating:
    def test_weighted_and_capture_models_use_vote_table(self, dataset):
        weights = {cid: 0.5 for cid in dataset.store.singular_values("pMax")}
        engine = AuricEngine(dataset.network, dataset.store).fit(
            ["pMax"], vote_weights=weights
        )
        model = engine._model("pMax")
        assert model._encoded is not None
        table = engine._cell_vote_table(model)
        assert isinstance(table, CellVoteTable)
        key = next(iter(model.samples))
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

    def test_add_sample_invalidates_fast_path_caches(self, dataset):
        engine = AuricEngine(dataset.network, dataset.store).fit(["pMax"])
        model = engine._model("pMax")
        engine._cell_vote_table(model)
        engine._local_vote_index(model)
        key, (cell, label) = next(iter(model.samples.items()))
        row = engine.carrier_row(key)
        model.add_sample(key, row, label)
        assert model._vote_table is None
        assert model._local_index is None
        assert model._relaxed_tables == {}


class TestVoteMany:
    """The batched gather answers exactly like scalar ``vote`` calls."""

    def test_matches_scalar_votes_over_all_cells(self, engine):
        model = engine._model("pMax")
        table = engine._cell_vote_table(model)
        cells = list(model.cell_index) + [("no-such", "cell", 0, 0)]
        known, values, tops, totals = table.vote_many(cells)
        for i, cell in enumerate(cells):
            scalar = table.vote(cell)
            if scalar is None:
                assert not known[i]
                assert values[i] is None
            else:
                value, top, total = scalar
                assert known[i]
                assert values[i] == value
                assert tops[i] == top
                assert totals[i] == total

    def test_empty_batch(self, engine):
        model = engine._model("pMax")
        table = engine._cell_vote_table(model)
        known, values, tops, totals = table.vote_many([])
        assert len(known) == len(values) == len(tops) == len(totals) == 0


class TestRecommendGlobalCells:
    """Batched global votes are element-wise identical to the scalar
    entry point — including LOO exclusions and unknown cells."""

    def _rows(self, network, count=40):
        rows = []
        for carrier in network.carriers():
            rows.append(carrier.attributes.as_tuple())
            if len(rows) == count:
                break
        return rows

    def test_plain_batch_matches_scalar(self, engine, network):
        rows = self._rows(network)
        cells = [engine._model("pMax").cell_key(row) for row in rows]
        batched = engine.recommend_global_cells("pMax", cells)
        for row, rec in zip(rows, batched):
            assert rec == engine.recommend_global("pMax", row)

    def test_loo_batch_matches_scalar(self, engine, network):
        carriers = []
        for carrier in network.carriers():
            carriers.append(carrier)
            if len(carriers) == 25:
                break
        model = engine._model("inactivityTimer")
        cells = [
            model.cell_key(c.attributes.as_tuple()) for c in carriers
        ]
        excludes = [c.carrier_id for c in carriers]
        batched = engine.recommend_global_cells(
            "inactivityTimer", cells, excludes
        )
        for carrier, rec in zip(carriers, batched):
            scalar = engine.recommend_global(
                "inactivityTimer",
                carrier.attributes.as_tuple(),
                exclude=carrier.carrier_id,
            )
            assert rec == scalar

    def test_unknown_cell_relaxes_like_scalar(self, engine, network):
        row = next(network.carriers()).attributes.as_tuple()
        model = engine._model("pMax")
        known = model.cell_key(row)
        unknown = tuple("never-seen" for _ in known)
        batched = engine.recommend_global_cells("pMax", [known, unknown])
        assert batched[0] == engine.recommend_global("pMax", row)
        assert batched[1].scope in ("global-relaxed", "global-fallback")

    def test_weighted_batch_matches_scalar(self, dataset):
        cycle = (0.0, 0.1, 0.25, 1.7, 1.0)
        weights = {
            cid: cycle[i % len(cycle)]
            for i, cid in enumerate(sorted(dataset.store.singular_values("pMax")))
        }
        engine = AuricEngine(dataset.network, dataset.store).fit(
            ["pMax"], vote_weights=weights
        )
        carriers = list(dataset.network.carriers())[:20]
        model = engine._model("pMax")
        cells = [model.cell_key(c.attributes.as_tuple()) for c in carriers]
        excludes = [c.carrier_id if i % 2 else None for i, c in enumerate(carriers)]
        batched = engine.recommend_global_cells("pMax", cells, excludes)
        for carrier, exclude, rec in zip(carriers, excludes, batched):
            scalar = engine.recommend_global(
                "pMax", carrier.attributes.as_tuple(), exclude=exclude
            )
            assert rec == scalar

    def test_table_global_votes_never_raises_on_unknown(self, engine):
        answers = engine.table_global_votes(
            "pMax", [("nope",) * 4], [None]
        )
        assert answers == [None]
